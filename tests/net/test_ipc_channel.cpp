// Intra-node IPC channel semantics: delivery over the shared queue pair
// (lossless by default, lossy under an armed FaultModel), one-sided peer
// copies with bandwidth chosen from where the endpoints live, delivery
// receipts, wr-id disjointness with the fabric's range, and per-port fault
// accounting mirroring the fabric's.
#include "net/ipc.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "gpu/memory_registry.hpp"
#include "net/fabric.hpp"

namespace netsim = mv2gnc::netsim;
namespace gpu = mv2gnc::gpu;
namespace sim = mv2gnc::sim;

namespace {

netsim::WireMessage make_msg(int kind, std::uint64_t h0 = 0,
                             std::vector<std::byte> payload = {}) {
  netsim::WireMessage m;
  m.kind = kind;
  m.header[0] = h0;
  m.payload = std::move(payload);
  return m;
}

}  // namespace

TEST(IpcChannel, SendDeliversWithSourceStamped) {
  sim::Engine eng;
  gpu::MemoryRegistry reg;
  netsim::IpcChannel ch(eng, reg, netsim::IpcCostModel{});
  ch.add_rank(0);
  ch.add_rank(1);
  bool got = false;
  eng.spawn("sender", [&] { ch.port(0).post_send(1, make_msg(7, 42)); });
  eng.spawn("receiver", [&] {
    sim::Notifier n(eng);
    ch.port(1).set_wakeup(&n);
    netsim::Completion c;
    while (!ch.port(1).poll(c)) n.wait();
    EXPECT_EQ(c.type, netsim::CqType::kRecv);
    EXPECT_EQ(c.msg.kind, 7);
    EXPECT_EQ(c.msg.header[0], 42u);
    EXPECT_EQ(c.msg.src_node, 0);
    got = true;
  });
  eng.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(ch.port(0).messages_sent(), 1u);
}

TEST(IpcChannel, WrIdsDisjointFromFabricRange) {
  sim::Engine eng;
  gpu::MemoryRegistry reg;
  netsim::IpcChannel ch(eng, reg, netsim::IpcCostModel{});
  ch.add_rank(0);
  ch.add_rank(1);
  eng.spawn("sender", [&] {
    const std::uint64_t wr = ch.port(0).post_send(1, make_msg(1));
    EXPECT_GT(wr, netsim::kIpcWrBase);
  });
  eng.run();
}

TEST(IpcChannel, RdmaWritePlacesBytesBeforeImmediate) {
  sim::Engine eng;
  gpu::MemoryRegistry reg;
  netsim::IpcChannel ch(eng, reg, netsim::IpcCostModel{});
  ch.add_rank(0);
  ch.add_rank(1);
  std::vector<std::byte> src(4096);
  std::vector<std::byte> dst(4096, std::byte{0});
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::byte>(i * 7 & 0xFF);
  }
  eng.spawn("writer", [&] {
    ch.port(0).post_rdma_write(1, src.data(), dst.data(), src.size(),
                               make_msg(9, 1234));
  });
  eng.spawn("target", [&] {
    sim::Notifier n(eng);
    ch.port(1).set_wakeup(&n);
    netsim::Completion c;
    while (!ch.port(1).poll(c)) n.wait();
    ASSERT_EQ(c.type, netsim::CqType::kRecv);
    EXPECT_EQ(c.msg.kind, 9);
    EXPECT_EQ(std::memcmp(src.data(), dst.data(), src.size()), 0);
  });
  eng.run();
  EXPECT_EQ(ch.port(0).rdma_writes(), 1u);
  EXPECT_EQ(ch.port(0).bytes_sent(), src.size());
}

TEST(IpcChannel, CopyBandwidthFollowsEndpointResidency) {
  sim::Engine eng;
  gpu::MemoryRegistry reg;
  netsim::IpcCostModel cost;
  cost.host_bw = 10.0;
  cost.pcie_bw = 5.0;
  cost.peer_d2d_bw = 6.5;
  cost.shm_host_bw = 4.0;
  cost.cma_host_bw = 11.5;
  cost.shm_cma_threshold = 1024;
  netsim::IpcChannel ch(eng, reg, cost);
  // Two fake device allocations registered directly with the registry.
  alignas(64) static std::byte dev_a[256];
  alignas(64) static std::byte dev_b[256];
  alignas(64) static std::byte host[256];
  reg.register_range(dev_a, sizeof(dev_a), /*device_id=*/0);
  reg.register_range(dev_b, sizeof(dev_b), /*device_id=*/1);
  EXPECT_DOUBLE_EQ(ch.copy_bw(dev_a, dev_b, 256), 6.5);  // peer D2D
  EXPECT_DOUBLE_EQ(ch.copy_bw(dev_a, host, 256), 5.0);   // one device end
  EXPECT_DOUBLE_EQ(ch.copy_bw(host, dev_b, 256), 5.0);
  // Host<->host splits by size: double-buffered shm below the threshold,
  // single-copy CMA at or above it.
  EXPECT_DOUBLE_EQ(ch.copy_bw(host, host, 256), 4.0);
  EXPECT_DOUBLE_EQ(ch.copy_bw(host, host, 1024), 11.5);
  EXPECT_DOUBLE_EQ(ch.copy_bw(host, host, 1 << 20), 11.5);
}

TEST(IpcChannel, PeerCopyIsFasterThanPcieStagedCopy) {
  // The whole point of the fast path: a D2D peer copy of N bytes must beat
  // the same N bytes staged D2H + H2D over PCIe.
  netsim::IpcCostModel cost = netsim::IpcCostModel::from_gpu(
      mv2gnc::gpu::GpuCostModel::tesla_c2050());
  const std::size_t n = 1 << 20;
  const sim::SimTime peer = cost.copy_time(n, cost.peer_d2d_bw);
  const sim::SimTime staged = 2 * cost.copy_time(n, cost.pcie_bw);
  EXPECT_LT(peer, staged);
}

TEST(IpcChannel, DeliveryReceiptEchoesHeader) {
  sim::Engine eng;
  gpu::MemoryRegistry reg;
  netsim::IpcChannel ch(eng, reg, netsim::IpcCostModel{});
  ch.add_rank(0);
  ch.add_rank(1);
  constexpr int kProbe = 40;
  constexpr int kProbeAck = 41;
  ch.enable_delivery_receipt(kProbe, kProbeAck, /*echo_header=*/2);
  bool acked = false;
  eng.spawn("sender", [&] {
    auto m = make_msg(kProbe);
    m.header[2] = 777;
    ch.port(0).post_send(1, std::move(m));
    sim::Notifier n(eng);
    ch.port(0).set_wakeup(&n);
    netsim::Completion c;
    for (;;) {
      if (!ch.port(0).poll(c)) {
        n.wait();
        continue;
      }
      if (c.type == netsim::CqType::kRecv && c.msg.kind == kProbeAck) {
        EXPECT_EQ(c.msg.header[0], 777u);
        acked = true;
        return;
      }
    }
  });
  eng.spawn("receiver", [&] {
    sim::Notifier n(eng);
    ch.port(1).set_wakeup(&n);
    netsim::Completion c;
    while (!ch.port(1).poll(c)) n.wait();
    EXPECT_EQ(c.msg.kind, kProbe);
  });
  eng.run();
  EXPECT_TRUE(acked);
}

TEST(IpcChannel, ReceiptConfigValidated) {
  sim::Engine eng;
  gpu::MemoryRegistry reg;
  netsim::IpcChannel ch(eng, reg, netsim::IpcCostModel{});
  EXPECT_THROW(ch.enable_delivery_receipt(1, 2, 6), std::invalid_argument);
}

TEST(IpcChannel, UnknownRankRejected) {
  sim::Engine eng;
  gpu::MemoryRegistry reg;
  netsim::IpcChannel ch(eng, reg, netsim::IpcCostModel{});
  ch.add_rank(3);
  EXPECT_TRUE(ch.has_rank(3));
  EXPECT_FALSE(ch.has_rank(4));
  EXPECT_THROW(ch.port(4), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Fault injection at the channel (mirrors the fabric's FaultModel tests).
// ---------------------------------------------------------------------------

TEST(IpcFaults, CertainDropLosesSendButSenderStillCompletes) {
  sim::Engine eng;
  eng.seed_rng(42);
  gpu::MemoryRegistry reg;
  netsim::IpcChannel ch(eng, reg, netsim::IpcCostModel{});
  ch.add_rank(0);
  ch.add_rank(1);
  netsim::FaultSpec spec;
  spec.drop_send = 1.0;
  ch.faults().set_default(spec);
  int send_completes = 0;
  eng.spawn("sender", [&] {
    sim::Notifier n(eng);
    ch.port(0).set_wakeup(&n);
    for (int i = 0; i < 5; ++i) ch.port(0).post_send(1, make_msg(1, 7));
    netsim::Completion c;
    while (send_completes < 5) {
      while (!ch.port(0).poll(c)) n.wait();
      EXPECT_EQ(c.type, netsim::CqType::kSendComplete);
      ++send_completes;
    }
  });
  eng.run();
  EXPECT_EQ(send_completes, 5);
  netsim::Completion c;
  EXPECT_FALSE(ch.port(1).poll(c));  // nothing ever arrived
  EXPECT_EQ(ch.port(0).fault_counters().sends_dropped, 5u);
}

TEST(IpcFaults, CertainCopyFailureYieldsErrorCqeAndNoData) {
  sim::Engine eng;
  eng.seed_rng(42);
  gpu::MemoryRegistry reg;
  netsim::IpcChannel ch(eng, reg, netsim::IpcCostModel{});
  ch.add_rank(0);
  ch.add_rank(1);
  netsim::FaultSpec spec;
  spec.fail_write = 1.0;
  ch.faults().set_default(spec);
  std::vector<std::byte> src(256, std::byte{0xAB});
  std::vector<std::byte> dst(256, std::byte{0x00});
  bool got_error = false;
  eng.spawn("writer", [&] {
    sim::Notifier n(eng);
    ch.port(0).set_wakeup(&n);
    const std::uint64_t wr = ch.port(0).post_rdma_write(
        1, src.data(), dst.data(), src.size(), make_msg(4));
    netsim::Completion c;
    while (!ch.port(0).poll(c)) n.wait();
    EXPECT_EQ(c.type, netsim::CqType::kError);
    EXPECT_EQ(c.wr_id, wr);
    got_error = true;
  });
  eng.run();
  EXPECT_TRUE(got_error);
  EXPECT_EQ(dst[0], std::byte{0x00});  // no bytes landed
  netsim::Completion c;
  EXPECT_FALSE(ch.port(1).poll(c));    // no immediate delivered
  EXPECT_EQ(ch.port(0).fault_counters().writes_failed, 1u);
}

TEST(IpcFaults, ImmediateDropStillLandsData) {
  sim::Engine eng;
  eng.seed_rng(42);
  gpu::MemoryRegistry reg;
  netsim::IpcChannel ch(eng, reg, netsim::IpcCostModel{});
  ch.add_rank(0);
  ch.add_rank(1);
  netsim::FaultSpec spec;
  spec.drop_imm = 1.0;
  ch.faults().set_default(spec);
  std::vector<std::byte> src(64, std::byte{0x5C});
  std::vector<std::byte> dst(64, std::byte{0x00});
  eng.spawn("writer", [&] {
    sim::Notifier n(eng);
    ch.port(0).set_wakeup(&n);
    ch.port(0).post_rdma_write(1, src.data(), dst.data(), src.size(),
                               make_msg(4));
    netsim::Completion c;
    while (!ch.port(0).poll(c)) n.wait();
    EXPECT_EQ(c.type, netsim::CqType::kRdmaComplete);
  });
  eng.run();
  EXPECT_EQ(dst[0], std::byte{0x5C});  // copy happened
  netsim::Completion c;
  EXPECT_FALSE(ch.port(1).poll(c));    // fin never told
  EXPECT_EQ(ch.port(0).fault_counters().imms_dropped, 1u);
}

TEST(IpcFaults, JitterDelaysDeliveryWithinBound) {
  auto arrival_time = [](sim::SimTime jitter, std::uint64_t seed) {
    sim::Engine eng;
    eng.seed_rng(seed);
    gpu::MemoryRegistry reg;
    netsim::IpcChannel ch(eng, reg, netsim::IpcCostModel{});
    ch.add_rank(0);
    ch.add_rank(1);
    if (jitter > 0) {
      netsim::FaultSpec spec;
      spec.jitter_ns = jitter;
      ch.faults().set_default(spec);
    }
    sim::SimTime arrived = -1;
    eng.spawn("sender", [&] { ch.port(0).post_send(1, make_msg(1)); });
    eng.spawn("receiver", [&] {
      sim::Notifier n(eng);
      ch.port(1).set_wakeup(&n);
      netsim::Completion c;
      while (!ch.port(1).poll(c)) n.wait();
      arrived = eng.now();
    });
    eng.run();
    return arrived;
  };
  const sim::SimTime clean = arrival_time(0, 9);
  const sim::SimTime jittered = arrival_time(200'000, 9);
  ASSERT_GE(clean, 0);
  ASSERT_GE(jittered, 0);
  EXPECT_GE(jittered, clean);
  EXPECT_LE(jittered, clean + 200'000);
}

TEST(IpcFaults, DeliveryReceiptsRollTheirOwnDice) {
  // A drop rule on the receipt kind loses receipts without touching the
  // probe they acknowledge: the probe still arrives, no receipt ever does,
  // and the drop is charged to the receipt's sender (the receiving port).
  sim::Engine eng;
  eng.seed_rng(5);
  gpu::MemoryRegistry reg;
  netsim::IpcChannel ch(eng, reg, netsim::IpcCostModel{});
  ch.add_rank(0);
  ch.add_rank(1);
  constexpr int kProbe = 40;
  constexpr int kProbeAck = 41;
  ch.enable_delivery_receipt(kProbe, kProbeAck, /*echo_header=*/2);
  netsim::FaultSpec black_hole;
  black_hole.drop_send = 1.0;
  ch.faults().set_kind(kProbeAck, black_hole);
  bool probe_arrived = false;
  eng.spawn("sender", [&] { ch.port(0).post_send(1, make_msg(kProbe)); });
  eng.spawn("receiver", [&] {
    sim::Notifier n(eng);
    ch.port(1).set_wakeup(&n);
    netsim::Completion c;
    while (!ch.port(1).poll(c)) n.wait();
    EXPECT_EQ(c.msg.kind, kProbe);
    probe_arrived = true;
  });
  eng.run();
  EXPECT_TRUE(probe_arrived);
  // The sender's CQ holds only its own kSendComplete; the receipt never
  // arrived.
  netsim::Completion c;
  bool receipt_arrived = false;
  while (ch.port(0).poll(c)) {
    if (c.type == netsim::CqType::kRecv) receipt_arrived = true;
  }
  EXPECT_FALSE(receipt_arrived);
  EXPECT_EQ(ch.port(1).fault_counters().sends_dropped, 1u);
  EXPECT_EQ(ch.port(0).fault_counters().sends_dropped, 0u);
}

TEST(IpcFaults, PartialDropRateIsSeededDeterministic) {
  auto deliveries = [](std::uint64_t seed) {
    sim::Engine eng;
    eng.seed_rng(seed);
    gpu::MemoryRegistry reg;
    netsim::IpcChannel ch(eng, reg, netsim::IpcCostModel{});
    ch.add_rank(0);
    ch.add_rank(1);
    netsim::FaultSpec spec;
    spec.drop_send = 0.5;
    ch.faults().set_default(spec);
    eng.spawn("sender", [&] {
      for (int i = 0; i < 100; ++i) {
        ch.port(0).post_send(1, make_msg(1, std::uint64_t(i)));
      }
    });
    eng.run();
    std::vector<std::uint64_t> got;
    netsim::Completion c;
    while (ch.port(1).poll(c)) {
      if (c.type == netsim::CqType::kRecv) got.push_back(c.msg.header[0]);
    }
    return got;
  };
  const auto a = deliveries(1234);
  const auto b = deliveries(1234);
  const auto c = deliveries(99);
  EXPECT_EQ(a, b);            // same seed, same losses
  EXPECT_NE(a.size(), 100u);  // some were dropped
  EXPECT_FALSE(a.empty());    // some got through
  EXPECT_NE(a, c);            // different seed, different pattern
}
