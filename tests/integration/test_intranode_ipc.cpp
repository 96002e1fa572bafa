// Intra-node GPU-IPC transport, end to end: co-located ranks exchange
// device payloads over peer copies without touching the HCA, forced-fabric
// mode disables the fast path, mixed topologies route per peer, and
// wildcard receives match across transports — including under fabric-side
// fault injection.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "mpi/cluster.hpp"

namespace mpisim = mv2gnc::mpisim;
namespace netsim = mv2gnc::netsim;
namespace core = mv2gnc::core;
namespace sim = mv2gnc::sim;
using mpisim::Cluster;
using mpisim::ClusterConfig;
using mpisim::Context;
using mpisim::Datatype;

namespace {

Datatype committed(Datatype t) {
  t.commit();
  return t;
}

ClusterConfig colocated(int ranks, std::size_t rpn) {
  ClusterConfig cfg;
  cfg.ranks = ranks;
  cfg.tunables.ranks_per_node = rpn;
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// Transport selection and routing.
// ---------------------------------------------------------------------------

TEST(IntranodeTopology, BlockedPlacementAndPerPeerRoutes) {
  Cluster cluster(colocated(4, 2));
  EXPECT_EQ(cluster.node_of(0), 0);
  EXPECT_EQ(cluster.node_of(1), 0);
  EXPECT_EQ(cluster.node_of(2), 1);
  EXPECT_EQ(cluster.node_of(3), 1);
  // Co-located peers are device-direct; cross-node peers are not.
  EXPECT_TRUE(cluster.router(0).device_direct(1));
  EXPECT_FALSE(cluster.router(0).device_direct(2));
  EXPECT_TRUE(cluster.router(2).device_direct(3));
  EXPECT_FALSE(cluster.router(3).device_direct(1));
  // Two transports bound per rank: the fabric fallback plus the node's IPC.
  EXPECT_EQ(cluster.router(0).transports().size(), 2u);
}

TEST(IntranodeTopology, DefaultTopologyHasNoIpcTransport) {
  Cluster cluster(ClusterConfig{.ranks = 4});
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(cluster.router(r).transports().size(), 1u);
    for (int p = 0; p < 4; ++p) {
      EXPECT_FALSE(cluster.router(r).device_direct(p));
    }
  }
}

TEST(IntranodeTopology, ForcedFabricDisablesFastPath) {
  ClusterConfig cfg = colocated(2, 2);
  cfg.tunables.transport_select = core::TransportSelect::kFabric;
  Cluster cluster(cfg);
  EXPECT_FALSE(cluster.router(0).device_direct(1));
  EXPECT_EQ(cluster.router(0).transports().size(), 1u);
}

// ---------------------------------------------------------------------------
// Payload integrity over the IPC fast path.
// ---------------------------------------------------------------------------

struct IpcShape {
  int count, blocklen, stride, elements;
  bool on_device;
};

class IntranodeTransfer : public ::testing::TestWithParam<IpcShape> {};

TEST_P(IntranodeTransfer, ArrivesBitExactWithoutTouchingTheHca) {
  const IpcShape p = GetParam();
  Cluster cluster(colocated(2, 2));
  cluster.run([&](Context& ctx) {
    auto t = committed(
        Datatype::vector(p.count, p.blocklen, p.stride, Datatype::int32()));
    const std::size_t span =
        static_cast<std::size_t>(t.extent()) * p.elements + 64;
    std::vector<std::byte> init(span);
    for (std::size_t i = 0; i < span; ++i) {
      init[i] = static_cast<std::byte>((i * 31 + 7) & 0xFF);
    }
    std::vector<std::byte> host_buf;
    std::byte* buf;
    if (p.on_device) {
      buf = static_cast<std::byte*>(ctx.cuda->malloc(span));
    } else {
      host_buf.resize(span);
      buf = host_buf.data();
    }
    if (ctx.rank == 0) {
      if (p.on_device) ctx.cuda->memcpy(buf, init.data(), span);
      else std::memcpy(buf, init.data(), span);
      ctx.comm.send(buf, p.elements, t, 1, 0);
    } else {
      if (p.on_device) ctx.cuda->memset(buf, 0, span);
      else std::memset(buf, 0, span);
      ctx.comm.recv(buf, p.elements, t, 0, 0);
      std::vector<std::byte> got(span);
      if (p.on_device) ctx.cuda->memcpy(got.data(), buf, span);
      else std::memcpy(got.data(), buf, span);
      for (int e = 0; e < p.elements; ++e) {
        for (const auto& seg : t.segments()) {
          const std::size_t off =
              static_cast<std::size_t>(e) * t.extent() + seg.offset;
          ASSERT_EQ(
              std::memcmp(got.data() + off, init.data() + off, seg.length),
              0)
              << "element " << e;
        }
      }
    }
    ctx.comm.barrier();
    // Every IPC mapping the rendezvous path opened must be closed again.
    EXPECT_EQ(ctx.cuda->open_ipc_handles(), 0u);
    if (p.on_device) ctx.cuda->free(buf);
  });
  // The payload moved over the node's IPC channel, not the HCA.
  std::uint64_t fabric_bytes = 0, ipc_bytes = 0;
  for (int r = 0; r < 2; ++r) {
    const mpisim::RankStats s = cluster.rank_stats(r);
    fabric_bytes += s.bytes_sent;
    ipc_bytes += s.ipc_bytes_sent;
  }
  EXPECT_EQ(fabric_bytes, 0u);
  EXPECT_GT(ipc_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IntranodeTransfer,
    ::testing::Values(
        // eager-sized, both residencies
        IpcShape{16, 1, 2, 1, true}, IpcShape{16, 1, 2, 1, false},
        // rendezvous contiguous device: the direct user-buffer landing
        IpcShape{50000, 4, 4, 1, true},
        // rendezvous non-contiguous device: pack -> peer copy -> unpack,
        // single chunk and pipelined multi-chunk
        IpcShape{5000, 1, 3, 1, true}, IpcShape{60000, 1, 2, 1, true},
        IpcShape{9000, 4, 9, 3, true},
        // host rendezvous over the channel (shared-memory path)
        IpcShape{60000, 1, 2, 1, false}));

// Mixed residency across one node: device sender into a host receiver and
// vice versa still routes over the channel (PCIe-staged peer copy).
TEST(IntranodeTransfer, MixedResidencyAcrossTheChannel) {
  Cluster cluster(colocated(2, 2));
  cluster.run([](Context& ctx) {
    auto ints = committed(Datatype::int32());
    const int n = 40000;
    if (ctx.rank == 0) {
      auto* dev = static_cast<int*>(ctx.cuda->malloc(n * sizeof(int)));
      std::vector<int> host(n);
      std::iota(host.begin(), host.end(), 100);
      ctx.cuda->memcpy(dev, host.data(), n * sizeof(int));
      ctx.comm.send(dev, n, ints, 1, 0);
      std::vector<int> back(n, -1);
      ctx.comm.recv(back.data(), n, ints, 1, 1);
      EXPECT_EQ(back[0], 7);
      EXPECT_EQ(back[n - 1], 7);
      ctx.cuda->free(dev);
    } else {
      std::vector<int> host(n, -1);
      ctx.comm.recv(host.data(), n, ints, 0, 0);
      EXPECT_EQ(host[0], 100);
      EXPECT_EQ(host[n - 1], 100 + n - 1);
      auto* dev = static_cast<int*>(ctx.cuda->malloc(n * sizeof(int)));
      std::vector<int> fill(n, 7);
      ctx.cuda->memcpy(dev, fill.data(), n * sizeof(int));
      ctx.comm.send(dev, n, ints, 0, 1);
      ctx.cuda->free(dev);
    }
  });
}

// Forcing the fabric must deliver the same bytes — just over the HCA.
TEST(IntranodeTransfer, ForcedFabricDeliversSamePayload) {
  ClusterConfig cfg = colocated(2, 2);
  cfg.tunables.transport_select = core::TransportSelect::kFabric;
  Cluster cluster(cfg);
  cluster.run([](Context& ctx) {
    auto col = committed(Datatype::vector(20000, 1, 3, Datatype::int32()));
    const std::size_t span = static_cast<std::size_t>(col.extent()) + 64;
    auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(span));
    if (ctx.rank == 0) {
      std::vector<std::byte> init(span, std::byte{0x3C});
      ctx.cuda->memcpy(dev, init.data(), span);
      ctx.comm.send(dev, 1, col, 1, 0);
    } else {
      ctx.cuda->memset(dev, 0, span);
      ctx.comm.recv(dev, 1, col, 0, 0);
      std::vector<std::byte> got(span);
      ctx.cuda->memcpy(got.data(), dev, span);
      EXPECT_EQ(got[0], std::byte{0x3C});
    }
    ctx.cuda->free(dev);
  });
  std::uint64_t fabric_bytes = 0, ipc_bytes = 0;
  for (int r = 0; r < 2; ++r) {
    const mpisim::RankStats s = cluster.rank_stats(r);
    fabric_bytes += s.bytes_sent;
    ipc_bytes += s.ipc_bytes_sent;
  }
  EXPECT_GT(fabric_bytes, 0u);
  EXPECT_EQ(ipc_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Mixed transports in one job: intra-node and cross-node traffic at once.
// ---------------------------------------------------------------------------

TEST(MixedTransports, RingAcrossTwoNodesIsBitExact) {
  // 4 ranks, 2 per node: the ring alternates IPC hops (0->1, 2->3) and
  // fabric hops (1->2, 3->0).
  Cluster cluster(colocated(4, 2));
  cluster.run([](Context& ctx) {
    auto ints = committed(Datatype::int32());
    const int n = 50'000;
    auto* out = static_cast<int*>(ctx.cuda->malloc(n * sizeof(int)));
    auto* in = static_cast<int*>(ctx.cuda->malloc(n * sizeof(int)));
    std::vector<int> host(n, ctx.rank);
    ctx.cuda->memcpy(out, host.data(), n * sizeof(int));
    const int next = (ctx.rank + 1) % ctx.size;
    const int prev = (ctx.rank + ctx.size - 1) % ctx.size;
    auto r = ctx.comm.irecv(in, n, ints, prev, 0);
    ctx.comm.send(out, n, ints, next, 0);
    ctx.comm.wait(r);
    ctx.cuda->memcpy(host.data(), in, n * sizeof(int));
    EXPECT_EQ(host[0], prev);
    EXPECT_EQ(host[n - 1], prev);
    ctx.cuda->free(out);
    ctx.cuda->free(in);
  });
  // Both transports carried payload.
  std::uint64_t fabric_bytes = 0, ipc_bytes = 0;
  for (int r = 0; r < 4; ++r) {
    const mpisim::RankStats s = cluster.rank_stats(r);
    fabric_bytes += s.bytes_sent;
    ipc_bytes += s.ipc_bytes_sent;
  }
  EXPECT_GT(fabric_bytes, 0u);
  EXPECT_GT(ipc_bytes, 0u);
}

// Wildcard matching across transports: an intra-node sender and a
// cross-node sender race into the same kAnySource/kAnyTag receives; both
// payloads must arrive bit-exact, with the fabric leg running under fault
// injection (drops + write failures) while the IPC leg stays lossless.
TEST(MixedTransports, AnySourceMatchesAcrossTransportsUnderFaults) {
  ClusterConfig cfg = colocated(3, 2);  // ranks 0,1 on node 0; rank 2 alone
  netsim::FaultSpec lossy;
  lossy.drop_send = 0.05;
  lossy.drop_imm = 0.05;
  lossy.fail_write = 0.02;
  cfg.faults.set_default(lossy);
  cfg.rng_seed = 99;
  Cluster cluster(cfg);
  ASSERT_TRUE(cluster.router(0).device_direct(1));
  ASSERT_FALSE(cluster.router(0).device_direct(2));
  cluster.run([](Context& ctx) {
    auto ints = committed(Datatype::int32());
    const int n = 30'000;
    if (ctx.rank == 0) {
      // Two wildcard receives; the senders race over different transports.
      std::vector<int> a(n, -1), b(n, -1);
      mpisim::Status st_a, st_b;
      auto ra = ctx.comm.irecv(a.data(), n, ints, mpisim::kAnySource,
                               mpisim::kAnyTag);
      auto rb = ctx.comm.irecv(b.data(), n, ints, mpisim::kAnySource,
                               mpisim::kAnyTag);
      ctx.comm.wait(ra, &st_a);
      ctx.comm.wait(rb, &st_b);
      // One message from each sender, whatever the arrival order.
      EXPECT_NE(st_a.source, st_b.source);
      const std::pair<mpisim::Status, const std::vector<int>*> got[] = {
          {st_a, &a}, {st_b, &b}};
      for (const auto& [st, buf] : got) {
        EXPECT_TRUE(st.source == 1 || st.source == 2);
        EXPECT_EQ((*buf)[0], st.source * 1000);
        EXPECT_EQ((*buf)[n - 1], st.source * 1000);
      }
    } else {
      // Device-resident payload on both senders: rank 1 goes over the IPC
      // channel, rank 2 over the faulty fabric.
      auto* dev = static_cast<int*>(ctx.cuda->malloc(n * sizeof(int)));
      std::vector<int> host(n, ctx.rank * 1000);
      ctx.cuda->memcpy(dev, host.data(), n * sizeof(int));
      ctx.comm.send(dev, n, ints, 0, ctx.rank);
      ctx.cuda->free(dev);
    }
    ctx.comm.barrier();
  });
  // The fault model actually fired on the fabric leg.
  std::uint64_t faults = 0;
  for (int r = 0; r < 3; ++r) faults += cluster.rank_stats(r).faults_injected;
  EXPECT_GT(faults, 0u);
}

// ---------------------------------------------------------------------------
// Determinism and performance of the fast path.
// ---------------------------------------------------------------------------

TEST(IntranodePerf, IpcBeatsForcedFabricOnDeviceRendezvous) {
  auto run_once = [](core::TransportSelect select) {
    ClusterConfig cfg = colocated(2, 2);
    cfg.tunables.transport_select = select;
    Cluster cluster(cfg);
    cluster.run([](Context& ctx) {
      auto col = committed(Datatype::vector(60000, 1, 2, Datatype::int32()));
      const std::size_t span = static_cast<std::size_t>(col.extent()) + 64;
      auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(span));
      if (ctx.rank == 0) ctx.comm.send(dev, 1, col, 1, 0);
      else ctx.comm.recv(dev, 1, col, 0, 0);
      ctx.cuda->free(dev);
    });
    return cluster.elapsed();
  };
  const sim::SimTime ipc = run_once(core::TransportSelect::kAuto);
  const sim::SimTime fabric = run_once(core::TransportSelect::kFabric);
  EXPECT_LT(ipc, fabric);
}

TEST(IntranodeDeterminism, IdenticalVirtualTimesAcrossRuns) {
  auto run_once = [] {
    Cluster cluster(colocated(4, 2));
    sim::SimTime done = 0;
    cluster.run([&](Context& ctx) {
      auto bytes = committed(Datatype::byte());
      const std::size_t n = 200 * 1024;
      auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(n));
      const int next = (ctx.rank + 1) % ctx.size;
      const int prev = (ctx.rank + ctx.size - 1) % ctx.size;
      for (int it = 0; it < 3; ++it) {
        auto r = ctx.comm.irecv(dev, static_cast<int>(n), bytes, prev, it);
        ctx.comm.send(dev, static_cast<int>(n), bytes, next, it);
        ctx.comm.wait(r);
      }
      ctx.comm.barrier();
      if (ctx.rank == 0) done = ctx.engine->now();
      ctx.cuda->free(dev);
    });
    return done;
  };
  const sim::SimTime a = run_once();
  const sim::SimTime b = run_once();
  EXPECT_GT(a, 0);
  EXPECT_EQ(a, b);
}

// Collectives over a mixed topology: correctness is transport-agnostic.
TEST(MixedTransports, AllreduceOverMixedTopology) {
  Cluster cluster(colocated(4, 2));
  cluster.run([](Context& ctx) {
    std::vector<double> v(1024, ctx.rank + 1.0);
    std::vector<double> out(1024, 0.0);
    ctx.comm.allreduce_sum(v.data(), out.data(), 1024);
    EXPECT_DOUBLE_EQ(out[0], 1.0 + 2.0 + 3.0 + 4.0);
    EXPECT_DOUBLE_EQ(out[1023], 10.0);
  });
}
