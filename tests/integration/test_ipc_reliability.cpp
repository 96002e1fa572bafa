// Reliability guarantees over the intra-node IPC transport: the same
// retransmit/backoff/abort behaviour PR 2 established over the fabric must
// hold when the lossy wire is the node-local channel — byte-identical
// delivery under seeded loss, sender SEND_ABORT propagation, receiver
// force-drain after sender silence, per-pair delivery jitter, and clean
// CUDA-IPC mapping accounting on every failure path.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
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

// Same invariant the fabric reliability suite asserts: vbuf books balance
// and anything still checked out is parked in the graveyard.
void expect_pools_quiesced(Cluster& cluster) {
  for (int r = 0; r < cluster.config().ranks; ++r) {
    EXPECT_EQ(cluster.vbuf_audit(r), "") << "rank " << r;
    EXPECT_EQ(cluster.vbufs_in_use(r), cluster.graveyard_slots(r))
        << "rank " << r;
  }
}

// Mirror of the fabric suite's helper, applied to the channel's model:
// drop rendezvous control messages, swallow/fail chunk-fin immediates.
void fault_rendezvous_control(netsim::FaultModel& fm, double drop_send,
                              double drop_imm, double fail_write) {
  netsim::FaultSpec ctrl;
  ctrl.drop_send = drop_send;
  for (int kind : {core::kRts, core::kCts, core::kChunkAck, core::kSendDone,
                   core::kRtsAck, core::kSendDoneAck, core::kSendAbort}) {
    fm.set_kind(kind, ctrl);
  }
  netsim::FaultSpec data;
  data.drop_imm = drop_imm;
  data.fail_write = fail_write;
  fm.set_kind(core::kChunkFin, data);
}

}  // namespace

TEST(IpcReliability, LossyChannelSoakDeliversByteIdentical) {
  // A pipelined strided device-to-device transfer between co-located ranks
  // whose channel drops 5% of rendezvous control messages, fails 1% of
  // peer copies and jitters every delivery — the payload must still arrive
  // byte-identical, recovered entirely by the IPC-side retransmit path.
  ClusterConfig cfg = colocated(2, 2);
  cfg.rng_seed = 2025;
  cfg.tunables.rndv_timeout_ns = 200'000;
  cfg.tunables.rndv_max_retries = 25;
  fault_rendezvous_control(cfg.ipc_faults, /*drop_send=*/0.05,
                           /*drop_imm=*/0.05, /*fail_write=*/0.01);
  netsim::FaultSpec jitter;
  jitter.jitter_ns = 2'000;
  cfg.ipc_faults.set_kind(core::kEager, jitter);
  Cluster cluster(cfg);
  const int rows = 1 << 18;  // 1 MB packed
  std::size_t mismatches = 0;
  cluster.run([&](Context& ctx) {
    auto col = committed(Datatype::vector(rows, 1, 2, Datatype::float32()));
    const std::size_t span = static_cast<std::size_t>(rows) * 8 + 16;
    auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(span));
    if (ctx.rank == 0) {
      std::vector<std::byte> host(span);
      for (std::size_t i = 0; i < span; ++i) {
        host[i] = static_cast<std::byte>((i * 131 + 7) & 0xFF);
      }
      ctx.cuda->memcpy(dev, host.data(), span);
      ctx.comm.send(dev, 1, col, 1, 0);
    } else {
      ctx.cuda->memset(dev, 0, span);
      ctx.comm.recv(dev, 1, col, 0, 0);
      std::vector<std::byte> out(span);
      ctx.cuda->memcpy(out.data(), dev, span);
      for (int r = 0; r < rows; ++r) {
        const std::size_t off = static_cast<std::size_t>(r) * 8;
        for (std::size_t b = 0; b < 4; ++b) {
          if (out[off + b] !=
              static_cast<std::byte>(((off + b) * 131 + 7) & 0xFF)) {
            ++mismatches;
          }
        }
      }
    }
    ctx.comm.barrier();
    EXPECT_EQ(ctx.cuda->open_ipc_handles(), 0u);
    ctx.cuda->free(dev);
  });
  expect_pools_quiesced(cluster);
  EXPECT_EQ(mismatches, 0u);
  // Faults fired on the channel, none on the (untouched) fabric, and the
  // per-rank split surfaces them on the IPC side.
  std::uint64_t ipc_faults = 0;
  std::uint64_t retx = 0;
  for (int r = 0; r < 2; ++r) {
    const Cluster::FaultStats fs = cluster.fault_stats(r);
    EXPECT_EQ(fs.fabric.total(), 0u) << "rank " << r;
    ipc_faults += fs.ipc.total();
    EXPECT_EQ(cluster.rank_stats(r).ipc_faults_injected, fs.ipc.total());
    retx += cluster.retry_stats(r).total_retransmits();
  }
  EXPECT_GT(ipc_faults, 0u);
  EXPECT_GT(retx, 0u);
  EXPECT_EQ(cluster.retry_stats(0).transfer_failures, 0u);
  EXPECT_EQ(cluster.retry_stats(1).transfer_failures, 0u);
}

TEST(IpcReliability, SenderAbortPropagatesOverIpc) {
  // Every peer-copy fin immediate is swallowed on the channel, so the
  // sender exhausts its budget with the rendezvous established. Exactly as
  // over the fabric, the SEND_ABORT must fail the matched receive as a
  // bounded RequestError — and every CUDA-IPC mapping the device transfer
  // opened must be closed again on the failure path.
  ClusterConfig cfg = colocated(2, 2);
  cfg.rng_seed = 13;
  cfg.tunables.rndv_timeout_ns = 200'000;
  cfg.tunables.rndv_max_retries = 3;
  netsim::FaultSpec swallow;
  swallow.drop_imm = 1.0;
  cfg.ipc_faults.set_kind(core::kChunkFin, swallow);
  Cluster cluster(cfg);
  bool sender_threw = false;
  bool receiver_threw = false;
  std::string receiver_what;
  sim::SimTime receiver_failed_at = 0;
  cluster.run([&](Context& ctx) {
    const int n = 1 << 20;
    auto byte_t = committed(Datatype::byte());
    auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(n));
    try {
      if (ctx.rank == 0) {
        ctx.comm.send(dev, n, byte_t, 1, 0);
      } else {
        ctx.comm.recv(dev, n, byte_t, 0, 0);
      }
    } catch (const mpisim::RequestError& e) {
      if (ctx.rank == 0) {
        sender_threw = true;
      } else {
        receiver_threw = true;
        receiver_what = e.what();
        receiver_failed_at = ctx.engine->now();
      }
    }
    EXPECT_EQ(ctx.cuda->open_ipc_handles(), 0u) << "rank " << ctx.rank;
    ctx.cuda->free(dev);
  });
  expect_pools_quiesced(cluster);
  EXPECT_TRUE(sender_threw);
  EXPECT_TRUE(receiver_threw);
  EXPECT_NE(receiver_what.find("abort"), std::string::npos);
  EXPECT_LE(receiver_failed_at, sim::SimTime{10'000'000});
  EXPECT_EQ(cluster.retry_stats(0).transfer_failures, 1u);
  EXPECT_EQ(cluster.retry_stats(1).transfer_failures, 1u);
}

TEST(IpcReliability, ForceDrainCompletesDirectReceiverOverIpc) {
  // Every SEND_DONE on the channel is swallowed: the direct-mode sender
  // stops retransmitting once its budget is out (data fully acked — not a
  // failure), and the receiver's watchdog force-drains, completing the
  // request with the payload it verifiably holds.
  ClusterConfig cfg = colocated(2, 2);
  cfg.rng_seed = 31;
  cfg.tunables.rndv_timeout_ns = 200'000;
  cfg.tunables.rndv_max_retries = 4;
  netsim::FaultSpec black_hole;
  black_hole.drop_send = 1.0;
  cfg.ipc_faults.set_kind(core::kSendDone, black_hole);
  Cluster cluster(cfg);
  std::size_t mismatches = 0;
  cluster.run([&](Context& ctx) {
    const int n = 1 << 20;
    auto byte_t = committed(Datatype::byte());
    std::vector<std::byte> buf(static_cast<std::size_t>(n));
    if (ctx.rank == 0) {
      for (int i = 0; i < n; ++i) {
        buf[static_cast<std::size_t>(i)] =
            static_cast<std::byte>((i * 11 + 2) & 0xFF);
      }
      ctx.comm.send(buf.data(), n, byte_t, 1, 0);
    } else {
      ctx.comm.recv(buf.data(), n, byte_t, 0, 0);
      for (int i = 0; i < n; i += 523) {
        if (buf[static_cast<std::size_t>(i)] !=
            static_cast<std::byte>((i * 11 + 2) & 0xFF)) {
          ++mismatches;
        }
      }
    }
  });
  expect_pools_quiesced(cluster);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(cluster.retry_stats(1).force_drains, 0u);
  EXPECT_EQ(cluster.retry_stats(0).transfer_failures, 0u);
  EXPECT_EQ(cluster.retry_stats(1).transfer_failures, 0u);
  EXPECT_EQ(cluster.tracked_rendezvous(1), 0u);
  EXPECT_GT(cluster.fault_stats(1).ipc.sends_dropped +
                cluster.fault_stats(0).ipc.sends_dropped,
            0u);
}

TEST(IpcReliability, PerPairJitterSlowsDeliveryDeterministically) {
  // Per-pair jitter on in-node delivery: the same workload on the same
  // seed finishes later with a jittered 0->1 edge than without, and two
  // jittered runs on one seed finish at the identical virtual time.
  auto run_once = [](sim::SimTime jitter_ns) {
    ClusterConfig cfg = colocated(2, 2);
    cfg.rng_seed = 77;
    if (jitter_ns > 0) {
      netsim::FaultSpec spec;
      spec.jitter_ns = jitter_ns;
      cfg.ipc_faults.set_pair(0, 1, spec);
    }
    Cluster cluster(cfg);
    cluster.run([](Context& ctx) {
      auto byte_t = committed(Datatype::byte());
      const int n = 1 << 19;
      auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(n));
      for (int it = 0; it < 3; ++it) {
        if (ctx.rank == 0) ctx.comm.send(dev, n, byte_t, 1, it);
        else ctx.comm.recv(dev, n, byte_t, 0, it);
      }
      ctx.comm.barrier();
      ctx.cuda->free(dev);
    });
    return cluster.elapsed();
  };
  const sim::SimTime clean = run_once(0);
  const sim::SimTime jittered_a = run_once(100'000);
  const sim::SimTime jittered_b = run_once(100'000);
  EXPECT_GT(clean, 0);
  EXPECT_GT(jittered_a, clean);        // the jitter cost is visible
  EXPECT_EQ(jittered_a, jittered_b);   // and seeded-deterministic
}
