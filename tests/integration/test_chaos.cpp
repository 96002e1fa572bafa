// The seeded chaos harness (docs/RELIABILITY.md, "Process faults and
// hang-free collectives"): rank crash-stop mid-collective, stall/skew
// injection, lossy IPC + fabric, and transport failover — asserting the
// cluster's core liveness contract on every axis: every surviving rank
// either completes or raises a clean RequestError within a bounded budget;
// nobody blocks forever.
//
// Buffers that back direct-mode receives are deliberately allocated in
// *test* scope, not fiber scope: a crashed rank's advertised landing zone
// may still be written by a peer's in-flight retransmission after the
// crashed fiber has unwound.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "mpi/cluster.hpp"
#include "mpi/coll.hpp"

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

// A rank's fate after a chaos run. `finished` distinguishes "reached the
// end of its body" (ok or clean error) from "crash-stopped mid-flight".
struct Outcome {
  bool finished = false;
  std::string error;  // empty: completed every operation
};

void fault_rendezvous_control(netsim::FaultModel& fm, double drop_send,
                              double drop_imm) {
  netsim::FaultSpec ctrl;
  ctrl.drop_send = drop_send;
  for (int kind : {core::kRts, core::kCts, core::kChunkAck, core::kSendDone,
                   core::kRtsAck, core::kSendDoneAck}) {
    fm.set_kind(kind, ctrl);
  }
  netsim::FaultSpec data;
  data.drop_imm = drop_imm;
  fm.set_kind(core::kChunkFin, data);
}

void expect_survivor_pools_quiesced(Cluster& cluster, int crashed_rank) {
  for (int r = 0; r < cluster.config().ranks; ++r) {
    if (r == crashed_rank) continue;  // a crash-stop abandons its checkouts
    EXPECT_EQ(cluster.vbuf_audit(r), "") << "rank " << r;
    EXPECT_EQ(cluster.vbufs_in_use(r), cluster.graveyard_slots(r))
        << "rank " << r;
  }
}

}  // namespace

TEST(Chaos, CrashedPeerDoesNotHangFlatAllreduce) {
  // Rank 3 crash-stops 2 ms in. Every survivor must exit its allreduce
  // loop with a bounded "aborted" RequestError — and the poisoned context
  // must fail later collectives immediately rather than risking a partial
  // reduction against reused tags.
  ClusterConfig cfg;
  cfg.ranks = 4;
  cfg.rng_seed = 5;
  cfg.tunables.rndv_timeout_ns = 200'000;
  cfg.tunables.rndv_max_retries = 3;
  cfg.crash_at = {{3, sim::SimTime{2'000'000}}};
  Cluster cluster(cfg);
  const int count = 32'768;
  std::vector<std::vector<double>> in(4), out(4);
  for (int r = 0; r < 4; ++r) {
    in[static_cast<std::size_t>(r)].assign(static_cast<std::size_t>(count),
                                           double(r + 1));
    out[static_cast<std::size_t>(r)].assign(static_cast<std::size_t>(count),
                                            0.0);
  }
  std::vector<Outcome> outcome(4);
  std::vector<std::string> poisoned(4);
  cluster.run([&](Context& ctx) {
    auto& me = outcome[static_cast<std::size_t>(ctx.rank)];
    try {
      for (int it = 0; it < 30; ++it) {
        ctx.comm.allreduce_sum(in[static_cast<std::size_t>(ctx.rank)].data(),
                               out[static_cast<std::size_t>(ctx.rank)].data(),
                               count);
      }
    } catch (const mpisim::RequestError& e) {
      me.error = e.what();
      // Once one collective aborted, later ones on the context must refuse
      // to start rather than exchange against desynchronized tags.
      try {
        ctx.comm.barrier();
      } catch (const mpisim::RequestError& p) {
        poisoned[static_cast<std::size_t>(ctx.rank)] = p.what();
      }
    }
    me.finished = true;
  });
  for (int r = 0; r < 3; ++r) {
    const auto& o = outcome[static_cast<std::size_t>(r)];
    EXPECT_TRUE(o.finished) << "rank " << r << " hung";
    EXPECT_NE(o.error.find("aborted"), std::string::npos)
        << "rank " << r << ": " << o.error;
    EXPECT_NE(poisoned[static_cast<std::size_t>(r)].find("poisoned"),
              std::string::npos)
        << "rank " << r << ": " << poisoned[static_cast<std::size_t>(r)];
  }
  EXPECT_FALSE(outcome[3].finished);  // crash-stop never reaches the end
  for (int r = 0; r < 3; ++r) {
    // One rank per node: nothing to split, every call ran flat.
    EXPECT_GT(cluster.coll_stats(r).allreduce.calls, 0u) << "rank " << r;
    EXPECT_EQ(cluster.coll_stats(r).allreduce.hier_calls, 0u) << "rank " << r;
  }
  expect_survivor_pools_quiesced(cluster, 3);
}

TEST(Chaos, CrashedColocatedPeerDoesNotHangHierAllreduce) {
  // The marquee hang: in the two-level allreduce, rank 1 dies while its
  // co-located leader (rank 0) is mid intra-node exchange over the IPC
  // channel. Without the COLL_ABORT wave + liveness watchdog, ranks 2/3
  // would block forever on the inter-node step waiting for a leader that
  // can never finish its node.
  ClusterConfig cfg = colocated(4, 2);
  cfg.rng_seed = 17;
  cfg.tunables.rndv_timeout_ns = 200'000;
  cfg.tunables.rndv_max_retries = 3;
  cfg.crash_at = {{1, sim::SimTime{2'000'000}}};
  Cluster cluster(cfg);
  const int count = 32'768;
  std::vector<std::vector<double>> in(4), out(4);
  for (int r = 0; r < 4; ++r) {
    in[static_cast<std::size_t>(r)].assign(static_cast<std::size_t>(count),
                                           double(r + 1));
    out[static_cast<std::size_t>(r)].assign(static_cast<std::size_t>(count),
                                            0.0);
  }
  std::vector<Outcome> outcome(4);
  cluster.run([&](Context& ctx) {
    auto& me = outcome[static_cast<std::size_t>(ctx.rank)];
    try {
      for (int it = 0; it < 30; ++it) {
        ctx.comm.allreduce_sum(in[static_cast<std::size_t>(ctx.rank)].data(),
                               out[static_cast<std::size_t>(ctx.rank)].data(),
                               count);
      }
    } catch (const mpisim::RequestError& e) {
      me.error = e.what();
    }
    EXPECT_EQ(ctx.cuda->open_ipc_handles(), 0u) << "rank " << ctx.rank;
    me.finished = true;
  });
  for (int r : {0, 2, 3}) {
    const auto& o = outcome[static_cast<std::size_t>(r)];
    EXPECT_TRUE(o.finished) << "rank " << r << " hung";
    EXPECT_NE(o.error.find("aborted"), std::string::npos)
        << "rank " << r << ": " << o.error;
    // 256 KB on two nodes of two: the rule runs the striped two-level
    // allreduce.
    EXPECT_GT(cluster.coll_stats(r).allreduce.hier_calls, 0u) << "rank " << r;
  }
  EXPECT_FALSE(outcome[1].finished);
  expect_survivor_pools_quiesced(cluster, 1);
}

TEST(Chaos, MatrixWithCrashTerminatesEverywhere) {
  // The fault matrix: rpn {1,2,4} x {64 KB, 1 MB} allreduce under lossy
  // fabric + lossy IPC + stall/skew injection, with rank 3 crash-stopping
  // early. Both sizes ride the rendezvous protocol, whose control plane the
  // faults target. At rpn 2 and 4 the selection rule runs 64 KB flat and
  // 1 MB two-level (asserted below), so both shapes meet the crash and the
  // faults. The assertion is liveness, not success: every surviving rank
  // finishes its body — completing or raising a clean RequestError — and
  // the run itself terminates (a hang would deadlock the simulation).
  constexpr int kFlatCount = 8'192;        // 64 KB
  constexpr int kTwoLevelCount = 131'072;  // 1 MB
  for (std::size_t rpn : {1u, 2u, 4u}) {
    for (const int count : {kFlatCount, kTwoLevelCount}) {
      const bool two_level = rpn > 1 && count == kTwoLevelCount;
      ClusterConfig cfg = colocated(4, rpn);
      cfg.rng_seed = 40 + rpn * 10 + (count == kTwoLevelCount ? 1 : 0);
      cfg.tunables.rndv_timeout_ns = 200'000;
      cfg.tunables.rndv_max_retries = 3;
      cfg.tunables.rank_skew_ns = 10'000;
      cfg.tunables.rank_stall_prob = 0.05;
      cfg.tunables.rank_stall_ns = 2'000;
      fault_rendezvous_control(cfg.faults, 0.02, 0.0);
      if (rpn > 1) fault_rendezvous_control(cfg.ipc_faults, 0.05, 0.0);
      cfg.crash_at = {{3, sim::SimTime{1'500'000}}};
      Cluster cluster(cfg);
      std::vector<std::vector<double>> in(4), out(4);
      for (int r = 0; r < 4; ++r) {
        in[static_cast<std::size_t>(r)].assign(static_cast<std::size_t>(count),
                                               double(r));
        out[static_cast<std::size_t>(r)].assign(
            static_cast<std::size_t>(count), 0.0);
      }
      // Enough calls at either size that the crash lands mid-loop.
      const int iters = count == kFlatCount ? 60 : 10;
      std::vector<Outcome> outcome(4);
      cluster.run([&](Context& ctx) {
        auto& me = outcome[static_cast<std::size_t>(ctx.rank)];
        try {
          for (int it = 0; it < iters; ++it) {
            ctx.comm.allreduce_sum(
                in[static_cast<std::size_t>(ctx.rank)].data(),
                out[static_cast<std::size_t>(ctx.rank)].data(), count);
          }
          ctx.comm.barrier();
        } catch (const mpisim::RequestError& e) {
          me.error = e.what();
          EXPECT_FALSE(me.error.empty());
        }
        EXPECT_EQ(ctx.cuda->open_ipc_handles(), 0u);
        me.finished = true;
      });
      for (int r = 0; r < 3; ++r) {
        const auto& o = outcome[static_cast<std::size_t>(r)];
        EXPECT_TRUE(o.finished)
            << "rpn=" << rpn << " count=" << count << " rank " << r
            << " hung";
        // The crash met the collective loop: no survivor ran to the end.
        EXPECT_NE(o.error.find("aborted"), std::string::npos)
            << "rpn=" << rpn << " count=" << count << " rank " << r << ": "
            << o.error;
        const auto& ar = cluster.coll_stats(r).allreduce;
        EXPECT_GT(ar.calls, 0u);
        EXPECT_EQ(ar.hier_calls, two_level ? ar.calls : 0u)
            << "rpn=" << rpn << " count=" << count << " rank " << r;
      }
      expect_survivor_pools_quiesced(cluster, 3);
      std::uint64_t fabric_faults = 0;
      std::uint64_t ipc_faults = 0;
      for (int r = 0; r < 4; ++r) {
        const Cluster::FaultStats fs = cluster.fault_stats(r);
        fabric_faults += fs.fabric.total();
        ipc_faults += fs.ipc.total();
      }
      // Every cell exercised the fault plane; co-located cells their IPC
      // channel's too.
      EXPECT_GT(fabric_faults + ipc_faults, 0u)
          << "rpn=" << rpn << " count=" << count;
      if (rpn > 1) {
        EXPECT_GT(ipc_faults, 0u) << "rpn=" << rpn << " count=" << count;
      }
    }
  }
}

TEST(Chaos, LossyMatrixCompletesWithCorrectResults) {
  // No crashes, generous retry budget: under lossy IPC + fabric control
  // planes, stalls and start skew, the mixed workload (device ring p2p +
  // allreduce + barrier) must fully COMPLETE on every rank with correct
  // reductions — chaos that stays within the retransmit budget is invisible
  // to the application. 64 KB runs the flat allreduce, 1 MB the two-level
  // one (asserted below).
  constexpr int kFlatCount = 8'192;
  constexpr int kTwoLevelCount = 131'072;
  for (std::size_t rpn : {2u, 4u}) {
    for (const int count : {kFlatCount, kTwoLevelCount}) {
      for (std::uint64_t seed : {1u, 2u}) {
        ClusterConfig cfg = colocated(4, rpn);
        cfg.rng_seed = 1000 + rpn * 100 + seed +
                       (count == kTwoLevelCount ? 10 : 0);
        cfg.tunables.rndv_timeout_ns = 200'000;
        cfg.tunables.rndv_max_retries = 25;
        cfg.tunables.rank_skew_ns = 10'000;
        cfg.tunables.rank_stall_prob = 0.05;
        cfg.tunables.rank_stall_ns = 2'000;
        fault_rendezvous_control(cfg.faults, 0.02, 0.0);
        fault_rendezvous_control(cfg.ipc_faults, 0.04, 0.02);
        Cluster cluster(cfg);
        std::vector<std::vector<double>> in(4), out(4);
        for (int r = 0; r < 4; ++r) {
          auto& v = in[static_cast<std::size_t>(r)];
          v.resize(static_cast<std::size_t>(count));
          for (int i = 0; i < count; ++i) {
            v[static_cast<std::size_t>(i)] = r * 3 + i % 5;
          }
          out[static_cast<std::size_t>(r)].assign(
              static_cast<std::size_t>(count), 0.0);
        }
        std::vector<Outcome> outcome(4);
        cluster.run([&](Context& ctx) {
          auto& me = outcome[static_cast<std::size_t>(ctx.rank)];
          auto byte_t = committed(Datatype::byte());
          const int n = 1 << 17;
          auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(n));
          try {
            for (int it = 0; it < 2; ++it) {
              const int right = (ctx.rank + 1) % 4;
              const int left = (ctx.rank + 3) % 4;
              auto s = ctx.comm.isend(dev, n, byte_t, right, 10 + it);
              ctx.comm.recv(dev, n, byte_t, left, 10 + it);
              ctx.comm.wait(s, nullptr);
              ctx.comm.allreduce_sum(
                  in[static_cast<std::size_t>(ctx.rank)].data(),
                  out[static_cast<std::size_t>(ctx.rank)].data(), count);
              ctx.comm.barrier();
            }
          } catch (const mpisim::RequestError& e) {
            me.error = e.what();
          }
          EXPECT_EQ(ctx.cuda->open_ipc_handles(), 0u) << "rank " << ctx.rank;
          ctx.cuda->free(dev);
          me.finished = true;
        });
        std::uint64_t faults = 0;
        for (int r = 0; r < 4; ++r) {
          const auto& o = outcome[static_cast<std::size_t>(r)];
          EXPECT_TRUE(o.finished) << "rank " << r << " hung";
          EXPECT_EQ(o.error, "") << "rank " << r;
          for (int i = 0; i < count; i += 971) {
            EXPECT_EQ(out[static_cast<std::size_t>(r)][static_cast<std::size_t>(
                          i)],
                      double(4 * (i % 5) + 18))
                << "rank " << r << " elem " << i;
          }
          EXPECT_EQ(cluster.vbuf_audit(r), "") << "rank " << r;
          EXPECT_EQ(cluster.vbufs_in_use(r), cluster.graveyard_slots(r));
          const auto& ar = cluster.coll_stats(r).allreduce;
          EXPECT_EQ(ar.hier_calls, count == kTwoLevelCount ? ar.calls : 0u)
              << "rank " << r;
          const Cluster::FaultStats fs = cluster.fault_stats(r);
          faults += fs.fabric.total() + fs.ipc.total();
        }
        EXPECT_GT(faults, 0u) << "rpn=" << rpn << " count=" << count
                              << " seed=" << seed;
      }
    }
  }
}

TEST(Chaos, FailoverDemotesPersistentlyFailingIpcPeerToFabric) {
  // The channel permanently swallows peer-copy fins, so every IPC-routed
  // rendezvous between the co-located pair fails. After two consecutive
  // failures the router must demote 0<->1 to the fabric — where transfers
  // succeed — and the failover table must surface the event.
  ClusterConfig cfg = colocated(2, 2);
  cfg.rng_seed = 7;
  cfg.tunables.rndv_timeout_ns = 200'000;
  cfg.tunables.rndv_max_retries = 3;
  cfg.tunables.transport_failover_threshold = 2;
  cfg.tunables.transport_restore_threshold = 100;  // stay demoted
  netsim::FaultSpec swallow;
  swallow.drop_imm = 1.0;
  cfg.ipc_faults.set_kind(core::kChunkFin, swallow);
  Cluster cluster(cfg);
  int failures = 0;
  int successes = 0;
  cluster.run([&](Context& ctx) {
    auto byte_t = committed(Datatype::byte());
    const int n = 1 << 18;
    auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(n));
    for (int it = 0; it < 4; ++it) {
      try {
        if (ctx.rank == 0) {
          ctx.comm.send(dev, n, byte_t, 1, it);
          ++successes;
        } else {
          ctx.comm.recv(dev, n, byte_t, 0, it);
        }
      } catch (const mpisim::RequestError&) {
        if (ctx.rank == 0) ++failures;
      }
    }
    EXPECT_EQ(ctx.cuda->open_ipc_handles(), 0u) << "rank " << ctx.rank;
    ctx.cuda->free(dev);
  });
  EXPECT_EQ(failures, 2);   // exactly until the demotion threshold
  EXPECT_EQ(successes, 2);  // everything after it rode the fabric
  const core::PeerHealth& h01 = cluster.router(0).peer_health().at(1);
  EXPECT_EQ(h01.demotions, 1u);
  EXPECT_TRUE(h01.demoted);
  const core::PeerHealth& h10 = cluster.router(1).peer_health().at(0);
  EXPECT_EQ(h10.demotions, 1u);
  EXPECT_GT(cluster.fault_stats(0).ipc.total() +
                cluster.fault_stats(1).ipc.total(),
            0u);
  std::ostringstream os;
  cluster.print_stats(os);
  EXPECT_NE(os.str().find("ipc-faults"), std::string::npos);
  EXPECT_NE(os.str().find("demoted-now"), std::string::npos);
}

TEST(Chaos, FailoverRestoresAfterChannelHeals) {
  // Hysteresis round trip at cluster level: demote onto the fabric while
  // the channel is sick, heal the channel mid-run, earn the restore with
  // two clean transfers, and end re-routed over IPC.
  ClusterConfig cfg = colocated(2, 2);
  cfg.rng_seed = 23;
  cfg.tunables.rndv_timeout_ns = 200'000;
  cfg.tunables.rndv_max_retries = 3;
  cfg.tunables.transport_failover_threshold = 2;
  cfg.tunables.transport_restore_threshold = 2;
  netsim::FaultSpec swallow;
  swallow.drop_imm = 1.0;
  cfg.ipc_faults.set_kind(core::kChunkFin, swallow);
  Cluster cluster(cfg);
  int late_failures = 0;
  cluster.run([&](Context& ctx) {
    auto byte_t = committed(Datatype::byte());
    const int n = 1 << 18;
    auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(n));
    for (int it = 0; it < 2; ++it) {  // two failures: demoted
      try {
        if (ctx.rank == 0) ctx.comm.send(dev, n, byte_t, 1, it);
        else ctx.comm.recv(dev, n, byte_t, 0, it);
      } catch (const mpisim::RequestError&) {
      }
    }
    ctx.comm.barrier();  // eager traffic: unaffected by the chunk-fin fault
    if (ctx.rank == 0) cluster.ipc_channel(0)->faults().clear();
    ctx.comm.barrier();
    for (int it = 2; it < 5; ++it) {  // 2 on fabric earn restore, 1 on IPC
      try {
        if (ctx.rank == 0) ctx.comm.send(dev, n, byte_t, 1, it);
        else ctx.comm.recv(dev, n, byte_t, 0, it);
      } catch (const mpisim::RequestError&) {
        ++late_failures;
      }
    }
    ctx.cuda->free(dev);
  });
  EXPECT_EQ(late_failures, 0);
  const core::PeerHealth& h01 = cluster.router(0).peer_health().at(1);
  EXPECT_EQ(h01.demotions, 1u);
  EXPECT_EQ(h01.restores, 1u);
  EXPECT_FALSE(h01.demoted);
  const core::PeerHealth& h10 = cluster.router(1).peer_health().at(0);
  EXPECT_EQ(h10.restores, 1u);
  EXPECT_FALSE(h10.demoted);
}

TEST(Chaos, AdaptiveRoutingSurvivesLossyFatTree) {
  // The PR-7 fault matrix, pointed at the congestion machinery: seeded
  // drops + jitter on every rendezvous control kind over an oversubscribed
  // fat tree, with adaptive routing AND ECN feedback armed. Retransmitted
  // fins may take different uplinks than their originals and re-marked
  // acks may echo stale congestion — none of that may corrupt data, leak
  // vbufs, or hang a rank.
  ClusterConfig cfg;
  cfg.ranks = 8;
  cfg.rng_seed = 11;
  cfg.topology = netsim::FabricTopology::fat_tree(4, 2.0);
  cfg.tunables.route_select = netsim::RouteSelect::kAdaptive;
  cfg.tunables.ecn_backlog_ns = 20'000;
  cfg.tunables.chunk_select = core::ChunkSelect::kFixed;
  cfg.tunables.rndv_timeout_ns = 400'000;
  cfg.tunables.rndv_max_retries = 12;
  fault_rendezvous_control(cfg.faults, /*drop_send=*/0.05, /*drop_imm=*/0.05);
  Cluster cluster(cfg);
  const int n = 1 << 19;  // 8 chunks: enough fins to meet the fault matrix
  std::vector<Outcome> outcome(8);
  std::vector<std::size_t> mismatches(8, 0);
  cluster.run([&](Context& ctx) {
    auto& me = outcome[static_cast<std::size_t>(ctx.rank)];
    auto byte_t = committed(Datatype::byte());
    // Cross-leaf pairwise exchange (rank XOR 4 lives on the other leaf),
    // so every transfer's chunks cross the shared uplinks.
    const int peer = ctx.rank ^ 4;
    auto* dev = static_cast<std::byte*>(
        ctx.cuda->malloc(static_cast<std::size_t>(n)));
    auto* rxd = static_cast<std::byte*>(
        ctx.cuda->malloc(static_cast<std::size_t>(n)));
    std::vector<std::byte> host(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < host.size(); ++i) {
      host[i] = static_cast<std::byte>((i * 13 + ctx.rank * 7) & 0xFF);
    }
    ctx.cuda->memcpy(dev, host.data(), host.size());
    ctx.cuda->memset(rxd, 0, static_cast<std::size_t>(n));
    try {
      mpisim::Request rs = ctx.comm.isend(dev, n, byte_t, peer, 5);
      mpisim::Request rr = ctx.comm.irecv(rxd, n, byte_t, peer, 5);
      ctx.comm.wait(rr);
      ctx.comm.wait(rs);
      std::vector<std::byte> out(static_cast<std::size_t>(n));
      ctx.cuda->memcpy(out.data(), rxd, out.size());
      for (std::size_t i = 0; i < out.size(); i += 2099) {
        const auto want = static_cast<std::byte>((i * 13 + peer * 7) & 0xFF);
        if (out[i] != want) ++mismatches[static_cast<std::size_t>(ctx.rank)];
      }
    } catch (const mpisim::RequestError& e) {
      me.error = e.what();
    }
    ctx.cuda->free(dev);
    ctx.cuda->free(rxd);
    me.finished = true;
  });
  std::uint64_t faults = 0;
  for (int r = 0; r < 8; ++r) {
    const auto& o = outcome[static_cast<std::size_t>(r)];
    EXPECT_TRUE(o.finished) << "rank " << r << " hung";
    if (o.error.empty()) {
      EXPECT_EQ(mismatches[static_cast<std::size_t>(r)], 0u) << "rank " << r;
    }
    faults += cluster.fault_stats(r).fabric.total();
  }
  EXPECT_GT(faults, 0u);  // the matrix actually fired
  expect_survivor_pools_quiesced(cluster, /*crashed_rank=*/-1);
}
