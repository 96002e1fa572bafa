// Device-buffer collectives (docs/COLLECTIVES.md, "Device-resident
// buffers"): the staged and sliced-pipeline schedules must be byte-exact
// with the host path across the placement / algorithm matrix,
// survive the lossy fault matrix, return every staging slot, and stay
// hang-free when a rank crash-stops mid-pipeline. No tunable picks the
// schedule; each test reaches it through its inputs (message size,
// buffer residency, gpu_offload) and asserts which one ran.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "mpi/cluster.hpp"
#include "mpi/coll.hpp"
#include "support/coll_access.hpp"

namespace netsim = mv2gnc::netsim;
namespace mpisim = mv2gnc::mpisim;
namespace sim = mv2gnc::sim;
using mpisim::Cluster;
using mpisim::ClusterConfig;
using mpisim::Context;
using mpisim::Datatype;
using mpisim::detail::CollAccess;
using mpisim::detail::CollForce;
using mpisim::detail::CollOpStats;
using mpisim::detail::CollShape;

namespace {

// Large enough that the cost model pipelines every device collective below
// and cuts at least 3 slices per call on every placement (the flat group
// and the two-level stripe alike), with a remainder against every node
// size and slice cut so the ragged-edge paths run too.
constexpr int kCount = 300'007;       // doubles per allreduce (2.4 MB)
constexpr int kBcastCount = 600'011;  // int32 per bcast (2.4 MB)
constexpr int kBlock = 300'007;       // bytes per allgather block
constexpr std::uint64_t kMinSlices = 3;

// `gpu_offload = false` is the staged baseline (the PCIe ablation); with
// the default `true` the cost model picks the pipeline at these sizes.
ClusterConfig matrix_config(int ranks, int rpn, bool gpu_offload) {
  ClusterConfig cfg;
  cfg.ranks = ranks;
  cfg.tunables.ranks_per_node = static_cast<std::size_t>(rpn);
  cfg.tunables.gpu_offload = gpu_offload;
  return cfg;
}

std::vector<double> seed_vector(int rank, int count) {
  std::vector<double> v(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    v[static_cast<std::size_t>(i)] =
        static_cast<double>(rank + 1) * static_cast<double>(i % 29 - 14);
  }
  return v;
}

void expect_pools_quiesced(Cluster& cluster) {
  for (int r = 0; r < cluster.config().ranks; ++r) {
    EXPECT_EQ(cluster.vbuf_audit(r), "") << "rank " << r;
    EXPECT_EQ(cluster.vbufs_in_use(r), cluster.graveyard_slots(r))
        << "rank " << r;
  }
}

// How a run picks the flat-vs-two-level shape: forced through the
// engine's CollForce argument, or by the public operation's rule (the
// empty force).
enum class Sel { kFlat, kHier, kAuto };

CollForce forced(Sel sel) {
  if (sel == Sel::kAuto) return {};
  return {sel == Sel::kFlat ? CollShape::kFlat : CollShape::kTwoLevel};
}

// Every rank's result plus the schedule census of the one collective call.
template <typename T>
struct Run {
  std::vector<std::vector<T>> out;
  std::uint64_t device_calls = 0;  // summed over ranks
  std::uint64_t pipelined = 0;     // summed over ranks
  std::uint64_t hier_calls = 0;    // summed over ranks
  std::uint64_t min_slices = 0;    // fewest slices any rank cut
};

template <typename T>
void census(Run<T>& run, Cluster& cluster,
            const CollOpStats mpisim::detail::CollStats::*op) {
  run.min_slices = std::numeric_limits<std::uint64_t>::max();
  for (int r = 0; r < cluster.config().ranks; ++r) {
    const CollOpStats& s = cluster.coll_stats(r).*op;
    run.device_calls += s.device_calls;
    run.pipelined += s.device_pipelined;
    run.hier_calls += s.hier_calls;
    run.min_slices = std::min(run.min_slices, s.device_slices);
  }
}

// The census of a run every rank took on the staged schedule ...
template <typename T>
void expect_staged(const Run<T>& run, int ranks, const std::string& what) {
  EXPECT_EQ(run.device_calls, static_cast<std::uint64_t>(ranks)) << what;
  EXPECT_EQ(run.pipelined, 0u) << what;
}

// ... and of one every rank took on the pipeline, `slices` or more per call.
template <typename T>
void expect_pipelined(const Run<T>& run, int ranks, const std::string& what,
                      std::uint64_t slices = kMinSlices) {
  EXPECT_EQ(run.device_calls, static_cast<std::uint64_t>(ranks)) << what;
  EXPECT_EQ(run.pipelined, static_cast<std::uint64_t>(ranks)) << what;
  EXPECT_GE(run.min_slices, slices) << what;
}

// One allreduce_sum of `count` doubles over the given config; device = true
// stages the operands through registered device memory.
Run<double> run_allreduce(const ClusterConfig& cfg, bool device,
                          int count = kCount, Sel sel = Sel::kAuto) {
  Run<double> run;
  run.out.assign(static_cast<std::size_t>(cfg.ranks),
                 std::vector<double>(static_cast<std::size_t>(count)));
  Cluster cluster(cfg);
  cluster.run([&](Context& ctx) {
    const std::vector<double> in = seed_vector(ctx.rank, count);
    std::vector<double>& res = run.out[static_cast<std::size_t>(ctx.rank)];
    const std::size_t bytes = sizeof(double) * static_cast<std::size_t>(count);
    auto allreduce = [&](const double* a, double* b) {
      CollAccess::engine(ctx.comm).allreduce_doubles(
          a, b, count, false, CollAccess::group(ctx.comm), forced(sel));
    };
    if (device) {
      auto* din = static_cast<double*>(ctx.cuda->malloc(bytes));
      auto* dout = static_cast<double*>(ctx.cuda->malloc(bytes));
      ctx.cuda->memcpy(din, in.data(), bytes);
      allreduce(din, dout);
      ctx.cuda->memcpy(res.data(), dout, bytes);
      ctx.cuda->free(din);
      ctx.cuda->free(dout);
    } else {
      allreduce(in.data(), res.data());
    }
  });
  expect_pools_quiesced(cluster);
  census(run, cluster, &mpisim::detail::CollStats::allreduce);
  return run;
}

Run<std::int32_t> run_bcast(const ClusterConfig& cfg, bool device, int root,
                            Sel sel = Sel::kAuto) {
  Run<std::int32_t> run;
  run.out.assign(static_cast<std::size_t>(cfg.ranks),
                 std::vector<std::int32_t>(
                     static_cast<std::size_t>(kBcastCount)));
  Cluster cluster(cfg);
  cluster.run([&](Context& ctx) {
    std::vector<std::int32_t>& buf = run.out[static_cast<std::size_t>(ctx.rank)];
    if (ctx.rank == root) {
      for (int i = 0; i < kBcastCount; ++i) {
        buf[static_cast<std::size_t>(i)] = i * 7 - 3;
      }
    }
    auto dt = Datatype::int32();
    dt.commit();
    const std::size_t bytes = sizeof(std::int32_t) * kBcastCount;
    auto bcast = [&](std::int32_t* b) {
      CollAccess::engine(ctx.comm).bcast(b, kBcastCount, dt, root,
                                         CollAccess::group(ctx.comm),
                                         forced(sel));
    };
    if (device) {
      auto* dbuf = static_cast<std::int32_t*>(ctx.cuda->malloc(bytes));
      ctx.cuda->memcpy(dbuf, buf.data(), bytes);
      bcast(dbuf);
      ctx.cuda->memcpy(buf.data(), dbuf, bytes);
      ctx.cuda->free(dbuf);
    } else {
      bcast(buf.data());
    }
  });
  expect_pools_quiesced(cluster);
  census(run, cluster, &mpisim::detail::CollStats::bcast);
  return run;
}

Run<std::byte> run_allgather(const ClusterConfig& cfg, bool device,
                             Sel sel = Sel::kAuto) {
  const std::size_t total =
      static_cast<std::size_t>(kBlock) * static_cast<std::size_t>(cfg.ranks);
  Run<std::byte> run;
  run.out.assign(static_cast<std::size_t>(cfg.ranks),
                 std::vector<std::byte>(total));
  Cluster cluster(cfg);
  cluster.run([&](Context& ctx) {
    std::vector<std::byte> in(static_cast<std::size_t>(kBlock));
    for (int i = 0; i < kBlock; ++i) {
      in[static_cast<std::size_t>(i)] =
          static_cast<std::byte>((ctx.rank * 37 + i) & 0xff);
    }
    auto dt = Datatype::byte();
    dt.commit();
    std::vector<std::byte>& res = run.out[static_cast<std::size_t>(ctx.rank)];
    auto allgather = [&](const std::byte* a, std::byte* b) {
      CollAccess::engine(ctx.comm).allgather(
          a, kBlock, dt, b, CollAccess::group(ctx.comm), forced(sel));
    };
    if (device) {
      auto* din = static_cast<std::byte*>(ctx.cuda->malloc(in.size()));
      auto* dout = static_cast<std::byte*>(ctx.cuda->malloc(total));
      ctx.cuda->memcpy(din, in.data(), in.size());
      allgather(din, dout);
      ctx.cuda->memcpy(res.data(), dout, total);
      ctx.cuda->free(din);
      ctx.cuda->free(dout);
    } else {
      allgather(in.data(), res.data());
    }
  });
  expect_pools_quiesced(cluster);
  census(run, cluster, &mpisim::detail::CollStats::allgather);
  return run;
}

}  // namespace

// ---------------------------------------------------------------------------
// Byte-compare matrix: host == device-staged == device-pipelined across
// rpn x shape (forced flat, forced two-level, the rule).
// ---------------------------------------------------------------------------

struct MatrixCase {
  int rpn;
  Sel sel;
};

std::string matrix_name(const MatrixCase& mc) {
  return "rpn" + std::to_string(mc.rpn) +
         (mc.sel == Sel::kFlat   ? "_flat"
          : mc.sel == Sel::kHier ? "_hier"
                                 : "_auto");
}

// Test discovery copies gtest's printout of the parameter into the ctest
// names; print only the name, so the names do not depend on the layout.
void PrintTo(const MatrixCase& mc, std::ostream* os) {
  *os << matrix_name(mc);
}

// The forced shapes must actually run: two-level wherever a node holds
// two or more ranks, flat everywhere else.
template <typename T>
void expect_shape(const Run<T>& run, const MatrixCase& mc,
                  const std::string& what) {
  if (mc.sel == Sel::kFlat || mc.rpn == 1) {
    EXPECT_EQ(run.hier_calls, 0u) << what;
  } else if (mc.sel == Sel::kHier) {
    EXPECT_EQ(run.hier_calls, 8u) << what;
  }
}

class CollDeviceMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(CollDeviceMatrix, AllreduceBitExactAcrossSchedules) {
  const MatrixCase& mc = GetParam();
  const auto host = run_allreduce(matrix_config(8, mc.rpn, true),
                                  /*device=*/false, kCount, mc.sel);
  const auto staged = run_allreduce(matrix_config(8, mc.rpn, false),
                                    /*device=*/true, kCount, mc.sel);
  const auto piped = run_allreduce(matrix_config(8, mc.rpn, true),
                                   /*device=*/true, kCount, mc.sel);
  EXPECT_EQ(host.device_calls, 0u);
  expect_staged(staged, 8, "gpu_offload = false");
  expect_pipelined(piped, 8, "default tunables");
  expect_shape(host, mc, "host");
  expect_shape(staged, mc, "staged");
  expect_shape(piped, mc, "pipelined");
  for (int r = 0; r < 8; ++r) {
    const auto& h = host.out[static_cast<std::size_t>(r)];
    EXPECT_EQ(0, std::memcmp(h.data(),
                             staged.out[static_cast<std::size_t>(r)].data(),
                             h.size() * sizeof(double)))
        << "staged diverges at rank " << r;
    EXPECT_EQ(0, std::memcmp(h.data(),
                             piped.out[static_cast<std::size_t>(r)].data(),
                             h.size() * sizeof(double)))
        << "pipelined diverges at rank " << r;
  }
}

TEST_P(CollDeviceMatrix, BcastAndAllgatherBitExactAcrossSchedules) {
  const MatrixCase& mc = GetParam();
  const auto mk = [&](bool gpu_offload) {
    return matrix_config(8, mc.rpn, gpu_offload);
  };
  const auto bhost = run_bcast(mk(true), false, 2, mc.sel);
  const auto bstaged = run_bcast(mk(false), true, 2, mc.sel);
  const auto bpiped = run_bcast(mk(true), true, 2, mc.sel);
  const auto ghost = run_allgather(mk(true), false, mc.sel);
  const auto gstaged = run_allgather(mk(false), true, mc.sel);
  const auto gpiped = run_allgather(mk(true), true, mc.sel);
  for (const auto* r : {&bhost, &bstaged, &bpiped}) {
    expect_shape(*r, mc, "bcast");
  }
  for (const auto* r : {&ghost, &gstaged, &gpiped}) {
    expect_shape(*r, mc, "allgather");
  }
  expect_staged(bstaged, 8, "bcast, gpu_offload = false");
  expect_pipelined(bpiped, 8, "bcast, default tunables");
  expect_staged(gstaged, 8, "allgather, gpu_offload = false");
  // The allgather pipeline cuts no model slices (its two-level form rides
  // the rendezvous' own chunking), so only the schedule is checked.
  expect_pipelined(gpiped, 8, "allgather, default tunables", 0);
  for (int r = 0; r < 8; ++r) {
    const std::size_t ri = static_cast<std::size_t>(r);
    EXPECT_EQ(bhost.out[ri], bstaged.out[ri]) << "staged bcast, rank " << r;
    EXPECT_EQ(bhost.out[ri], bpiped.out[ri]) << "pipelined bcast, rank " << r;
    EXPECT_EQ(0, std::memcmp(ghost.out[ri].data(), gstaged.out[ri].data(),
                             ghost.out[ri].size()))
        << "staged allgather, rank " << r;
    EXPECT_EQ(0, std::memcmp(ghost.out[ri].data(), gpiped.out[ri].data(),
                             ghost.out[ri].size()))
        << "pipelined allgather, rank " << r;
  }
}

// A vector one double past 2 MB: whatever slice the price picks (16 KB to
// 2 MB), the last slice holds one double, fewer than a node's members, so
// the two-level loop leaves that slice's other pieces empty.
TEST_P(CollDeviceMatrix, AllreduceShortLastSliceBitExact) {
  const MatrixCase& mc = GetParam();
  constexpr int kShortTail = (2 << 20) / static_cast<int>(sizeof(double)) + 1;
  const auto host = run_allreduce(matrix_config(8, mc.rpn, true),
                                  /*device=*/false, kShortTail, mc.sel);
  const auto piped = run_allreduce(matrix_config(8, mc.rpn, true),
                                   /*device=*/true, kShortTail, mc.sel);
  expect_pipelined(piped, 8, "2 MB + 8 B", 2);
  expect_shape(piped, mc, "2 MB + 8 B");
  EXPECT_EQ(host.out, piped.out);
}

INSTANTIATE_TEST_SUITE_P(
    Placements, CollDeviceMatrix,
    ::testing::Values(
        MatrixCase{1, Sel::kFlat}, MatrixCase{1, Sel::kAuto},
        MatrixCase{2, Sel::kFlat}, MatrixCase{2, Sel::kHier},
        MatrixCase{2, Sel::kAuto}, MatrixCase{4, Sel::kFlat},
        MatrixCase{4, Sel::kHier}, MatrixCase{4, Sel::kAuto}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      return matrix_name(info.param);
    });

// A non-power-of-two group exercises the pre/post pairing of the sliced
// wire leg.
TEST(CollDevice, NonPowerOfTwoGroupBitExact) {
  const auto host = run_allreduce(matrix_config(6, 2, true), false);
  const auto piped = run_allreduce(matrix_config(6, 2, true), true);
  expect_pipelined(piped, 6, "6 ranks");
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(0, std::memcmp(host.out[static_cast<std::size_t>(r)].data(),
                             piped.out[static_cast<std::size_t>(r)].data(),
                             sizeof(double) * kCount))
        << "rank " << r;
  }
}

// The schedule follows the message size under default tunables: on 8
// ranks at one per node a 1 MB device allreduce is pipelined, an 8 KB one
// is staged (the staged call is about twice as fast there; at 64 KB the two
// schedules run within 2 % of each other). Both still agree with the host
// result.
TEST(CollDevice, DefaultTunablesPickScheduleByMessageSize) {
  ClusterConfig cfg;
  cfg.ranks = 8;
  constexpr int kMiB = (1 << 20) / static_cast<int>(sizeof(double));
  constexpr int k8KiB = (8 << 10) / static_cast<int>(sizeof(double));
  const auto big_host = run_allreduce(cfg, false, kMiB);
  const auto big = run_allreduce(cfg, true, kMiB);
  const auto small_host = run_allreduce(cfg, false, k8KiB);
  const auto small = run_allreduce(cfg, true, k8KiB);
  expect_pipelined(big, 8, "1 MB", 1);
  expect_staged(small, 8, "8 KB");
  EXPECT_EQ(big.out, big_host.out);
  EXPECT_EQ(small.out, small_host.out);
}

// The cost model prices the short last slice (and its PCIe legs) at its
// own size, so 256 KB + 8 B on 8 ranks at 2 per node pipelines as 256 KB
// does.
TEST(CollDevice, DefaultPipelinesJustPastSliceMultiple) {
  constexpr int kCount256K = (256 << 10) / static_cast<int>(sizeof(double));
  const ClusterConfig cfg = matrix_config(8, 2, true);
  const auto host = run_allreduce(cfg, false, kCount256K + 1);
  const auto at = run_allreduce(cfg, true, kCount256K);
  const auto past = run_allreduce(cfg, true, kCount256K + 1);
  expect_pipelined(at, 8, "256 KB", 1);
  expect_pipelined(past, 8, "256 KB + 8 B", 1);
  EXPECT_EQ(past.out, host.out);
}

// Mixed residency (device send buffer, host recv buffer) must still agree
// with the host result — it rides the staged schedule's wire leg.
TEST(CollDevice, MixedResidencyFallsBackToStaged) {
  ClusterConfig cfg = matrix_config(4, 2, true);
  std::vector<std::vector<double>> out(
      4, std::vector<double>(static_cast<std::size_t>(kCount)));
  Cluster cluster(cfg);
  cluster.run([&](Context& ctx) {
    const std::vector<double> in = seed_vector(ctx.rank, kCount);
    const std::size_t bytes = sizeof(double) * kCount;
    auto* din = static_cast<double*>(ctx.cuda->malloc(bytes));
    ctx.cuda->memcpy(din, in.data(), bytes);
    ctx.comm.allreduce_sum(din, out[static_cast<std::size_t>(ctx.rank)].data(),
                           kCount);
    ctx.cuda->free(din);
  });
  const auto host = run_allreduce(cfg, false);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(0, std::memcmp(host.out[static_cast<std::size_t>(r)].data(),
                             out[static_cast<std::size_t>(r)].data(),
                             sizeof(double) * kCount))
        << "rank " << r;
  }
  // Pipelined never engaged although the size favors it: the recv side
  // lives on the host.
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(cluster.coll_stats(r).allreduce.device_pipelined, 0u)
        << "rank " << r;
    EXPECT_GT(cluster.coll_stats(r).allreduce.device_calls, 0u)
        << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

TEST(CollDevice, PipelinedCountersAndPeerBytes) {
  ClusterConfig cfg = matrix_config(8, 2, true);
  Cluster cluster(cfg);
  cluster.run([&](Context& ctx) {
    const std::vector<double> in = seed_vector(ctx.rank, kCount);
    const std::size_t bytes = sizeof(double) * kCount;
    auto* din = static_cast<double*>(ctx.cuda->malloc(bytes));
    auto* dout = static_cast<double*>(ctx.cuda->malloc(bytes));
    ctx.cuda->memcpy(din, in.data(), bytes);
    ctx.comm.allreduce_sum(din, dout, kCount);
    ctx.cuda->free(din);
    ctx.cuda->free(dout);
  });
  for (int r = 0; r < 8; ++r) {
    const auto& ar = cluster.coll_stats(r).allreduce;
    EXPECT_EQ(ar.device_calls, 1u) << "rank " << r;
    EXPECT_EQ(ar.device_pipelined, 1u) << "rank " << r;
    EXPECT_EQ(ar.hier_calls, 1u) << "rank " << r;
    EXPECT_GE(ar.device_slices, kMinSlices) << "rank " << r;
    EXPECT_GT(ar.reduce_kernels, 0u) << "rank " << r;
    // Two-level at rpn 2: the intra rings exchanged device pointers over the
    // device-direct IPC peer path; the fabric stripe staged across PCIe.
    EXPECT_GT(ar.bytes_peer, 0u) << "rank " << r;
    EXPECT_GT(ar.bytes_staged, 0u) << "rank " << r;
    EXPECT_GT(ar.device_elapsed_ns, 0) << "rank " << r;
  }
}

// The two-level pipeline runs each slice's intra-node exchanges while
// other slices cross the fabric: on 4 ranks at 2 per node a 4 MB call
// takes less virtual time than rank 0's IPC port and NIC are busy during
// it, which only their overlap allows.
TEST(CollDevice, TwoLevelOverlapsIpcWithFabric) {
  constexpr int k4MiB = (4 << 20) / static_cast<int>(sizeof(double));
  Cluster cluster(matrix_config(4, 2, true));
  sim::SimTime elapsed = 0;
  cluster.run([&](Context& ctx) {
    const std::vector<double> in = seed_vector(ctx.rank, k4MiB);
    const std::size_t bytes = sizeof(double) * k4MiB;
    auto* din = static_cast<double*>(ctx.cuda->malloc(bytes));
    auto* dout = static_cast<double*>(ctx.cuda->malloc(bytes));
    ctx.cuda->memcpy(din, in.data(), bytes);
    const sim::SimTime t0 = ctx.now();
    ctx.comm.allreduce_sum(din, dout, k4MiB);
    if (ctx.rank == 0) elapsed = ctx.now() - t0;
    ctx.cuda->free(din);
    ctx.cuda->free(dout);
  });
  const auto& ar = cluster.coll_stats(0).allreduce;
  EXPECT_EQ(ar.device_pipelined, 1u);
  EXPECT_EQ(ar.hier_calls, 1u);
  // The call is the only traffic of the run.
  const mpisim::RankStats st = cluster.rank_stats(0);
  EXPECT_GT(st.ipc_busy, 0);
  EXPECT_GT(st.nic_busy, 0);
  EXPECT_LT(elapsed, st.ipc_busy + st.nic_busy)
      << "ipc " << st.ipc_busy << " ns, nic " << st.nic_busy << " ns";
}

// On two nodes every stripe has two members, where one full-piece exchange
// and a fold deferred to the write-back stream price below Rabenseifner's
// two: each slice of a 1 MB call on 4 ranks at 2 per node crosses the
// fabric in one rendezvous per rank. A rank's RTS census counts its IPC
// rendezvous too, one peer copy each, so the fabric's are the difference.
TEST(CollDevice, TwoNodeStripeLegIsOneExchange) {
  constexpr int kMiB = (1 << 20) / static_cast<int>(sizeof(double));
  const ClusterConfig cfg = matrix_config(4, 2, true);
  const auto host = run_allreduce(cfg, false, kMiB);
  Cluster cluster(cfg);
  std::vector<std::vector<double>> out(
      4, std::vector<double>(static_cast<std::size_t>(kMiB)));
  cluster.run([&](Context& ctx) {
    const std::vector<double> in = seed_vector(ctx.rank, kMiB);
    const std::size_t bytes = sizeof(double) * kMiB;
    auto* din = static_cast<double*>(ctx.cuda->malloc(bytes));
    auto* dout = static_cast<double*>(ctx.cuda->malloc(bytes));
    ctx.cuda->memcpy(din, in.data(), bytes);
    ctx.comm.allreduce_sum(din, dout, kMiB);
    ctx.cuda->memcpy(out[static_cast<std::size_t>(ctx.rank)].data(), dout,
                     bytes);
    ctx.cuda->free(din);
    ctx.cuda->free(dout);
  });
  expect_pools_quiesced(cluster);
  for (int r = 0; r < 4; ++r) {
    const CollOpStats& ar = cluster.coll_stats(r).allreduce;
    EXPECT_EQ(ar.device_pipelined, 1u) << "rank " << r;
    EXPECT_EQ(ar.hier_calls, 1u) << "rank " << r;
    EXPECT_GE(ar.device_slices, 2u) << "rank " << r;
    const mpisim::RankStats st = cluster.rank_stats(r);
    const std::uint64_t rts = st.sched.ctrl_by_kind[mv2gnc::core::kRts];
    ASSERT_GE(rts, st.ipc_copies) << "rank " << r;
    EXPECT_EQ(rts - st.ipc_copies, ar.device_slices) << "rank " << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)],
              host.out[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Trivial calls: nothing to pipeline.
// ---------------------------------------------------------------------------

// A one-rank group and a call of count 0 have no wire leg: each device
// body returns before any slice. On one rank an out-of-place allreduce and
// an allgather copy the input into place and a bcast leaves the buffer as
// it is; with count 0 no byte of the receive buffer moves. Each op counts
// one device call on every rank, none of them pipelined.
TEST(CollDevice, OneRankAndEmptyCallsBypassThePipeline) {
  auto expect_unpipelined_calls = [](Cluster& cluster) {
    for (int r = 0; r < cluster.config().ranks; ++r) {
      const mpisim::detail::CollStats& st = cluster.coll_stats(r);
      for (const CollOpStats* op : {&st.allreduce, &st.bcast, &st.allgather}) {
        EXPECT_EQ(op->device_calls, 1u) << "rank " << r;
        EXPECT_EQ(op->device_pipelined, 0u) << "rank " << r;
      }
    }
    expect_pools_quiesced(cluster);
  };
  {
    constexpr int kDoubles = 100'000;
    constexpr int kBytes = 300'000;
    const std::vector<double> in = seed_vector(0, kDoubles);
    std::vector<std::byte> blob(kBytes);
    for (int i = 0; i < kBytes; ++i) {
      blob[static_cast<std::size_t>(i)] = static_cast<std::byte>(i * 13 + 5);
    }
    std::vector<double> reduced(in.size());
    std::vector<std::byte> bcasted(blob.size());
    std::vector<std::byte> gathered(blob.size());
    ClusterConfig cfg;
    cfg.ranks = 1;
    Cluster cluster(cfg);
    cluster.run([&](Context& ctx) {
      auto dt = Datatype::byte();
      dt.commit();
      const std::size_t bytes = sizeof(double) * kDoubles;
      auto* din = static_cast<double*>(ctx.cuda->malloc(bytes));
      auto* dout = static_cast<double*>(ctx.cuda->malloc(bytes));
      ctx.cuda->memcpy(din, in.data(), bytes);
      ctx.comm.allreduce_sum(din, dout, kDoubles);
      ctx.cuda->memcpy(reduced.data(), dout, bytes);
      void* dbuf = ctx.cuda->malloc(kBytes);
      void* dall = ctx.cuda->malloc(kBytes);
      ctx.cuda->memcpy(dbuf, blob.data(), kBytes);
      ctx.comm.bcast(dbuf, kBytes, dt, 0);
      ctx.cuda->memcpy(bcasted.data(), dbuf, kBytes);
      ctx.comm.allgather(dbuf, kBytes, dt, dall);
      ctx.cuda->memcpy(gathered.data(), dall, kBytes);
      for (void* p : {static_cast<void*>(din), static_cast<void*>(dout), dbuf,
                      dall}) {
        ctx.cuda->free(p);
      }
    });
    EXPECT_EQ(0, std::memcmp(reduced.data(), in.data(),
                             sizeof(double) * in.size()));
    EXPECT_EQ(bcasted, blob);
    EXPECT_EQ(gathered, blob);
    expect_unpipelined_calls(cluster);
  }
  {
    // Every receive buffer starts as a sentinel that no op may touch.
    constexpr std::size_t kSpan = 256;
    const std::vector<std::byte> sentinel(kSpan, std::byte{0xa5});
    std::vector<std::vector<std::byte>> after(2 * 3);
    ClusterConfig cfg;
    cfg.ranks = 2;
    Cluster cluster(cfg);
    cluster.run([&](Context& ctx) {
      auto dt = Datatype::byte();
      dt.commit();
      void* din = ctx.cuda->malloc(kSpan);
      void* dout = ctx.cuda->malloc(kSpan);
      ctx.cuda->memcpy(din, sentinel.data(), kSpan);
      auto settle = [&](int k) {
        std::vector<std::byte>& v =
            after[static_cast<std::size_t>(3 * ctx.rank + k)];
        v.resize(kSpan);
        ctx.cuda->memcpy(v.data(), dout, kSpan);
        ctx.cuda->memcpy(dout, sentinel.data(), kSpan);
      };
      ctx.cuda->memcpy(dout, sentinel.data(), kSpan);
      ctx.comm.allreduce_sum(static_cast<const double*>(din),
                             static_cast<double*>(dout), 0);
      settle(0);
      ctx.comm.bcast(dout, 0, dt, 0);
      settle(1);
      ctx.comm.allgather(din, 0, dt, dout);
      settle(2);
      ctx.cuda->free(din);
      ctx.cuda->free(dout);
    });
    for (std::size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(after[i], sentinel)
          << "rank " << i / 3 << ", op " << (i % 3 == 0   ? "allreduce"
                                             : i % 3 == 1 ? "bcast"
                                                          : "allgather");
    }
    expect_unpipelined_calls(cluster);
  }
}

// ---------------------------------------------------------------------------
// Fault matrix: lossy fabric + lossy IPC under both schedules.
// ---------------------------------------------------------------------------

TEST(CollDevice, LossyFabricAndIpcStillBitExact) {
  ClusterConfig clean = matrix_config(8, 2, true);
  const auto host = run_allreduce(clean, false);
  for (bool gpu_offload : {false, true}) {
    ClusterConfig cfg = matrix_config(8, 2, gpu_offload);
    cfg.rng_seed = 23;
    netsim::FaultSpec drop;
    drop.drop_send = 0.02;
    cfg.faults.set_default(drop);
    cfg.ipc_faults.set_default(drop);
    const auto lossy = run_allreduce(cfg, true);
    EXPECT_EQ(lossy.pipelined, gpu_offload ? 8u : 0u);
    for (int r = 0; r < 8; ++r) {
      EXPECT_EQ(0, std::memcmp(host.out[static_cast<std::size_t>(r)].data(),
                               lossy.out[static_cast<std::size_t>(r)].data(),
                               sizeof(double) * kCount))
          << "gpu_offload " << gpu_offload << ", rank " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Crash-stop mid device collective: survivors abort cleanly, nobody hangs,
// survivor pools quiesce.
// ---------------------------------------------------------------------------

TEST(CollDevice, CrashMidPipelinedAllreduceDoesNotHang) {
  ClusterConfig cfg = matrix_config(4, 2, true);
  cfg.rng_seed = 11;
  cfg.tunables.rndv_timeout_ns = 200'000;
  cfg.tunables.rndv_max_retries = 3;
  cfg.crash_at = {{3, sim::SimTime{1'500'000}}};
  Cluster cluster(cfg);
  struct Outcome {
    bool finished = false;
    std::string error;
  };
  std::vector<Outcome> outcome(4);
  cluster.run([&](Context& ctx) {
    auto& me = outcome[static_cast<std::size_t>(ctx.rank)];
    const std::vector<double> in = seed_vector(ctx.rank, kCount);
    const std::size_t bytes = sizeof(double) * kCount;
    // Deliberately never freed before teardown: an aborted pipeline's
    // already-enqueued write-back may still land in the destination
    // buffer after the fiber unwound (same liveness rule as any buffer
    // handed to a collective).
    auto* din = static_cast<double*>(ctx.cuda->malloc(bytes));
    auto* dout = static_cast<double*>(ctx.cuda->malloc(bytes));
    ctx.cuda->memcpy(din, in.data(), bytes);
    try {
      for (int it = 0; it < 50; ++it) {
        ctx.comm.allreduce_sum(din, dout, kCount);
      }
    } catch (const mpisim::RequestError& e) {
      me.error = e.what();
    }
    me.finished = true;
  });
  for (int r = 0; r < 3; ++r) {
    const auto& o = outcome[static_cast<std::size_t>(r)];
    EXPECT_GT(cluster.coll_stats(r).allreduce.device_pipelined, 0u)
        << "rank " << r;
    EXPECT_GT(cluster.coll_stats(r).allreduce.hier_calls, 0u) << "rank " << r;
    EXPECT_TRUE(o.finished) << "rank " << r << " hung";
    EXPECT_NE(o.error.find("aborted"), std::string::npos)
        << "rank " << r << ": " << o.error;
  }
  EXPECT_FALSE(outcome[3].finished);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.vbuf_audit(r), "") << "rank " << r;
    EXPECT_EQ(cluster.vbufs_in_use(r), cluster.graveyard_slots(r))
        << "rank " << r;
  }
}
