// Selection regret: in every cell, the choice the selection rules make (the
// public collective) must run within 2 % of the fastest forced
// alternative, each forced through the collective engine's CollForce
// argument. Host collectives have two alternatives, flat and two-level.
// Device-resident bcast, allgather and allreduce have four: each shape on
// the staged schedule and on the sliced pipeline. Device bcast and
// allgather cells at or below the eager threshold take a 5 % bound: there
// the two schedules run 2-3 % apart, the pipeline's slot copies against
// the eager path's pageable ones. Each run is one call on a fresh cluster,
// timed from the call's start, after any upload of its input; virtual time
// is deterministic, so one run per cell suffices.
//
// The gtest cases cover the Tier-1 grid. `test_selection_regret --sweep`
// runs the wider sweep (sizes on and off the powers of two, p in {4, 6, 8},
// 1, 2 and 4 ranks per node) and prints every cell that misses the bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "mpi/cluster.hpp"
#include "support/coll_access.hpp"

namespace mpisim = mv2gnc::mpisim;
namespace sim = mv2gnc::sim;
using mpisim::Cluster;
using mpisim::ClusterConfig;
using mpisim::Context;
using mpisim::Datatype;
using mpisim::detail::CollAccess;
using mpisim::detail::CollForce;
using mpisim::detail::CollShape;
using mpisim::detail::DeviceSchedule;

namespace {

enum class Op {
  kBarrier,
  kBcast,
  kAllreduce,
  kAllgather,
  kAlltoall,
  kDevAllreduce,
  kDevBcast,
  kDevAllgather
};

const char* op_name(Op op) {
  switch (op) {
    case Op::kBarrier: return "barrier";
    case Op::kBcast: return "bcast";
    case Op::kAllreduce: return "allreduce";
    case Op::kAllgather: return "allgather";
    case Op::kAlltoall: return "alltoall";
    case Op::kDevAllreduce: return "device allreduce";
    case Op::kDevBcast: return "device bcast";
    case Op::kDevAllgather: return "device allgather";
  }
  return "?";
}

struct Cell {
  int ranks;
  int rpn;
  std::size_t bytes;  // vector (allreduce, bcast) or per-rank block bytes
  int root = 0;       // bcast only
};

bool device_op(Op op) {
  return op == Op::kDevAllreduce || op == Op::kDevBcast ||
         op == Op::kDevAllgather;
}

// One call of `op`; `forced` null runs the public operation. `start`
// learns when the collective begins, after any upload of its input.
void call(Op op, const Cell& c, const CollForce* forced, Context& ctx,
          sim::SimTime& start) {
  auto& eng = CollAccess::engine(ctx.comm);
  const auto& g = CollAccess::group(ctx.comm);
  Datatype byte_t = Datatype::byte();
  byte_t.commit();
  const int n = static_cast<int>(c.bytes);
  switch (op) {
    case Op::kBarrier:
      forced ? eng.barrier(g, *forced) : ctx.comm.barrier();
      return;
    case Op::kBcast: {
      std::vector<std::byte> buf(c.bytes);
      forced ? eng.bcast(buf.data(), n, byte_t, c.root, g, *forced)
             : ctx.comm.bcast(buf.data(), n, byte_t, c.root);
      return;
    }
    case Op::kAllreduce: {
      const int count = static_cast<int>(c.bytes / sizeof(double));
      std::vector<double> in(static_cast<std::size_t>(count), ctx.rank);
      std::vector<double> out(in.size());
      forced ? eng.allreduce_doubles(in.data(), out.data(), count, false, g,
                                     *forced)
             : ctx.comm.allreduce_sum(in.data(), out.data(), count);
      return;
    }
    case Op::kAllgather: {
      std::vector<std::byte> in(c.bytes);
      std::vector<std::byte> out(c.bytes * static_cast<std::size_t>(c.ranks));
      forced ? eng.allgather(in.data(), n, byte_t, out.data(), g, *forced)
             : ctx.comm.allgather(in.data(), n, byte_t, out.data());
      return;
    }
    case Op::kAlltoall: {
      std::vector<std::byte> in(c.bytes * static_cast<std::size_t>(c.ranks));
      std::vector<std::byte> out(in.size());
      forced ? eng.alltoall(in.data(), out.data(), n, byte_t, g, *forced)
             : ctx.comm.alltoall(in.data(), out.data(), n, byte_t);
      return;
    }
    case Op::kDevAllreduce: {
      const int count = static_cast<int>(c.bytes / sizeof(double));
      const std::size_t bytes =
          sizeof(double) * static_cast<std::size_t>(count);
      std::vector<double> host(static_cast<std::size_t>(count), ctx.rank);
      auto* din = static_cast<double*>(ctx.cuda->malloc(bytes));
      auto* dout = static_cast<double*>(ctx.cuda->malloc(bytes));
      ctx.cuda->memcpy(din, host.data(), bytes);
      if (ctx.rank == 0) start = ctx.now();
      forced ? eng.allreduce_doubles(din, dout, count, false, g, *forced)
             : ctx.comm.allreduce_sum(din, dout, count);
      ctx.cuda->free(din);
      ctx.cuda->free(dout);
      return;
    }
    case Op::kDevBcast: {
      void* dev = ctx.cuda->malloc(c.bytes);
      forced ? eng.bcast(dev, n, byte_t, c.root, g, *forced)
             : ctx.comm.bcast(dev, n, byte_t, c.root);
      ctx.cuda->free(dev);
      return;
    }
    case Op::kDevAllgather: {
      void* din = ctx.cuda->malloc(c.bytes);
      void* dout =
          ctx.cuda->malloc(c.bytes * static_cast<std::size_t>(c.ranks));
      forced ? eng.allgather(din, n, byte_t, dout, g, *forced)
             : ctx.comm.allgather(din, n, byte_t, dout);
      ctx.cuda->free(din);
      ctx.cuda->free(dout);
      return;
    }
  }
}

// Virtual time of one call on a fresh cluster, from its start on every
// rank (the ranks start together and upload alike) to the last rank's
// finish. `pipelined`, when given, learns whether the call took the sliced
// device pipeline.
sim::SimTime time_call(Op op, const Cell& c, const CollForce* forced,
                       bool* pipelined = nullptr) {
  ClusterConfig cfg;
  cfg.ranks = c.ranks;
  cfg.tunables.ranks_per_node = static_cast<std::size_t>(c.rpn);
  Cluster cluster(cfg);
  sim::SimTime start = 0;
  cluster.run([&](Context& ctx) { call(op, c, forced, ctx, start); });
  if (pipelined != nullptr) {
    const auto& st = cluster.coll_stats(0);
    *pipelined = st.bcast.device_pipelined + st.allreduce.device_pipelined +
                     st.allgather.device_pipelined >
                 0;
  }
  return cluster.elapsed() - start;
}

// The forced alternatives of `op`: both shapes, and on device buffers each
// shape on both schedules.
std::vector<CollForce> alternatives(Op op) {
  std::vector<CollForce> alts;
  for (CollShape shape : {CollShape::kFlat, CollShape::kTwoLevel}) {
    if (!device_op(op)) {
      alts.push_back({shape, std::nullopt});
      continue;
    }
    for (DeviceSchedule s :
         {DeviceSchedule::kStaged, DeviceSchedule::kPipelined}) {
      alts.push_back({shape, s});
    }
  }
  return alts;
}

const char* alt_name(const CollForce& f) {
  const bool flat = f.shape == CollShape::kFlat;
  if (!f.schedule) return flat ? "flat" : "two-level";
  if (*f.schedule == DeviceSchedule::kStaged) {
    return flat ? "flat staged" : "two-level staged";
  }
  return flat ? "flat pipelined" : "two-level pipelined";
}

struct Verdict {
  sim::SimTime rule = 0;
  std::vector<sim::SimTime> forced;  // one per alternatives(op) entry
  bool pipelined = false;  // the rule's call took the sliced device pipeline
  int bound_pct = 2;

  sim::SimTime best() const {
    return *std::min_element(forced.begin(), forced.end());
  }
  bool ok() const { return 100 * rule <= (100 + bound_pct) * best(); }
  double regret_pct() const {
    return 100.0 * (static_cast<double>(rule) /
                        static_cast<double>(best()) -
                    1.0);
  }
  std::string describe(Op op, const Cell& c) const {
    char line[160];
    std::snprintf(line, sizeof line, "%s p=%d rpn=%d bytes=%zu root=%d: rule %.3f us",
                  op_name(op), c.ranks, c.rpn, c.bytes, c.root, rule / 1e3);
    std::string out = line;
    const std::vector<CollForce> alts = alternatives(op);
    for (std::size_t i = 0; i < alts.size(); ++i) {
      std::snprintf(line, sizeof line, ", %s %.3f us", alt_name(alts[i]),
                    forced[i] / 1e3);
      out += line;
    }
    return out;
  }
};

Verdict judge(Op op, const Cell& c) {
  Verdict v{};
  v.rule = time_call(op, c, nullptr, &v.pipelined);
  for (const CollForce& f : alternatives(op)) {
    v.forced.push_back(time_call(op, c, &f));
  }
  const bool eager_device = (op == Op::kDevBcast || op == Op::kDevAllgather) &&
                            c.bytes <= 8 * 1024;
  v.bound_pct = eager_device ? 5 : 2;
  return v;
}

// p in {4, 6, 8} at 2 and 4 ranks per node: 4 ranks at 4 per node is the
// single-node group, 6 at 4 per node the ragged (4 + 2) placement.
const std::vector<std::pair<int, int>> kPlacements = {
    {4, 2}, {4, 4}, {6, 2}, {6, 4}, {8, 2}, {8, 4}};

// Both sides of every flip seen so far: eager vs rendezvous, the IPC
// channel's shm/CMA split at 64 KB, and the pipelined sizes.
const std::vector<std::size_t> kSizes = {
    1024, 4096, 16384, 65536 - 504, 65536, 262144 + 8, 1048576};

std::vector<Cell> grid(Op op) {
  std::vector<Cell> cells;
  for (const auto& [p, rpn] : kPlacements) {
    if (op == Op::kBarrier) {
      cells.push_back({p, rpn, 0});
      continue;
    }
    for (std::size_t b : kSizes) {
      if (op == Op::kBcast || op == Op::kDevBcast) {
        cells.push_back({p, rpn, b, 0});
        cells.push_back({p, rpn, b, 1});
      } else {
        cells.push_back({p, rpn, b});
      }
    }
  }
  return cells;
}

// Returns how many cells the rule ran through the sliced device pipeline.
int expect_no_regret(Op op, const std::vector<Cell>& cells) {
  int pipelined = 0;
  for (const Cell& c : cells) {
    const Verdict v = judge(op, c);
    EXPECT_TRUE(v.ok()) << v.describe(op, c);
    if (v.pipelined) ++pipelined;
  }
  return pipelined;
}

// Device cells: the grid must reach both the staged schedule and the
// sliced pipeline.
void expect_no_regret_both_schedules(Op op, const std::vector<Cell>& cells) {
  const int pipelined = expect_no_regret(op, cells);
  EXPECT_GT(pipelined, 0) << op_name(op);
  EXPECT_LT(pipelined, static_cast<int>(cells.size())) << op_name(op);
}

// The sweep of ROADMAP item 6: every size class on and off the powers of
// two. Prints each miss and a per-collective tally; returns the misses.
int sweep() {
  std::vector<std::size_t> sizes;
  for (std::size_t k = 1u << 10; k <= (1u << 20); k <<= 1) {
    sizes.insert(sizes.end(), {k - 8, k, k + 8, 3 * k});
  }
  sizes.push_back(600000);
  const std::vector<std::pair<int, int>> placements = {
      {4, 1}, {4, 2}, {4, 4}, {6, 1}, {6, 2}, {6, 4},
      {8, 1}, {8, 2}, {8, 4}};
  int total_misses = 0;
  for (Op op : {Op::kBarrier, Op::kBcast, Op::kAllreduce, Op::kAllgather,
                Op::kAlltoall, Op::kDevAllreduce, Op::kDevBcast,
                Op::kDevAllgather}) {
    int cells = 0;
    int misses = 0;
    for (const auto& [p, rpn] : placements) {
      std::vector<std::size_t> sz = sizes;
      if (op == Op::kBarrier) sz = {0};
      for (std::size_t b : sz) {
        for (int root : {0, 1}) {
          if (root == 1 && op != Op::kBcast && op != Op::kDevBcast) {
            continue;
          }
          const Cell c{p, rpn, b, root};
          const Verdict v = judge(op, c);
          ++cells;
          if (!v.ok()) {
            ++misses;
            std::printf("MISS %s (+%.1f %%)\n", v.describe(op, c).c_str(),
                        v.regret_pct());
          }
        }
      }
    }
    std::printf("%-16s %4d cells, %3d over the 2 %% bound\n", op_name(op),
                cells, misses);
    std::fflush(stdout);
    total_misses += misses;
  }
  return total_misses;
}

}  // namespace

TEST(SelectionRegret, Barrier) {
  expect_no_regret(Op::kBarrier, grid(Op::kBarrier));
}

TEST(SelectionRegret, Bcast) {
  expect_no_regret(Op::kBcast, grid(Op::kBcast));
}

TEST(SelectionRegret, Allreduce) {
  expect_no_regret(Op::kAllreduce, grid(Op::kAllreduce));
}

TEST(SelectionRegret, Allgather) {
  expect_no_regret(Op::kAllgather, grid(Op::kAllgather));
}

TEST(SelectionRegret, Alltoall) {
  expect_no_regret(Op::kAlltoall, grid(Op::kAlltoall));
}

TEST(SelectionRegret, DeviceAllreduce) {
  // The Tier-1 grid, plus perfbench allreduce_device's placement and size
  // classes, each trimmed by 63 doubles as its calls are.
  std::vector<Cell> cells = grid(Op::kDevAllreduce);
  for (std::size_t b : {65536u, 262144u, 1048576u, 4194304u}) {
    cells.push_back({4, 2, b - 63 * sizeof(double)});
  }
  expect_no_regret_both_schedules(Op::kDevAllreduce, cells);
}

TEST(SelectionRegret, DeviceBcast) {
  expect_no_regret_both_schedules(Op::kDevBcast, grid(Op::kDevBcast));
}

TEST(SelectionRegret, DeviceAllgather) {
  expect_no_regret_both_schedules(Op::kDevAllgather, grid(Op::kDevAllgather));
}

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sweep") == 0) return sweep() == 0 ? 0 : 1;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
