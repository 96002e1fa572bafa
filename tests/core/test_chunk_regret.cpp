// Chunk regret: the model audit of pipeline chunk selection. In every cell
// of a fixed grid, the chunk the cost model picks (default tunables) is
// timed against every fixed power-of-two chunk from 8 KB to 1 MB and
// against one unpipelined chunk (pipelining = false; a huge chunk_bytes
// would also resize the vbuf pool). Each run is a fresh two-rank cluster;
// virtual time is deterministic, so one run per policy suffices, and every
// run checks the received bytes.
//
// Grid: route (fabric at 1 rank per node, IPC at 2) x pattern (one-way
// ping-pong, or an exchange: irecv, send, wait on both ranks) x layout
// (contiguous floats, or vector(n, 1, 2, float)) x packed size (65,600 B,
// stencil_halo's east-west halo; 96 KB; 256 KB; 1 MB).
//
// Bounds, on the default's time over the best alternative's:
//   - vector one-way cells: at most +8 %;
//   - the two 65,600 B vector exchange cells: at most +2 %;
//   - IPC contiguous cells: at most +2 %, and exactly one chunk per message.
// Every other cell's regret is printed, not asserted: an exchange makes
// each GPU's D2D engine serve its own pack and the incoming unpack at
// once, which a per-message model does not see.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "mpi/cluster.hpp"

namespace core = mv2gnc::core;
namespace mpisim = mv2gnc::mpisim;
namespace sim = mv2gnc::sim;
using mpisim::Cluster;
using mpisim::ClusterConfig;
using mpisim::Context;
using mpisim::Datatype;

namespace {

enum class Route { kFabric, kIpc };
enum class Pattern { kOneWay, kExchange };
enum class Layout { kContig, kVector };

struct Cell {
  Route route;
  Pattern pattern;
  Layout layout;
  std::size_t bytes;  // packed
};

// How the chunk is chosen: the model (default), a fixed size, or one
// unpipelined chunk.
struct Policy {
  std::size_t fixed_chunk = 0;  // nonzero: chunk_select = fixed
  bool pipelining = true;
};

struct Run {
  sim::SimTime per_op = 0;  // one-way latency, or one exchange
  std::uint64_t chunks = 0;  // first-time chunk writes, both directions
  std::uint64_t messages = 0;
  bool payload_ok = false;
};

constexpr int kWarmup = 1;
constexpr int kIters = 2;
constexpr std::byte kSentinel{0xEE};

std::string describe(const Cell& c) {
  char line[96];
  std::snprintf(line, sizeof line, "%s %s %s %zu B",
                c.route == Route::kFabric ? "fabric" : "ipc",
                c.pattern == Pattern::kOneWay ? "one-way" : "exchange",
                c.layout == Layout::kContig ? "contig" : "vector", c.bytes);
  return line;
}

// Byte offset of float j in the buffer; a vector keeps every other float.
std::size_t elem_off(const Cell& c, std::size_t j) {
  return j * (c.layout == Layout::kVector ? 8 : 4);
}

std::byte pattern(std::size_t i, int rank) {
  return static_cast<std::byte>((i * 131 + static_cast<std::size_t>(rank) * 29 +
                                 5) &
                                0xFF);
}

Run run(const Cell& c, const Policy& p) {
  ClusterConfig cfg;
  cfg.ranks = 2;
  cfg.tunables.ranks_per_node = c.route == Route::kIpc ? 2 : 1;
  cfg.tunables.pipelining = p.pipelining;
  if (p.fixed_chunk != 0) {
    cfg.tunables.chunk_select = core::ChunkSelect::kFixed;
    cfg.tunables.chunk_bytes = p.fixed_chunk;
  }
  const std::size_t floats = c.bytes / 4;
  const std::size_t span = elem_off(c, floats);
  Run out;
  out.payload_ok = true;
  Cluster cluster(cfg);
  cluster.run([&](Context& ctx) {
    Datatype type;
    int count = 1;
    if (c.layout == Layout::kVector) {
      type = Datatype::vector(static_cast<int>(floats), 1, 2,
                              Datatype::float32());
    } else {
      type = Datatype::float32();
      count = static_cast<int>(floats);
    }
    type.commit();
    const int peer = 1 - ctx.rank;
    std::vector<std::byte> img(span);
    for (std::size_t i = 0; i < span; ++i) img[i] = pattern(i, ctx.rank);
    auto* sbuf = static_cast<std::byte*>(ctx.cuda->malloc(span));
    auto* rbuf = static_cast<std::byte*>(ctx.cuda->malloc(span));
    ctx.cuda->memcpy(sbuf, img.data(), span);
    ctx.cuda->memcpy(rbuf, std::vector<std::byte>(span, kSentinel).data(),
                     span);
    ctx.comm.barrier();
    sim::SimTime t0 = 0;
    for (int it = -kWarmup; it < kIters; ++it) {
      if (it == 0) {
        ctx.comm.barrier();
        t0 = ctx.engine->now();
      }
      if (c.pattern == Pattern::kExchange) {
        mpisim::Request r = ctx.comm.irecv(rbuf, count, type, peer, 0);
        ctx.comm.send(sbuf, count, type, peer, 0);
        ctx.comm.wait(r);
      } else if (ctx.rank == 0) {
        ctx.comm.send(sbuf, count, type, peer, 0);
        ctx.comm.recv(rbuf, count, type, peer, 0);
      } else {
        ctx.comm.recv(rbuf, count, type, peer, 0);
        ctx.comm.send(sbuf, count, type, peer, 0);
      }
    }
    if (ctx.rank == 0) {
      const sim::SimTime elapsed = ctx.engine->now() - t0;
      out.per_op = c.pattern == Pattern::kOneWay ? elapsed / (2 * kIters)
                                                 : elapsed / kIters;
    }
    // The peer's floats at this layout, the sentinel in every gap.
    std::vector<std::byte> got(span);
    ctx.cuda->memcpy(got.data(), rbuf, span);
    for (std::size_t i = 0; i < span; ++i) {
      const bool data = i % elem_off(c, 1) < 4;
      if (got[i] != (data ? pattern(i, peer) : kSentinel)) {
        out.payload_ok = false;
        break;
      }
    }
    ctx.cuda->free(sbuf);
    ctx.cuda->free(rbuf);
  });
  std::uint64_t fins = 0;
  for (int r = 0; r < cfg.ranks; ++r) {
    const core::RetryStats& rs = cluster.retry_stats(r);
    fins += cluster.sched_stats(r).ctrl_by_kind[core::kChunkFin] -
            rs.chunk_retransmits - rs.error_retransmits;
  }
  out.chunks = fins;
  out.messages = 2 * (kWarmup + kIters);
  return out;
}

struct Verdict {
  Run model;
  sim::SimTime best = 0;
  std::string best_name;

  double regret() const {
    return static_cast<double>(model.per_op) / static_cast<double>(best) - 1.0;
  }
  bool within(double bound) const {
    return static_cast<double>(model.per_op) <=
           (1.0 + bound) * static_cast<double>(best);
  }
};

// Times the default against every alternative; checks every payload.
Verdict judge(const Cell& c) {
  Verdict v;
  v.model = run(c, Policy{});
  EXPECT_TRUE(v.model.payload_ok) << describe(c) << ": default";
  const Run whole = run(c, Policy{.pipelining = false});
  EXPECT_TRUE(whole.payload_ok) << describe(c) << ": one chunk";
  v.best = whole.per_op;
  v.best_name = "one chunk";
  for (std::size_t k = 8u << 10; k <= (1u << 20); k <<= 1) {
    const Run fixed = run(c, Policy{.fixed_chunk = k});
    EXPECT_TRUE(fixed.payload_ok) << describe(c) << ": fixed " << k;
    if (fixed.per_op < v.best) {
      v.best = fixed.per_op;
      v.best_name = "fixed " + std::to_string(k >> 10) + " KB";
    }
  }
  std::printf("%-32s default %9.3f us (%5.2f chunks/msg)  best %9.3f us "
              "(%s)  regret %+6.1f %%\n",
              describe(c).c_str(), static_cast<double>(v.model.per_op) / 1e3,
              static_cast<double>(v.model.chunks) /
                  static_cast<double>(v.model.messages),
              static_cast<double>(v.best) / 1e3, v.best_name.c_str(),
              100.0 * v.regret());
  std::fflush(stdout);
  return v;
}

constexpr std::size_t kSizes[] = {65'600, 96u << 10, 256u << 10, 1u << 20};

void audit(Route route, Pattern pattern) {
  for (Layout layout : {Layout::kContig, Layout::kVector}) {
    for (std::size_t bytes : kSizes) {
      const Cell c{route, pattern, layout, bytes};
      const Verdict v = judge(c);
      if (layout == Layout::kVector && pattern == Pattern::kOneWay) {
        EXPECT_TRUE(v.within(0.08)) << describe(c);
      }
      if (layout == Layout::kVector && pattern == Pattern::kExchange &&
          bytes == 65'600) {
        EXPECT_TRUE(v.within(0.02)) << describe(c);
      }
      if (layout == Layout::kContig && route == Route::kIpc) {
        EXPECT_TRUE(v.within(0.02)) << describe(c);
        EXPECT_EQ(v.model.chunks, v.model.messages) << describe(c);
      }
    }
  }
}

}  // namespace

TEST(ChunkRegret, FabricOneWay) { audit(Route::kFabric, Pattern::kOneWay); }

TEST(ChunkRegret, FabricExchange) {
  audit(Route::kFabric, Pattern::kExchange);
}

TEST(ChunkRegret, IpcOneWay) { audit(Route::kIpc, Pattern::kOneWay); }

TEST(ChunkRegret, IpcExchange) { audit(Route::kIpc, Pattern::kExchange); }
