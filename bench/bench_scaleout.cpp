// Many-rank scale-out: incast, alltoall and stencil halo at 64-512 ranks,
// full crossbar vs a 2:1-oversubscribed two-level fat tree. Two things are
// under test at once: the *model* (shared leaf/spine links make incast
// hot-spots and oversubscribed alltoalls slow down; nearest-neighbour halo
// traffic mostly does not) and the *simulator* (events/sec and wall-clock
// per virtual second from the engine's throughput counters, written to the
// JSON report — the raw-speed numbers that decide whether hundreds of
// ranks are tractable at all). The grid fails if incast or alltoall shows
// no fat-tree contention.
//
// A hot-spot sweep follows: an incast and an unsynchronized storm on the
// crossbar, the fat tree and a dragonfly, all under the fabric's one
// (least-backlog adaptive) route, then an ECN on/off cell. It fails if the
// dragonfly storm takes more than 1.01x the crossbar's time, or if ECN
// never marks or does not cut the peak link backlog.
//
// Modes:
//   (none)   the grid at 64-512 ranks, then the sweep at 256 ranks;
//   --smoke  the grid and the sweep at 64 ranks (the CI scaleout_smoke
//            target and golden_scaleout_smoke);
//   --sweep  the 256-rank sweep and the ECN cell only, which writes
//            BENCH_routing.json without the 512-rank grid cells.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include <algorithm>

#include "apps/reporting.hpp"
#include "bench_util.hpp"
#include "core/tunables.hpp"
#include "mpi/cluster.hpp"

namespace bench = mv2gnc::bench;
namespace apps = mv2gnc::apps;
namespace mpisim = mv2gnc::mpisim;
namespace netsim = mv2gnc::netsim;
namespace sim = mv2gnc::sim;

namespace {

// All three patterns use 32 KB messages — above the 8 KB eager threshold,
// so every payload takes the rendezvous/RDMA path whose wire time is long
// enough to back an oversubscribed uplink up. (Eager-sized alltoalls are
// self-throttling: the pairwise exchange synchronizes each phase, and a
// sub-microsecond wire time never outlasts the per-phase handshake, so a
// 2:1 fabric shows almost no queueing on them.)
constexpr std::size_t kIncastBytes = 32 * 1024;
constexpr std::size_t kAlltoallBytes = 32 * 1024;
constexpr std::size_t kHaloBytes = 32 * 1024;
constexpr int kHaloIters = 2;

enum class Workload { kIncast, kAlltoall, kHalo };

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kIncast: return "incast";
    case Workload::kAlltoall: return "alltoall";
    default: return "halo";
  }
}

enum class Topo { kXbar, kFat2, kDragonfly };

const char* topo_name(Topo t) {
  switch (t) {
    case Topo::kXbar: return "xbar";
    case Topo::kFat2: return "fat2";
    default: return "dfly";
  }
}

mpisim::ClusterConfig make_config(int ranks, Topo topo) {
  mpisim::ClusterConfig cfg;
  cfg.ranks = ranks;
  if (topo == Topo::kFat2) {
    // 8 endpoints per edge switch with half as many uplinks: the classic
    // cost-reduced 2:1 fabric.
    cfg.topology = netsim::FabricTopology::fat_tree(8, 2.0);
  } else if (topo == Topo::kDragonfly) {
    cfg.topology = netsim::FabricTopology::dragonfly(8);
  }
  return cfg;
}

// Largest power-of-two px with px <= sqrt-ish of n, giving the px x py
// process grid the halo workload runs on (n is always a power of two here).
void grid_dims(int n, int& px, int& py) {
  px = 1;
  while (px * px < n) px *= 2;
  py = n / px;
}

void run_workload(Workload w, mpisim::Context& ctx) {
  auto dt = mpisim::Datatype::byte();
  dt.commit();
  switch (w) {
    case Workload::kIncast: {
      // Everyone fires one rendezvous message at rank 0 simultaneously —
      // the many-to-one pattern that funnels through a single down-link
      // on a fat tree.
      if (ctx.rank == 0) {
        std::vector<std::byte> rx(
            kIncastBytes * static_cast<std::size_t>(ctx.size - 1));
        std::vector<mpisim::Request> reqs;
        reqs.reserve(static_cast<std::size_t>(ctx.size - 1));
        for (int src = 1; src < ctx.size; ++src) {
          reqs.push_back(ctx.comm.irecv(
              rx.data() + kIncastBytes * static_cast<std::size_t>(src - 1),
              static_cast<int>(kIncastBytes), dt, src, 7));
        }
        ctx.comm.waitall(reqs);
      } else {
        std::vector<std::byte> tx(kIncastBytes, std::byte{0x5A});
        ctx.comm.send(tx.data(), static_cast<int>(kIncastBytes), dt, 0, 7);
      }
      break;
    }
    case Workload::kAlltoall: {
      std::vector<std::byte> tx(
          kAlltoallBytes * static_cast<std::size_t>(ctx.size),
          std::byte{0x3C});
      std::vector<std::byte> rx(tx.size());
      ctx.comm.alltoall(tx.data(), rx.data(),
                        static_cast<int>(kAlltoallBytes), dt);
      break;
    }
    case Workload::kHalo: {
      // Periodic 4-neighbour exchange on a px x py grid. Row-mates share a
      // leaf when px == leaf_ports (east/west stay switch-local) but
      // north/south always cross leaves, so even this "nice" pattern leans
      // on the uplinks — just with far fewer flows per link than alltoall.
      int px = 0;
      int py = 0;
      grid_dims(ctx.size, px, py);
      const int row = ctx.rank / px;
      const int col = ctx.rank % px;
      const int east = row * px + (col + 1) % px;
      const int west = row * px + (col - 1 + px) % px;
      const int north = ((row + 1) % py) * px + col;
      const int south = ((row - 1 + py) % py) * px + col;
      std::vector<std::byte> tx(kHaloBytes, std::byte{0x7E});
      std::vector<std::byte> rx(kHaloBytes * 4);
      for (int it = 0; it < kHaloIters; ++it) {
        std::vector<mpisim::Request> reqs;
        reqs.reserve(8);
        const int n = static_cast<int>(kHaloBytes);
        reqs.push_back(ctx.comm.irecv(rx.data(), n, dt, west, 0));
        reqs.push_back(ctx.comm.irecv(rx.data() + kHaloBytes, n, dt, east, 1));
        reqs.push_back(
            ctx.comm.irecv(rx.data() + 2 * kHaloBytes, n, dt, south, 2));
        reqs.push_back(
            ctx.comm.irecv(rx.data() + 3 * kHaloBytes, n, dt, north, 3));
        reqs.push_back(ctx.comm.isend(tx.data(), n, dt, east, 0));
        reqs.push_back(ctx.comm.isend(tx.data(), n, dt, west, 1));
        reqs.push_back(ctx.comm.isend(tx.data(), n, dt, north, 2));
        reqs.push_back(ctx.comm.isend(tx.data(), n, dt, south, 3));
        ctx.comm.waitall(reqs);
      }
      break;
    }
  }
}


// Runs one grid cell and returns its virtual time; the engine's events/s
// go to the JSON report only, so stdout stays a function of virtual time.
sim::SimTime run_cell(bench::JsonReport& report, Workload w, int ranks,
                      Topo topo, bool print_links) {
  mpisim::Cluster cluster(make_config(ranks, topo));
  cluster.run([&](mpisim::Context& ctx) { run_workload(w, ctx); });
  const sim::SimTime elapsed = cluster.elapsed();
  const std::string key = std::string(workload_name(w)) + "_" +
                          topo_name(topo) + "_r" + std::to_string(ranks);
  report.add(key + "_us", static_cast<double>(elapsed) / 1000.0);
  bench::add_engine_throughput(report, key, cluster.engine());
  if (print_links) {
    std::cout << "\nPer-link fabric stats, " << workload_name(w) << " at "
              << ranks << " ranks (fat tree, 2:1 oversubscription):\n";
    cluster.print_stats(std::cout);
  }
  return elapsed;
}

// ---------------------------------------------------------------------------
// Hot-spot sweep across topologies (adaptive routing + ECN feedback)
// ---------------------------------------------------------------------------

// The sweep's hot-spot patterns differ from the main grid on purpose:
//  * incast stays the many-to-one funnel into one down-link, and
//  * the storm is UNSYNCHRONIZED — every rank posts all of its isends at
//    once (no pairwise-exchange phases) at the ranks divisible by
//    kStormStride, so the senders of one edge switch or group contend for
//    its uplinks or global links at the same instant.
enum class HotSpot { kIncast, kStorm };

// Storm targets: every rank whose index is divisible by this. 8 matches
// the sweep's leaf_ports/group_size, so each edge switch (or dragonfly
// group) hosts exactly one hot rank, and every hot rank index is ≡ 0 mod
// the fat tree's 4 uplinks (the pattern a static dst-indexed route would
// funnel through one spine).
constexpr int kStormStride = 8;

// The dragonfly storm may take at most this multiple of the crossbar's
// time: with one hot rank per group, direct-only routing finishes it as
// fast as the crossbar (at 64 and 256 ranks), so detours may cost 1 % at
// most.
constexpr double kDragonflyStormBound = 1.01;

const char* hotspot_name(HotSpot h) {
  return h == HotSpot::kIncast ? "incast" : "storm";
}

void run_hotspot(HotSpot h, std::size_t bytes, mpisim::Context& ctx,
                 sim::SimTime stagger_ns = 0) {
  auto dt = mpisim::Datatype::byte();
  dt.commit();
  if (h == HotSpot::kIncast) {
    // Optional ramp: sender r joins at r * stagger_ns instead of everyone
    // bursting at t=0. The ECN cells need this — with a simultaneous
    // burst the peak queue forms from the very first credit windows,
    // before any ack (and thus any mark) has ever come back, so feedback
    // cannot shave a peak that is already history.
    if (stagger_ns > 0 && ctx.rank > 0) {
      ctx.engine->delay(stagger_ns * static_cast<sim::SimTime>(ctx.rank));
    }
    if (ctx.rank == 0) {
      std::vector<std::byte> rx(bytes * static_cast<std::size_t>(ctx.size - 1));
      std::vector<mpisim::Request> reqs;
      reqs.reserve(static_cast<std::size_t>(ctx.size - 1));
      for (int src = 1; src < ctx.size; ++src) {
        reqs.push_back(ctx.comm.irecv(
            rx.data() + bytes * static_cast<std::size_t>(src - 1),
            static_cast<int>(bytes), dt, src, 7));
      }
      ctx.comm.waitall(reqs);
    } else {
      std::vector<std::byte> tx(bytes, std::byte{0x5A});
      ctx.comm.send(tx.data(), static_cast<int>(bytes), dt, 0, 7);
    }
    return;
  }
  // Hot-spot storm: everyone fires at the ranks divisible by kStormStride,
  // all isends posted at once. One hot rank per edge switch (stride ==
  // leaf_ports), so the down-links stay spread and the congestion lands on
  // the uplink/spine (or global-link) choice the route makes.
  std::vector<mpisim::Request> reqs;
  const bool hot = ctx.rank % kStormStride == 0;
  std::vector<std::byte> rx;
  if (hot) {
    rx.resize(bytes * static_cast<std::size_t>(ctx.size - 1));
    reqs.reserve(static_cast<std::size_t>(ctx.size - 1));
    for (int src = 0; src < ctx.size; ++src) {
      if (src == ctx.rank) continue;
      const int slot = src < ctx.rank ? src : src - 1;
      reqs.push_back(
          ctx.comm.irecv(rx.data() + bytes * static_cast<std::size_t>(slot),
                         static_cast<int>(bytes), dt, src, 9));
    }
  }
  std::vector<std::byte> tx(bytes, std::byte{0x3C});
  for (int peer = 0; peer < ctx.size; peer += kStormStride) {
    if (peer == ctx.rank) continue;
    reqs.push_back(ctx.comm.isend(tx.data(), static_cast<int>(bytes), dt,
                                  peer, 9));
  }
  ctx.comm.waitall(reqs);
}

struct SweepResult {
  sim::SimTime elapsed = 0;
  sim::SimTime peak_backlog = 0;
  std::uint64_t ecn_marks = 0;
};

SweepResult run_sweep_cell(bench::JsonReport& report, HotSpot h, int ranks,
                           Topo topo, std::size_t bytes,
                           sim::SimTime ecn_ns = 0,
                           sim::SimTime stagger_ns = 0) {
  mpisim::ClusterConfig cfg = make_config(ranks, topo);
  cfg.tunables.ecn_backlog_ns = ecn_ns;
  mpisim::Cluster cluster(cfg);
  cluster.run([&](mpisim::Context& ctx) {
    run_hotspot(h, bytes, ctx, stagger_ns);
  });
  SweepResult res;
  res.elapsed = cluster.elapsed();
  for (const netsim::LinkStats& l : cluster.link_stats()) {
    if (l.peak_backlog > res.peak_backlog) res.peak_backlog = l.peak_backlog;
    res.ecn_marks += l.ecn_marks;
  }
  // The payload is part of the key: at 64 ranks the 32 KB sweep incast
  // and the 4 MB ECN-off incast are otherwise the same cell.
  const std::string key = std::string(hotspot_name(h)) + "_" +
                          topo_name(topo) + "_" +
                          std::to_string(bytes / 1024) + "kb" +
                          (ecn_ns > 0 ? "_ecn" : "") + "_r" +
                          std::to_string(ranks);
  report.add(key + "_us", static_cast<double>(res.elapsed) / 1000.0);
  report.add(key + "_peak_backlog_us",
             static_cast<double>(res.peak_backlog) / 1000.0);
  report.add(key + "_ecn_marks", static_cast<double>(res.ecn_marks));
  bench::add_engine_throughput(report, key, cluster.engine());
  return res;
}

double ratio(sim::SimTime num, sim::SimTime den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

std::string format_ratio(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", r);
  return buf;
}

// Hot-spot sweep: every (hot-spot, topology) cell, with the pass/fail
// contract that the dragonfly storm stays within kDragonflyStormBound of
// the crossbar — plus an ECN on/off pair showing backlog-driven depth
// control shaves the peak link backlog.
bool run_hotspot_sweep(bench::JsonReport& report, int ranks) {
  bool ok = true;
  apps::Table table("hot-spot sweep at " + std::to_string(ranks) +
                        " ranks (32 KB rendezvous payloads)",
                    {"pattern", "crossbar (us)", "fat-tree 2:1 (us)",
                     "dragonfly (us)", "fat vs xbar", "dfly vs xbar"});
  for (const HotSpot h : {HotSpot::kIncast, HotSpot::kStorm}) {
    SweepResult by_topo[3];
    int i = 0;
    for (const Topo topo : {Topo::kXbar, Topo::kFat2, Topo::kDragonfly}) {
      by_topo[i++] = run_sweep_cell(report, h, ranks, topo,
                                    /*bytes=*/32 * 1024);
    }
    const sim::SimTime xbar = by_topo[0].elapsed;
    const sim::SimTime fat = by_topo[1].elapsed;
    const sim::SimTime dfly = by_topo[2].elapsed;
    table.add_row({hotspot_name(h), apps::format_us(xbar),
                   apps::format_us(fat), apps::format_us(dfly),
                   format_ratio(ratio(fat, xbar)),
                   format_ratio(ratio(dfly, xbar))});
    if (h == HotSpot::kStorm && ratio(dfly, xbar) > kDragonflyStormBound) {
      ok = false;
      std::cout << "FAIL: dragonfly storm at " << ranks << " ranks takes "
                << format_ratio(ratio(dfly, xbar))
                << " the crossbar's time (bound " << kDragonflyStormBound
                << "x)\n";
    }
  }
  table.print(std::cout);

  // ECN cell: long multi-chunk (4 MB = 64 chunk) incast. The depth starts
  // at the pool ceiling (32) under kFifo and the shrink is rate-limited to
  // about one halving per depth's worth of acks, so the transfer must be
  // long enough for repeated decrease to bite below the credit window of 8
  // — a 16-chunk message yields one halving and changes nothing.
  const int ecn_ranks = std::min(ranks, 64);
  const std::size_t kEcnBytes = 4 << 20;
  const sim::SimTime kEcnThreshold = 50'000;
  const sim::SimTime kEcnStagger = 50'000;  // one ~20us chunk every 50us/rank
  const SweepResult off =
      run_sweep_cell(report, HotSpot::kIncast, ecn_ranks, Topo::kFat2,
                     kEcnBytes, 0, kEcnStagger);
  const SweepResult on =
      run_sweep_cell(report, HotSpot::kIncast, ecn_ranks, Topo::kFat2,
                     kEcnBytes, kEcnThreshold, kEcnStagger);
  apps::Table ecn_table(
      "ECN backlog-driven depth control: 4 MB incast at " +
          std::to_string(ecn_ranks) + " ranks, fat-tree 2:1",
      {"ecn", "elapsed (us)", "peak link backlog (us)", "marks"});
  ecn_table.add_row({"off", apps::format_us(off.elapsed),
                     apps::format_us(off.peak_backlog),
                     std::to_string(off.ecn_marks)});
  ecn_table.add_row({"on", apps::format_us(on.elapsed),
                     apps::format_us(on.peak_backlog),
                     std::to_string(on.ecn_marks)});
  ecn_table.print(std::cout);
  if (on.ecn_marks == 0) {
    ok = false;
    std::cout << "FAIL: ECN threshold armed but no link ever marked\n";
  }
  if (on.peak_backlog >= off.peak_backlog) {
    ok = false;
    std::cout << "FAIL: ECN did not reduce peak link backlog ("
              << on.peak_backlog << " >= " << off.peak_backlog << " ns)\n";
  }
  return ok;
}

// The main grid: every workload at every rank count, crossbar vs fat
// tree. Returns false if a congested pattern shows no fat-tree contention.
bool run_grid(bench::JsonReport& report, const std::vector<int>& rank_counts,
              int print_ranks) {
  bool contention_seen_everywhere = true;
  for (const Workload w : {Workload::kIncast, Workload::kAlltoall,
                           Workload::kHalo}) {
    apps::Table table(
        std::string(workload_name(w)) +
            (w == Workload::kIncast
                 ? " (32 KB to rank 0 from every rank)"
                 : w == Workload::kAlltoall
                       ? " (32 KB per pair, pairwise exchange)"
                       : " (4 x 32 KB halo, 2 iters)"),
        {"ranks", "crossbar (us)", "fat-tree 2:1 (us)", "slowdown"});
    for (const int ranks : rank_counts) {
      const sim::SimTime xbar = run_cell(report, w, ranks, Topo::kXbar, false);
      const bool print_links =
          w == Workload::kAlltoall && ranks == print_ranks;
      const sim::SimTime fat =
          run_cell(report, w, ranks, Topo::kFat2, print_links);
      const double slowdown = ratio(fat, xbar);
      table.add_row({std::to_string(ranks), apps::format_us(xbar),
                     apps::format_us(fat), format_ratio(slowdown)});
      // The contention contract: the congested patterns must be measurably
      // slower on the oversubscribed fabric. Halo is reported but exempt —
      // how hard it leans on the uplinks depends on how the grid happens to
      // map onto leaves, which shifts with the rank count.
      if (w != Workload::kHalo && slowdown < 1.02) {
        contention_seen_everywhere = false;
        std::cout << "FAIL: " << workload_name(w) << " at " << ranks
                  << " ranks shows no fat-tree contention (slowdown "
                  << format_ratio(slowdown) << ")\n";
      }
    }
    table.print(std::cout);
  }
  return contention_seen_everywhere;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool sweep_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
    if (std::string(argv[i]) == "--sweep") sweep_only = true;
  }
  const int sweep_ranks = smoke ? 64 : 256;
  bench::banner(
      sweep_only ? "Scale-out hot-spot sweep: 256 ranks, crossbar vs 2:1 fat "
                   "tree vs dragonfly"
      : smoke    ? "Scale-out smoke: 64 ranks, crossbar vs 2:1 fat tree"
                 : "Scale-out: 64-512 ranks, crossbar vs 2:1 fat tree",
      "switch/link contention beyond the paper's 8-node testbed; engine "
      "events/sec at many-rank scale");

  bool contention_ok = true;
  if (!sweep_only) {
    bench::JsonReport report(smoke ? "scaleout_smoke" : "scaleout");
    contention_ok = run_grid(
        report,
        smoke ? std::vector<int>{64} : std::vector<int>{64, 128, 256, 512},
        smoke ? 64 : 256);
    report.write_and_note();
  }

  // Hot-spot + ECN sweep, after the grid. The smoke sweep (64 ranks only)
  // writes its own report, so it never overwrites the 256-rank sweep's
  // BENCH_routing.json.
  bench::JsonReport sweep_report(smoke ? "routing_smoke" : "routing");
  const bool sweep_ok = run_hotspot_sweep(sweep_report, sweep_ranks);
  sweep_report.write_and_note();

  if (!sweep_ok) {
    std::cout << "\nscale-out bench FAILED: hot-spot/ECN contract broken\n";
    return 1;
  }
  if (!contention_ok) {
    std::cout << "\nscale-out bench FAILED: expected fat-tree contention "
                 "missing\n";
    return 1;
  }
  std::cout << "\nscale-out bench OK\n";
  return 0;
}
