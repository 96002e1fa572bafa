// Seeded chaos soak: the fault matrix (lossy fabric + lossy IPC control
// planes, rank stall/skew, optional crash-stop) crossed with rpn {1,2,4}
// and the flat/hier/auto collective algorithms. Every cell asserts the
// cluster's liveness contract — each surviving rank completes its workload
// or raises a clean RequestError; nobody blocks forever — plus quiesced
// vbuf pools and zero leaked CUDA-IPC mappings. Lossy-only cells (no
// crash, generous retry budget) must additionally produce bit-correct
// reductions: chaos inside the retransmit budget is invisible to the
// application.
//
// `--smoke` runs one seed per cell (the CI chaos_smoke target); the full
// sweep (scripts/run_chaos_sweep.sh) runs three.
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "apps/reporting.hpp"
#include "bench_util.hpp"
#include "mpi/cluster.hpp"

namespace bench = mv2gnc::bench;
namespace apps = mv2gnc::apps;
namespace core = mv2gnc::core;
namespace mpisim = mv2gnc::mpisim;
namespace netsim = mv2gnc::netsim;
namespace sim = mv2gnc::sim;

namespace {

constexpr int kRanks = 4;

const char* select_name(core::CollSelect s) {
  switch (s) {
    case core::CollSelect::kFlat: return "flat";
    case core::CollSelect::kHier: return "hier";
    default: return "auto";
  }
}

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

struct CellResult {
  bool alive = true;        // every surviving rank finished its body
  bool correct = true;      // lossy-only cells: reductions bit-correct
  bool quiesced = true;     // vbuf audit clean, no leaked IPC mappings
  int aborted_ranks = 0;    // survivors that raised a clean RequestError
  std::uint64_t faults = 0;
  std::uint64_t retransmits = 0;
  sim::SimTime elapsed = 0;
};

CellResult run_cell(std::size_t rpn, core::CollSelect select,
                    std::uint64_t seed, bool crash) {
  mpisim::ClusterConfig cfg;
  cfg.ranks = kRanks;
  cfg.rng_seed = seed;
  cfg.tunables.ranks_per_node = rpn;
  cfg.tunables.coll_select = select;
  cfg.tunables.rndv_timeout_ns = 200'000;
  // A crash cell wants a tight budget (fail fast, abort cleanly); a lossy
  // cell wants one deep enough that no transfer ever fails permanently.
  cfg.tunables.rndv_max_retries = crash ? 3 : 25;
  cfg.tunables.rank_skew_ns = 10'000;
  cfg.tunables.rank_stall_prob = 0.05;
  cfg.tunables.rank_stall_ns = 2'000;
  fault_rendezvous_control(cfg.faults, 0.02, 0.0);
  if (rpn > 1) fault_rendezvous_control(cfg.ipc_faults, 0.04, 0.02);
  if (crash) cfg.crash_at = {{kRanks - 1, sim::SimTime{1'500'000}}};

  const int count = 16'384;
  std::vector<std::vector<double>> in(kRanks), out(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    auto& v = in[static_cast<std::size_t>(r)];
    v.resize(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      v[static_cast<std::size_t>(i)] = r + i % 7;
    }
    out[static_cast<std::size_t>(r)].assign(static_cast<std::size_t>(count),
                                            0.0);
  }
  std::vector<int> finished(kRanks, 0);
  std::vector<std::string> errors(kRanks);
  CellResult res;
  mpisim::Cluster cluster(cfg);
  cluster.run([&](mpisim::Context& ctx) {
    const auto rank = static_cast<std::size_t>(ctx.rank);
    try {
      for (int it = 0; it < 10; ++it) {
        ctx.comm.allreduce_sum(in[rank].data(), out[rank].data(), count);
      }
      ctx.comm.barrier();
    } catch (const mpisim::RequestError& e) {
      errors[rank] = e.what();
    }
    if (ctx.cuda->open_ipc_handles() != 0) res.quiesced = false;
    finished[rank] = 1;
  });
  res.elapsed = cluster.elapsed();
  const int crashed = crash ? kRanks - 1 : -1;
  for (int r = 0; r < kRanks; ++r) {
    const auto rank = static_cast<std::size_t>(r);
    if (r == crashed) continue;  // a crash-stop abandons its checkouts
    if (finished[rank] == 0) res.alive = false;
    if (!errors[rank].empty()) ++res.aborted_ranks;
    if (!cluster.vbuf_audit(r).empty() ||
        cluster.vbufs_in_use(r) != cluster.graveyard_slots(r)) {
      res.quiesced = false;
    }
    const mpisim::Cluster::FaultStats fs = cluster.fault_stats(r);
    res.faults += fs.fabric.total() + fs.ipc.total();
    const auto& rs = cluster.retry_stats(r);
    res.retransmits += rs.rts_retransmits + rs.chunk_retransmits +
                       rs.cts_resent + rs.acks_resent +
                       rs.send_done_retransmits;
  }
  if (!crash) {
    if (res.aborted_ranks != 0) res.correct = false;
    for (int r = 0; r < kRanks && res.correct; ++r) {
      for (int i = 0; i < count; i += 499) {
        double want = 0.0;
        for (int s = 0; s < kRanks; ++s) want += s + i % 7;
        if (out[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)] !=
            want) {
          res.correct = false;
          break;
        }
      }
    }
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::banner("Chaos soak: fault matrix x rpn {1,2,4} x flat/hier/auto",
                "liveness contract of the unified fault domain (no paper "
                "figure)");
  bench::JsonReport report("chaos_soak");
  apps::Table table("Chaos matrix", {"rpn", "coll", "seed", "mode", "result",
                                     "aborts", "faults", "rexmits",
                                     "virt (us)"});
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{1} : std::vector<std::uint64_t>{1, 2, 3};
  int violations = 0;
  std::uint64_t total_faults = 0;
  for (std::size_t rpn : {1u, 2u, 4u}) {
    for (core::CollSelect select :
         {core::CollSelect::kFlat, core::CollSelect::kHier,
          core::CollSelect::kAuto}) {
      for (std::uint64_t seed : seeds) {
        for (bool crash : {false, true}) {
          const CellResult res =
              run_cell(rpn, select, 100 * rpn + 10 * seed + crash, crash);
          const bool ok = res.alive && res.correct && res.quiesced;
          if (!ok) ++violations;
          total_faults += res.faults;
          std::string verdict = !res.alive      ? "HUNG"
                                : !res.correct  ? "WRONG"
                                : !res.quiesced ? "LEAKED"
                                : crash         ? "clean-abort"
                                                : "completed";
          table.add_row({std::to_string(rpn), select_name(select),
                         std::to_string(seed), crash ? "crash" : "lossy",
                         verdict, std::to_string(res.aborted_ranks),
                         std::to_string(res.faults),
                         std::to_string(res.retransmits),
                         apps::format_us(res.elapsed)});
        }
      }
    }
  }
  table.print(std::cout);
  report.add("violations", violations);
  report.add("total_faults", static_cast<double>(total_faults));
  report.write_and_note();
  if (total_faults == 0) {
    std::cout << "\nerror: the matrix injected no faults — the sweep is "
                 "vacuous\n";
    return 1;
  }
  if (violations != 0) {
    std::cout << "\nerror: " << violations
              << " cell(s) violated the liveness contract\n";
    return 1;
  }
  std::cout << "\nExpected: every lossy cell completes with bit-correct "
               "reductions; every\ncrash cell ends in clean aborts on the "
               "survivors. Zero hangs, zero leaks,\nzero silent corruption "
               "— the fault plane is exercised (faults > 0), the\n"
               "application never sees chaos that stays within the "
               "retransmit budget.\n";
  return violations == 0 ? 0 : 1;
}
