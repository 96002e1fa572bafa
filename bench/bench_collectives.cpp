// Topology-aware collectives: the topology-oblivious baseline (flat
// single-level algorithms with every hop on the fabric, as in the
// one-HCA-per-message era) versus the default, where the IPC channel
// carries co-located hops and the selection rule picks flat or the
// two-level variant (intra-node phases over IPC, the inter-node leg
// striped across the members' HCAs) per call. 8 ranks, blocked onto nodes
// at 2 and 4 ranks per node, swept across the Figure-5 message sizes. Same
// framing as bench_transport: "forced fabric" vs IPC-aware. Exits nonzero
// unless the default beats the baseline in every cell.
#include <iostream>
#include <string>
#include <vector>

#include "apps/reporting.hpp"
#include "bench_util.hpp"
#include "mpi/cluster.hpp"
#include "mpi/coll.hpp"

namespace bench = mv2gnc::bench;
namespace apps = mv2gnc::apps;
namespace core = mv2gnc::core;
namespace mpisim = mv2gnc::mpisim;
namespace sim = mv2gnc::sim;

namespace {

constexpr int kRanks = 8;

mpisim::ClusterConfig config(int rpn, core::TransportSelect transport) {
  mpisim::ClusterConfig cfg;
  cfg.ranks = kRanks;
  cfg.tunables.ranks_per_node = static_cast<std::size_t>(rpn);
  cfg.tunables.transport_select = transport;
  return cfg;
}

enum class Op { kAllreduce, kAllgather };

struct Measured {
  sim::SimTime elapsed = 0;
  bool two_level = false;  // the calls ran the two-level shape
};

// Virtual time for `iters` back-to-back collectives of `bytes` per rank,
// and the shape they took.
Measured measure(Op op, std::size_t bytes, int rpn,
                 core::TransportSelect transport, int iters) {
  mpisim::Cluster cluster(config(rpn, transport));
  cluster.run([&](mpisim::Context& ctx) {
    if (op == Op::kAllreduce) {
      const int count = static_cast<int>(bytes / sizeof(double));
      std::vector<double> in(static_cast<std::size_t>(count),
                             static_cast<double>(ctx.rank));
      std::vector<double> out(static_cast<std::size_t>(count));
      for (int i = 0; i < iters; ++i) {
        ctx.comm.allreduce_sum(in.data(), out.data(), count);
      }
    } else {
      auto dt = mpisim::Datatype::byte();
      dt.commit();
      const int count = static_cast<int>(bytes);
      std::vector<std::byte> in(bytes, std::byte{0x5A});
      std::vector<std::byte> out(bytes * kRanks);
      for (int i = 0; i < iters; ++i) {
        ctx.comm.allgather(in.data(), count, dt, out.data());
      }
    }
  });
  const auto& stats = cluster.coll_stats(0);
  const auto& op_stats =
      op == Op::kAllreduce ? stats.allreduce : stats.allgather;
  return {cluster.elapsed(), op_stats.hier_calls > 0};
}

// Returns the number of cells where the default did not beat the baseline.
int sweep(bench::JsonReport& report, Op op, const char* name, int rpn,
          const std::vector<std::size_t>& sizes) {
  apps::Table table(std::string(name) + ", 8 ranks, " + std::to_string(rpn) +
                        " ranks/node",
                    {"size", "flat, fabric-only (us)", "default (us)",
                     "improvement", "default shape"});
  int losses = 0;
  for (std::size_t s : sizes) {
    const int iters = s >= (1u << 20) ? 2 : 4;
    const Measured flat =
        measure(op, s, rpn, core::TransportSelect::kFabric, iters);
    const Measured def =
        measure(op, s, rpn, core::TransportSelect::kAuto, iters);
    if (def.elapsed >= flat.elapsed) ++losses;
    table.add_row({apps::format_bytes(s), apps::format_us(flat.elapsed),
                   apps::format_us(def.elapsed),
                   apps::format_improvement(static_cast<double>(flat.elapsed),
                                            static_cast<double>(def.elapsed)),
                   def.two_level ? "two-level" : "flat"});
    const std::string key =
        std::string(name) + "_rpn" + std::to_string(rpn) + "_" +
        std::to_string(s);
    report.add("flat_us_" + key, static_cast<double>(flat.elapsed) / 1000.0);
    report.add("default_us_" + key,
               static_cast<double>(def.elapsed) / 1000.0);
  }
  table.print(std::cout);
  return losses;
}

// One run with the per-collective and per-transport counter tables, so the
// phase split (intra over IPC, leader over the HCA) is visible at a glance.
void show_coll_stats() {
  mpisim::Cluster cluster(config(4, core::TransportSelect::kAuto));
  cluster.run([](mpisim::Context& ctx) {
    std::vector<double> in(32768, 1.0);
    std::vector<double> out(32768);
    ctx.comm.allreduce_sum(in.data(), out.data(), 32768);
    auto dt = mpisim::Datatype::byte();
    dt.commit();
    std::vector<std::byte> mine(65536);
    std::vector<std::byte> all(65536 * kRanks);
    ctx.comm.allgather(mine.data(), 65536, dt, all.data());
    ctx.comm.barrier();
  });
  std::cout << "\nPer-collective counters (default tunables, 8 ranks on 2 "
               "nodes):\n";
  cluster.print_stats(std::cout);
}

}  // namespace

int main() {
  bench::banner(
      "Topology-aware collectives vs flat over the fabric (8 ranks, blocked "
      "nodes)",
      "MVAPICH2-style shared-memory collectives over the transport seam");
  bench::JsonReport report("collectives");
  const std::vector<std::size_t> sizes{16,    64,     256,     1024,
                                       4096,  16384,  65536,   262144,
                                       1048576, 4194304};
  int losses = 0;
  for (const int rpn : {2, 4}) {
    losses += sweep(report, Op::kAllreduce, "allreduce", rpn, sizes);
    losses += sweep(report, Op::kAllgather, "allgather", rpn, sizes);
  }
  show_coll_stats();
  report.write_and_note();
  std::cout << "\nThe default beats flat-over-the-fabric in every cell: the "
               "intra-node hops\nride the lossless IPC channel instead of "
               "looping through the HCA, and\nwhere the rule picks two-level "
               "the inter-node leg is striped across the\nmembers, so each "
               "fabric round carries 1/n of the bytes through n HCAs\nin "
               "parallel.\n";
  if (losses > 0) {
    std::cerr << "FAIL: the default did not beat flat-over-the-fabric in "
              << losses << " cell(s)\n";
    return 1;
  }
  return 0;
}
