// Intra-node transport comparison: the same Figure-5 vector layouts moved
// between two co-located GPUs over (a) the GPU-IPC fast path (peer D2D
// copies, no HCA) and (b) the same node pair forced onto the fabric
// (transport_select=fabric), which is also what the transfer costs when
// the ranks live on different nodes. The gap is the collapsed pipeline:
// D2D pack -> peer copy -> D2D unpack versus pack -> D2H -> RDMA -> H2D ->
// unpack. Two patterns: one-way ping-pong latency, and an exchange (irecv,
// send, wait on both ranks: stencil_halo's halo pattern, where each GPU
// packs its own halo while it unpacks the peer's).
//
// Exits nonzero unless IPC is at least as fast as the forced fabric in
// every row.
#include <iostream>
#include <vector>

#include "apps/reporting.hpp"
#include "apps/vector_bench.hpp"
#include "bench_util.hpp"

namespace bench = mv2gnc::bench;
namespace apps = mv2gnc::apps;
namespace core = mv2gnc::core;
namespace mpisim = mv2gnc::mpisim;
namespace sim = mv2gnc::sim;
using apps::VectorMethod;

namespace {

mpisim::ClusterConfig colocated(core::TransportSelect select) {
  mpisim::ClusterConfig cfg;
  cfg.tunables.ranks_per_node = 2;
  cfg.tunables.transport_select = select;
  return cfg;
}

// Time of one exchange of a `rows` x 4 B vector(rows, 1, 2, float): both
// ranks post the receive, send, then wait.
sim::SimTime measure_vector_exchange(std::size_t rows, int iterations,
                                     const mpisim::ClusterConfig& cfg) {
  mpisim::ClusterConfig c = cfg;
  c.ranks = 2;
  mpisim::Cluster cluster(c);
  sim::SimTime per_exchange = 0;
  constexpr int kWarmup = 2;
  cluster.run([&](mpisim::Context& ctx) {
    auto col = mpisim::Datatype::vector(static_cast<int>(rows), 1, 2,
                                        mpisim::Datatype::float32());
    col.commit();
    void* sbuf = ctx.cuda->malloc(rows * 8);
    void* rbuf = ctx.cuda->malloc(rows * 8);
    const int peer = 1 - ctx.rank;
    ctx.comm.barrier();
    sim::SimTime t0 = 0;
    for (int it = -kWarmup; it < iterations; ++it) {
      if (it == 0) {
        ctx.comm.barrier();
        t0 = ctx.engine->now();
      }
      mpisim::Request r = ctx.comm.irecv(rbuf, 1, col, peer, 0);
      ctx.comm.send(sbuf, 1, col, peer, 0);
      ctx.comm.wait(r);
    }
    if (ctx.rank == 0) per_exchange = (ctx.engine->now() - t0) / iterations;
    ctx.cuda->free(sbuf);
    ctx.cuda->free(rbuf);
  });
  return per_exchange;
}

enum class Pattern { kOneWay, kExchange };

// Returns true when IPC is at least as fast as the forced fabric at every
// size.
bool sweep(bench::JsonReport& report, const char* title, Pattern pattern,
           const std::vector<std::size_t>& sizes, int iterations) {
  const auto measure = [&](std::size_t rows, core::TransportSelect select) {
    return pattern == Pattern::kOneWay
               ? apps::measure_vector_latency(VectorMethod::kMv2GpuNc, rows,
                                              iterations, colocated(select))
               : measure_vector_exchange(rows, iterations, colocated(select));
  };
  const std::string key =
      pattern == Pattern::kOneWay ? "_us_" : "_exchange_us_";
  apps::Table table(title, {"size", "forced fabric (us)",
                            "intra-node IPC (us)", "improvement"});
  bool ipc_wins = true;
  for (std::size_t s : sizes) {
    const std::size_t rows = s / 4;
    const sim::SimTime fabric = measure(rows, core::TransportSelect::kFabric);
    const sim::SimTime ipc = measure(rows, core::TransportSelect::kAuto);
    ipc_wins = ipc_wins && ipc <= fabric;
    table.add_row({apps::format_bytes(s), apps::format_us(fabric),
                   apps::format_us(ipc),
                   apps::format_improvement(static_cast<double>(fabric),
                                            static_cast<double>(ipc))});
    report.add("fabric" + key + std::to_string(s),
               static_cast<double>(fabric) / 1000.0);
    report.add("ipc" + key + std::to_string(s),
               static_cast<double>(ipc) / 1000.0);
  }
  table.print(std::cout);
  return ipc_wins;
}

// One representative transfer with the per-transport counter table, so the
// split between the HCA and the in-node channel is visible at a glance.
void show_transport_stats() {
  mpisim::Cluster cluster(colocated(core::TransportSelect::kAuto));
  cluster.run([](mpisim::Context& ctx) {
    auto col = mpisim::Datatype::vector(262144, 1, 2,
                                        mpisim::Datatype::int32());
    col.commit();
    const std::size_t span = static_cast<std::size_t>(col.extent()) + 64;
    auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(span));
    if (ctx.rank == 0) ctx.comm.send(dev, 1, col, 1, 0);
    else ctx.comm.recv(dev, 1, col, 0, 0);
    ctx.cuda->free(dev);
  });
  std::cout << "\nPer-transport counters (1 MB vector, 2 ranks on 1 node):\n";
  cluster.print_stats(std::cout);
}

}  // namespace

int main() {
  bench::banner(
      "Intra-node GPU-IPC transport vs forced fabric (2 ranks, 1 node)",
      "Figure 5 layouts over the pluggable transport seam");
  bench::JsonReport report("transport");
  bool ipc_wins =
      sweep(report, "Small vectors", Pattern::kOneWay, {1024, 4096}, 5);
  ipc_wins &= sweep(report, "Large vectors", Pattern::kOneWay,
                    {65536, 262144, 1048576, 4194304}, 3);
  // 65,600 B is stencil_halo's east-west halo, just over the 64 KB
  // pipeline threshold.
  ipc_wins &= sweep(report, "Vector exchange", Pattern::kExchange,
                    {65600, 262144}, 3);
  show_transport_stats();
  report.write_and_note();
  std::cout << "\nExpected: the IPC fast path wins at every size — control "
               "messages skip the\nHCA and payload moves as one peer D2D "
               "copy instead of staging through host\nmemory.\n";
  std::cout << "IPC at least as fast as the forced fabric in every row: "
            << (ipc_wins ? "yes" : "NO") << "\n";
  return ipc_wins ? 0 : 1;
}
