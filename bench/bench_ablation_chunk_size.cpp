// Ablation: pipeline block (chunk) size sweep.
//
// Paper §IV-B: "we found 64KB to be the optimal block size in our
// experimental environment" — its (n+2)*T(N/n) pipeline model trades
// per-chunk overhead against overlap depth. This bench regenerates that
// tuning curve for 1 MB and 4 MB vector messages; the shape should be
// U-like (or monotone-flat past the knee) with the knee near 64 KB. The
// last row is the library's own choice, which prices the makespan of the
// pack, D2H, H2D and unpack pipeline per candidate chunk.
#include <iostream>
#include <vector>

#include "apps/reporting.hpp"
#include "apps/vector_bench.hpp"
#include "bench_util.hpp"

namespace bench = mv2gnc::bench;
namespace apps = mv2gnc::apps;
namespace mpisim = mv2gnc::mpisim;
namespace sim = mv2gnc::sim;

int main() {
  bench::banner("Pipeline chunk-size tuning sweep",
                "Section IV-B (64 KB optimal block size)");
  const std::vector<std::size_t> chunks = {8u << 10, 16u << 10, 32u << 10,
                                           64u << 10, 128u << 10, 256u << 10,
                                           512u << 10, 1u << 20};
  apps::Table table("MV2-GPU-NC one-way vector latency vs chunk size",
                    {"chunk", "1M msg (us)", "4M msg (us)"});
  for (std::size_t chunk : chunks) {
    mpisim::ClusterConfig cfg;
    // Pin the chunk: with the default chunk_select=model the library would
    // pick its own block size and the sweep would be flat.
    cfg.tunables.chunk_select = mv2gnc::core::ChunkSelect::kFixed;
    cfg.tunables.chunk_bytes = chunk;
    const sim::SimTime t1m = apps::measure_vector_latency(
        apps::VectorMethod::kMv2GpuNc, (1u << 20) / 4, 3, cfg);
    const sim::SimTime t4m = apps::measure_vector_latency(
        apps::VectorMethod::kMv2GpuNc, (4u << 20) / 4, 3, cfg);
    table.add_row({apps::format_bytes(chunk), apps::format_us(t1m),
                   apps::format_us(t4m)});
  }
  {
    // Reference row: what the pipeline-makespan model picks on its own.
    mpisim::ClusterConfig cfg;
    const sim::SimTime t1m = apps::measure_vector_latency(
        apps::VectorMethod::kMv2GpuNc, (1u << 20) / 4, 3, cfg);
    const sim::SimTime t4m = apps::measure_vector_latency(
        apps::VectorMethod::kMv2GpuNc, (4u << 20) / 4, 3, cfg);
    table.add_row({"model", apps::format_us(t1m), apps::format_us(t4m)});
  }
  table.print(std::cout);
  std::cout << "\nThe knee should sit near the paper's 64 KB optimum; the\n"
               "cost-model row should match or beat the best fixed chunk.\n";
  return 0;
}
