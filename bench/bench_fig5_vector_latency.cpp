// Reproduces paper Figure 5: GPU-to-GPU vector communication latency for
// the three methods of Figure 4, small (16 B - 4 KB) and large (4 KB -
// 4 MB) messages, on a 1x2 process grid with 4-byte chunks.
//
// Expected shape: MV2-GPU-NC ~= the hand-written pipeline, both far below
// Cpy2D+Send; ~88% improvement at 4 MB.
//
// Exits nonzero unless, at every size, MV2-GPU-NC is no slower than the
// hand-written pipeline and within 1.2x of Cpy2D+Send (the library never
// loses badly to the naive code); a violation is reported on stderr, so
// stdout stays the table alone.
#include <iostream>
#include <vector>

#include "apps/reporting.hpp"
#include "apps/vector_bench.hpp"
#include "bench_util.hpp"

namespace bench = mv2gnc::bench;
namespace apps = mv2gnc::apps;
namespace sim = mv2gnc::sim;
using apps::VectorMethod;

namespace {

// Slack over Cpy2D+Send the library may take at any size.
constexpr double kBlockingSlack = 1.2;

// Prints one table; returns false when some size breaks the bounds above.
bool sweep(const char* title, const std::vector<std::size_t>& sizes,
           int iterations) {
  apps::Table table(title,
                    {"size", "Cpy2D+Send (us)",
                     "Cpy2DAsync+CpyAsync+Isend (us)", "MV2-GPU-NC (us)",
                     "improvement"});
  bool ok = true;
  for (std::size_t s : sizes) {
    const std::size_t rows = s / 4;
    const sim::SimTime blocking = apps::measure_vector_latency(
        VectorMethod::kCpy2DSend, rows, iterations, {});
    const sim::SimTime hand = apps::measure_vector_latency(
        VectorMethod::kCpy2DAsyncIsend, rows, iterations, {});
    const sim::SimTime nc = apps::measure_vector_latency(
        VectorMethod::kMv2GpuNc, rows, iterations, {});
    table.add_row({apps::format_bytes(s), apps::format_us(blocking),
                   apps::format_us(hand), apps::format_us(nc),
                   apps::format_improvement(static_cast<double>(blocking),
                                            static_cast<double>(nc))});
    if (nc > hand ||
        static_cast<double>(nc) >
            kBlockingSlack * static_cast<double>(blocking)) {
      std::cerr << "bench_fig5_vector_latency: " << apps::format_bytes(s)
                << ": MV2-GPU-NC " << apps::format_us(nc)
                << " us exceeds the hand-written pipeline ("
                << apps::format_us(hand) << " us) or " << kBlockingSlack
                << "x Cpy2D+Send (" << apps::format_us(blocking) << " us)\n";
      ok = false;
    }
  }
  table.print(std::cout);
  return ok;
}

}  // namespace

int main() {
  bench::banner("Vector communication latency (1x2 grid, 4 B chunks)",
                "Figure 5 (a) small and (b) large messages");
  bool ok = sweep("Figure 5(a): small messages", {16, 64, 256, 1024, 4096}, 5);
  ok &= sweep("Figure 5(b): large messages",
              {4096, 16384, 65536, 262144, 1048576, 4194304}, 3);
  std::cout << "\nPaper: up to 88% latency improvement for the 4 MB vector.\n";
  return ok ? 0 : 1;
}
