// Pack-plan engine benchmarks.
//
// Three claims, in order:
//   1. The plan cache removes per-send planning overhead: a warm
//      PlanCache::get is >= 10x cheaper than rebuilding the plan of an
//      irregular 4096-run hindexed type (the decompose work every send
//      paid before the cache); the bench exits nonzero otherwise. A regular
//      type costs O(blocks), not O(rows), to commit and plan cold: fig5's
//      4 MB vector(n, 1, 2, float) is one strided block. This section
//      measures real wall-clock time, not simulated time.
//   2. Sub-pattern decomposition pays on the wire: a decomposable
//      hindexed layout (batched cudaMemcpy2DAsync pack) beats a
//      degenerate layout of identical packed size and run count that
//      must take the generalized per-run kernel.
//   3. Section V-B3 ablation: the cost model picks the pipeline chunk per
//      message, minimizing the modeled makespan of the pipeline the
//      transfer runs (sum of the stages + (n-1) x the slowest, over the
//      GPU copies; see core/gpu_staging.hpp). Pipelining activates only
//      beyond the 64 KB pipeline threshold, and chunk_select=fixed remains
//      a hard override for A/B tuning.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <numeric>
#include <vector>

#include "apps/reporting.hpp"
#include "apps/vector_bench.hpp"
#include "bench_util.hpp"
#include "core/gpu_staging.hpp"
#include "core/msg_view.hpp"
#include "core/pack_plan.hpp"
#include "core/tunables.hpp"
#include "mpi/cluster.hpp"
#include "mpi/datatype.hpp"

namespace apps = mv2gnc::apps;
namespace bench = mv2gnc::bench;
namespace core = mv2gnc::core;
namespace mpisim = mv2gnc::mpisim;
namespace sim = mv2gnc::sim;
using mpisim::Datatype;

namespace {

// The stages a device-resident vector takes over the fabric: device pack,
// D2H, then H2D and unpack at the receiver.
constexpr core::SendStages kFabricOffload{
    true, core::SendStages::ToHost::kD2HCopy, core::SendStages::Wire::kSlot};

// Wall-clock nanoseconds per call of `fn` over `iters` calls.
template <typename Fn>
double wall_ns_per_call(int iters, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
}

// 4096-run hindexed type with uneven run lengths (32, 48, 64 B in turn).
// Commit flattens it (hindexed has no canonical form), and no two adjacent
// runs share a length, so it keeps one block per run: a cold plan build is
// O(runs), the cost the cache exists to skip.
Datatype planning_workload() {
  std::vector<int> lens(4096);
  std::vector<std::int64_t> displs(4096);
  for (std::size_t i = 0; i < displs.size(); ++i) {
    lens[i] = 32 + static_cast<int>(i % 3) * 16;
    displs[i] = static_cast<std::int64_t>(i) * 128;
  }
  Datatype t = Datatype::hindexed(lens, displs, Datatype::byte());
  t.commit();
  return t;
}

// 65536 x 16 B runs (1 MB packed) in 8 uniform groups: decomposes into 8
// sub-patterns, so a pipeline chunk packs as one or two batched 2-D copies
// covering thousands of rows each — deep enough past the per-row cost knee
// that batching beats issuing every run individually.
Datatype decomposable_1mb(std::size_t& span) {
  std::vector<int> lens(65536, 16);
  std::vector<std::int64_t> displs(65536);
  std::int64_t base = 0;
  for (int g = 0; g < 8; ++g) {
    for (int i = 0; i < 8192; ++i) displs[g * 8192 + i] = base + i * 32;
    base += 8192 * 32 + 4096;  // gap breaks the uniform stride between groups
  }
  span = static_cast<std::size_t>(base);
  Datatype t = Datatype::hindexed(lens, displs, Datatype::byte());
  t.commit();
  return t;
}

// Same packed bytes and run count, but alternating 8/24 B lengths defeat
// grouping: the plan stays kIrregular and packs with the generalized kernel,
// paying the full per-run cost for every one of the 65536 runs.
Datatype degenerate_1mb(std::size_t& span) {
  std::vector<int> lens(65536);
  std::vector<std::int64_t> displs(65536);
  for (int i = 0; i < 65536; ++i) {
    lens[i] = 8 + (i % 2) * 16;
    displs[i] = static_cast<std::int64_t>(i) * 32;
  }
  span = 65536u * 32u;
  Datatype t = Datatype::hindexed(lens, displs, Datatype::byte());
  t.commit();
  return t;
}

// One-way ping-pong latency of a device-resident `t` between two GPUs.
sim::SimTime dtype_latency(const Datatype& t, std::size_t span,
                           const mpisim::ClusterConfig& cfg, int iters = 3) {
  mpisim::ClusterConfig c = cfg;
  c.ranks = 2;
  mpisim::Cluster cluster(c);
  sim::SimTime one_way = 0;
  cluster.run([&](mpisim::Context& ctx) {
    void* dev = ctx.cuda->malloc(span);
    const int peer = 1 - ctx.rank;
    ctx.comm.barrier();
    sim::SimTime t0 = 0;
    for (int it = -1; it < iters; ++it) {
      if (it == 0) {
        ctx.comm.barrier();
        t0 = ctx.engine->now();
      }
      if (ctx.rank == 0) {
        ctx.comm.send(dev, 1, t, peer, 0);
        ctx.comm.recv(dev, 1, t, peer, 0);
      } else {
        ctx.comm.recv(dev, 1, t, peer, 0);
        ctx.comm.send(dev, 1, t, peer, 0);
      }
    }
    if (ctx.rank == 0) one_way = (ctx.engine->now() - t0) / (2 * iters);
  });
  return one_way;
}

}  // namespace

int main() {
  bench::JsonReport json("pack_plan");

  // -- 1. planning overhead: cold build vs warm cache hit ------------------
  bench::banner("Plan cache: per-send planning overhead",
                "design goal: repeated sends skip flatten + decompose");
  auto& cache = core::PlanCache::instance();
  cache.reset();
  const Datatype workload = planning_workload();
  constexpr int kPlanIters = 400;
  const double cold_ns = wall_ns_per_call(kPlanIters, [&] {
    auto p = core::PackPlan::build(workload, 1);
    (void)p;
  });
  cache.get(workload, 1);  // prime
  const double warm_ns = wall_ns_per_call(kPlanIters, [&] {
    auto p = cache.get(workload, 1);
    (void)p;
  });
  const double speedup = cold_ns / warm_ns;
  std::cout << "\n4096-run irregular hindexed, per plan acquisition (wall "
               "clock):\n"
            << "  cold PackPlan::build : " << cold_ns << " ns\n"
            << "  warm PlanCache::get  : " << warm_ns << " ns\n"
            << "  speedup              : " << speedup << "x\n";
  json.add("plan_cold_build_ns", cold_ns);
  json.add("plan_warm_get_ns", warm_ns);
  json.add("plan_cache_speedup", speedup);

  // A fresh handle each call, so nothing is cached: the set-up cost every
  // rank pays before its first 4 MB vector send.
  constexpr int kFig5Rows = (4 << 20) / 4;
  constexpr int kCommitIters = 50;
  const double commit_plan_ns = wall_ns_per_call(kCommitIters, [] {
    Datatype t = Datatype::vector(kFig5Rows, 1, 2, Datatype::float32());
    t.commit();
    auto p = core::PackPlan::build(t, 1);
    (void)p;
  });
  std::cout << "\nfig5 4 MB vector(n, 1, 2, float), cold (wall clock):\n"
            << "  commit + PackPlan::build: " << commit_plan_ns << " ns\n";
  json.add("fig5_4mb_vector_commit_plan_ns", commit_plan_ns);

  // -- 2. irregular layouts: batched 2-D vs generalized kernel -------------
  bench::banner("Irregular pipelined latency: batched 2-D vs generalized",
                "Section IV-A generalization of the Figure 2 pack schemes");
  cache.reset();
  std::size_t span_dec = 0, span_deg = 0;
  const Datatype dec = decomposable_1mb(span_dec);
  const Datatype deg = degenerate_1mb(span_deg);
  mpisim::ClusterConfig cfg;  // defaults: model-driven selection, offload on
  const sim::SimTime t_dec = dtype_latency(dec, span_dec, cfg);
  const sim::SimTime t_deg = dtype_latency(deg, span_deg, cfg);
  apps::Table irr("1 MB packed, 65536 runs, one-way latency",
                  {"layout", "pack path", "latency (us)"});
  irr.add_row({"8 uniform groups", "batched memcpy2d", apps::format_us(t_dec)});
  irr.add_row({"alternating 8/24", "generalized kernel",
               apps::format_us(t_deg)});
  irr.print(std::cout);
  std::cout << "batched improvement over generalized: "
            << apps::format_improvement(static_cast<double>(t_deg),
                                        static_cast<double>(t_dec))
            << "\n";
  const auto stats = mpisim::Cluster::plan_cache_stats();
  std::cout << "plan cache after both runs: " << stats.lookups()
            << " lookups, " << stats.hits << " hits, " << stats.misses
            << " misses\n";
  json.add("irregular_batched_us", sim::to_us(t_dec));
  json.add("irregular_generalized_us", sim::to_us(t_deg));
  json.add("plan_cache_hits", static_cast<double>(stats.hits));
  json.add("plan_cache_misses", static_cast<double>(stats.misses));

  // -- 3. cost-model chunk selection ablation ------------------------------
  bench::banner("Chunk selection: cost model vs fixed 64 KB vs forced 16 KB",
                "Sections IV-B and V-B3 (pipeline block size)");
  const std::vector<std::size_t> sizes = {16u << 10, 64u << 10, 256u << 10,
                                          1u << 20, 4u << 20};
  apps::Table ab("MV2-GPU-NC vector latency by chunk policy",
                 {"msg", "model chunk", "chunks", "model (us)", "fixed 64K (us)",
                  "forced 16K (us)"});
  for (std::size_t bytes : sizes) {
    const std::size_t rows = bytes / 4;
    // What the model picks for this message (device-resident vector).
    std::size_t model_chunk = 0;
    bench::run_single_gpu([&](sim::Engine&, mv2gnc::cusim::CudaContext& ctx) {
      Datatype t = Datatype::vector(static_cast<int>(rows), 1, 2,
                                    Datatype::float32());
      t.commit();
      void* dev = ctx.malloc(rows * 8);
      const auto msg =
          core::MsgView::make(dev, 1, t, ctx.device().registry());
      core::Tunables tun;
      model_chunk =
          bytes <= tun.pipeline_threshold  // below it the rndv path
              ? bytes                      // sends one unpipelined chunk
              : core::select_chunk_bytes(ctx.device().cost(), msg,
                                         kFabricOffload, tun.chunk_bytes);
      ctx.free(dev);
    });
    mpisim::ClusterConfig model_cfg;  // chunk_select defaults to the model
    mpisim::ClusterConfig fixed_cfg;
    fixed_cfg.tunables.chunk_select = core::ChunkSelect::kFixed;
    mpisim::ClusterConfig forced_cfg;
    forced_cfg.tunables.chunk_select = core::ChunkSelect::kFixed;
    forced_cfg.tunables.chunk_bytes = 16u << 10;
    const sim::SimTime t_model = apps::measure_vector_latency(
        apps::VectorMethod::kMv2GpuNc, rows, 3, model_cfg);
    const sim::SimTime t_fixed = apps::measure_vector_latency(
        apps::VectorMethod::kMv2GpuNc, rows, 3, fixed_cfg);
    const sim::SimTime t_forced = apps::measure_vector_latency(
        apps::VectorMethod::kMv2GpuNc, rows, 3, forced_cfg);
    const std::size_t nchunks = (bytes + model_chunk - 1) / model_chunk;
    ab.add_row({apps::format_bytes(bytes), apps::format_bytes(model_chunk),
                std::to_string(nchunks), apps::format_us(t_model),
                apps::format_us(t_fixed), apps::format_us(t_forced)});
    json.add("chunk_model_bytes_" + apps::format_bytes(bytes),
             static_cast<double>(model_chunk));
    json.add("latency_model_us_" + apps::format_bytes(bytes),
             sim::to_us(t_model));
    json.add("latency_fixed64k_us_" + apps::format_bytes(bytes),
             sim::to_us(t_fixed));
    json.add("latency_forced16k_us_" + apps::format_bytes(bytes),
             sim::to_us(t_forced));
  }
  ab.print(std::cout);
  std::cout << "\nMessages at or below the 64 KB pipeline threshold go as a\n"
               "single chunk; beyond it the model picks the block that\n"
               "minimizes the modeled makespan of the pack, D2H, H2D and\n"
               "unpack pipeline. chunk_select=fixed pins the configured\n"
               "chunk_bytes regardless (forced 16 KB column).\n";

  json.write_and_note();
  if (speedup < 10.0) {
    std::cout << "\nFAIL: a warm PlanCache::get is only " << speedup
              << "x cheaper than a cold build (claim 1 needs >= 10x)\n";
    return 1;
  }
  return 0;
}
