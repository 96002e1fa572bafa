// Pack-plan engine: canonical signatures, the two-tier plan cache, chunk
// cursor tables, sub-pattern decomposition, and the cost-model-driven
// chunk/scheme selection helpers.
#include "core/pack_plan.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <vector>

#include "core/gpu_staging.hpp"
#include "core/msg_view.hpp"
#include "cuda/runtime.hpp"
#include "gpu/cost_model.hpp"
#include "gpu/device.hpp"
#include "gpu/memory_registry.hpp"
#include "mpi/datatype.hpp"
#include "sim/engine.hpp"

namespace core = mv2gnc::core;
namespace cusim = mv2gnc::cusim;
namespace gpu = mv2gnc::gpu;
namespace sim = mv2gnc::sim;
using core::LayoutClass;
using core::PackPlan;
using core::PlanCache;
using mv2gnc::mpisim::ArrayOrder;
using mv2gnc::mpisim::Datatype;

namespace {

Datatype committed(Datatype t) {
  t.commit();
  return t;
}

// Two arithmetic runs of equal 16-byte blocks: genuinely irregular (no
// single vector pattern) yet perfectly decomposable.
Datatype two_run_hindexed(int rows_per_run = 8) {
  std::vector<int> lens(static_cast<std::size_t>(2 * rows_per_run), 4);
  std::vector<std::int64_t> displs;
  for (int i = 0; i < rows_per_run; ++i) displs.push_back(i * 64);
  for (int i = 0; i < rows_per_run; ++i) displs.push_back(4096 + i * 48);
  return committed(Datatype::hindexed(lens, displs, Datatype::int32()));
}

}  // namespace

TEST(PackPlan, ContiguousClassification) {
  auto plan = PackPlan::build(committed(Datatype::int32()), 16);
  EXPECT_EQ(plan->layout(), LayoutClass::kContiguous);
  EXPECT_TRUE(plan->contiguous());
  EXPECT_EQ(plan->packed_bytes(), 64u);
  EXPECT_EQ(plan->total_segments(), 1u);
}

TEST(PackPlan, SingleVectorClassification) {
  auto t = committed(Datatype::vector(64, 1, 4, Datatype::int32()));
  auto plan = PackPlan::build(t, 1);
  EXPECT_EQ(plan->layout(), LayoutClass::kSingleVector);
  ASSERT_EQ(plan->subpatterns().size(), 1u);
  EXPECT_EQ(plan->subpatterns()[0].rows, 64u);
  EXPECT_EQ(plan->subpatterns()[0].block, 4u);
  EXPECT_EQ(plan->subpatterns()[0].stride, 16);
}

TEST(PackPlan, Halo3dFacesClassification) {
  // examples/halo3d.cpp's faces: interior-sized subarrays of a 34x50x66
  // brick of doubles (C order, x fastest), one index thick along `dim`.
  const auto face = [](int dim) {
    const std::array<int, 3> sizes{34, 50, 66};
    std::array<int, 3> subsizes{32, 48, 64};
    std::array<int, 3> starts{1, 1, 1};
    subsizes[dim] = 1;
    return PackPlan::build(
        committed(Datatype::subarray(sizes, subsizes, starts, ArrayOrder::kC,
                                     Datatype::float64())),
        1);
  };
  // dim 0: 48 rows of 64 doubles, one plane.
  const auto z = face(0);
  EXPECT_EQ(z->layout(), LayoutClass::kSingleVector);
  ASSERT_EQ(z->subpatterns().size(), 1u);
  EXPECT_EQ(z->subpatterns()[0].rows, 48u);
  EXPECT_EQ(z->subpatterns()[0].block, 512u);
  EXPECT_EQ(z->subpatterns()[0].stride, 528);
  // dim 1: one row of 64 doubles in each of 32 planes.
  const auto y = face(1);
  EXPECT_EQ(y->layout(), LayoutClass::kSingleVector);
  ASSERT_EQ(y->subpatterns().size(), 1u);
  EXPECT_EQ(y->subpatterns()[0].rows, 32u);
  EXPECT_EQ(y->subpatterns()[0].stride, 26400);
  // dim 2: a column of 48 doubles in each of 32 planes — a 3-D block the
  // plan expands into one 2-D copy per plane.
  const auto x = face(2);
  EXPECT_EQ(x->layout(), LayoutClass::kSubPatterned);
  ASSERT_EQ(x->subpatterns().size(), 32u);
  for (std::size_t i = 0; i < x->subpatterns().size(); ++i) {
    const core::SubPattern& sp = x->subpatterns()[i];
    EXPECT_EQ(sp.rows, 48u);
    EXPECT_EQ(sp.block, 8u);
    EXPECT_EQ(sp.stride, 528);
    EXPECT_EQ(sp.first_offset,
              static_cast<std::int64_t>((1 + i) * 26400 + 528 + 8));
    EXPECT_EQ(sp.packed_offset, i * 48 * 8);
  }
}

TEST(PackPlan, HugeVectorCommitsAndPlansInConstantMemory) {
  // vector(2^26, 1, 2, float): flattened, its segment list alone would be
  // 1 GiB, plus a 0.5 GiB prefix table. Its canonical form is one strided
  // block, so committing and planning it must not move the peak RSS of
  // this process (ctest runs each case in a process of its own).
  const auto peak_rss_kb = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
  };
  const long before = peak_rss_kb();
  Datatype t = Datatype::vector(1 << 26, 1, 2, Datatype::float32());
  t.commit();
  const auto plan = PackPlan::build(t, 1);
  EXPECT_LT(peak_rss_kb() - before, 16 * 1024);

  constexpr std::size_t kRows = std::size_t{1} << 26;
  EXPECT_EQ(t.size(), 4 * kRows);
  EXPECT_EQ(t.extent(), static_cast<std::int64_t>(8 * kRows - 4));
  EXPECT_EQ(t.total_segments(1), kRows);
  EXPECT_EQ(plan->total_segments(), kRows);
  EXPECT_EQ(plan->layout(), LayoutClass::kSingleVector);
  ASSERT_EQ(plan->subpatterns().size(), 1u);
  const core::SubPattern& sp = plan->subpatterns()[0];
  EXPECT_EQ(sp.first_offset, 0);
  EXPECT_EQ(sp.rows, kRows);
  EXPECT_EQ(sp.block, 4u);
  EXPECT_EQ(sp.stride, 8);
  EXPECT_EQ(sp.packed_offset, 0u);
}

TEST(PackPlan, SignatureFoldsContiguousNesting) {
  auto flat = committed(Datatype::contiguous(12, Datatype::int32()));
  auto nested = committed(
      Datatype::contiguous(4, Datatype::contiguous(3, Datatype::int32())));
  EXPECT_EQ(PackPlan::build(flat, 2)->signature(),
            PackPlan::build(nested, 2)->signature());
}

TEST(PackPlan, SignatureCollapsesVectorOfVector) {
  // hvector of 1-row vectors == the flat vector with the same stride.
  auto flat = committed(Datatype::vector(8, 2, 4, Datatype::int32()));
  auto nested = committed(Datatype::hvector(
      8, 1, 16, Datatype::contiguous(2, Datatype::int32())));
  EXPECT_EQ(PackPlan::build(flat, 1)->signature(),
            PackPlan::build(nested, 1)->signature());
}

TEST(PackPlan, SignatureDistinguishesExtent) {
  auto a = committed(Datatype::vector(8, 1, 4, Datatype::int32()));
  auto b = committed(
      Datatype::resized(Datatype::vector(8, 1, 4, Datatype::int32()), 0, 256));
  EXPECT_NE(PackPlan::build(a, 1)->signature(),
            PackPlan::build(b, 1)->signature());
}

TEST(PackPlan, SubPatternDecomposition) {
  auto plan = PackPlan::build(two_run_hindexed(), 1);
  EXPECT_EQ(plan->layout(), LayoutClass::kSubPatterned);
  ASSERT_EQ(plan->subpatterns().size(), 2u);
  const auto& a = plan->subpatterns()[0];
  const auto& b = plan->subpatterns()[1];
  EXPECT_EQ(a.rows, 8u);
  EXPECT_EQ(a.block, 16u);
  EXPECT_EQ(a.stride, 64);
  EXPECT_EQ(a.packed_offset, 0u);
  EXPECT_EQ(b.rows, 8u);
  EXPECT_EQ(b.stride, 48);
  EXPECT_EQ(b.first_offset, 4096);
  EXPECT_EQ(b.packed_offset, a.packed_bytes());
  EXPECT_EQ(a.packed_bytes() + b.packed_bytes(), plan->packed_bytes());
}

TEST(PackPlan, DegenerateListStaysIrregular) {
  // Alternating block lengths defeat uniform grouping: every run becomes
  // its own sub-pattern, so the plan must fall back to the generalized
  // kernel classification.
  std::vector<int> lens;
  std::vector<std::int64_t> displs;
  for (int i = 0; i < 16; ++i) {
    lens.push_back(1 + (i % 2) * 2);
    displs.push_back(i * 40);
  }
  auto t = committed(Datatype::hindexed(lens, displs, Datatype::int32()));
  auto plan = PackPlan::build(t, 1);
  EXPECT_EQ(plan->layout(), LayoutClass::kIrregular);
  EXPECT_TRUE(plan->subpatterns().empty());
}

TEST(PackPlan, SegmentsInRangeIsExact) {
  // 8 rows of 4 bytes per element, two elements. The extent is padded so
  // the last row of one element does not abut the first row of the next
  // (which would merge across the seam and leave 15 runs, not 16).
  auto t = committed(Datatype::resized(
      Datatype::vector(8, 1, 4, Datatype::int32()), 0, 120));
  auto plan = PackPlan::build(t, 2);
  EXPECT_EQ(plan->total_segments(), 16u);
  EXPECT_EQ(plan->segments_in_range(0, 64), 16u);
  EXPECT_EQ(plan->segments_in_range(0, 4), 1u);
  EXPECT_EQ(plan->segments_in_range(4, 8), 2u);   // rows 1..2
  EXPECT_EQ(plan->segments_in_range(2, 4), 2u);   // straddles rows 0..1
  EXPECT_EQ(plan->segments_in_range(30, 4), 2u);  // straddles the elem seam
  EXPECT_EQ(plan->segments_in_range(0, 0), 0u);
  EXPECT_THROW(plan->segments_in_range(60, 8), std::out_of_range);
}

TEST(PackPlan, ChunkCursorTables) {
  auto t = committed(Datatype::vector(8, 1, 4, Datatype::int32()));
  auto plan = PackPlan::build(t, 4);  // 128 packed bytes
  auto table = plan->chunk_cursors(48);
  ASSERT_EQ(table->count, 3u);  // 48 + 48 + 32
  EXPECT_EQ(table->cursors[0], (mv2gnc::mpisim::PackCursor{0, 0, 0}));
  // 48 bytes = 12 rows = one element + 4 rows.
  EXPECT_EQ(table->cursors[1], (mv2gnc::mpisim::PackCursor{1, 4, 0}));
  EXPECT_EQ(table->cursors[2], (mv2gnc::mpisim::PackCursor{3, 0, 0}));
  EXPECT_EQ(table->segments[0], 12u);
  EXPECT_EQ(table->segments[1], 12u);
  EXPECT_EQ(table->segments[2], 8u);
  // Memoized: the same table object comes back.
  EXPECT_EQ(plan->chunk_cursors(48).get(), table.get());
}

TEST(PlanCacheTest, NodeFastPathHits) {
  auto& cache = PlanCache::instance();
  cache.reset();
  auto t = committed(Datatype::vector(16, 1, 4, Datatype::int32()));
  auto p1 = cache.get(t, 3);
  auto p2 = cache.get(t, 3);
  EXPECT_EQ(p1.get(), p2.get());
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  // A different count is a different plan.
  auto p3 = cache.get(t, 4);
  EXPECT_NE(p1.get(), p3.get());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PlanCacheTest, SignatureTierDedupesDistinctTrees) {
  auto& cache = PlanCache::instance();
  cache.reset();
  auto a = committed(Datatype::vector(16, 1, 4, Datatype::int32()));
  auto b = committed(Datatype::vector(16, 1, 4, Datatype::int32()));
  ASSERT_NE(a.node_id(), b.node_id());
  auto pa = cache.get(a, 2);
  auto pb = cache.get(b, 2);
  EXPECT_EQ(pa.get(), pb.get());
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.signature_dedups, 1u);
  EXPECT_EQ(cache.size(), 1u);
  // The alias now hits the fast path.
  cache.get(b, 2);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(PlanCacheTest, LruEvictsLeastRecentlyUsed) {
  auto& cache = PlanCache::instance();
  cache.reset();
  cache.set_capacity(4);
  std::vector<Datatype> keep;
  for (int i = 1; i <= 8; ++i) {
    keep.push_back(committed(Datatype::vector(i + 1, 1, 4, Datatype::int32())));
    cache.get(keep.back(), 1);
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 4u);
  // The evicted first entry rebuilds on next use.
  cache.get(keep.front(), 1);
  EXPECT_EQ(cache.stats().misses, 9u);
  cache.set_capacity(256);
  cache.reset();
}

TEST(CostSelection, ModelPrefersOffloadForFineGrainedRows) {
  const auto cost = gpu::GpuCostModel::tesla_c2050();
  gpu::MemoryRegistry reg;
  std::vector<std::byte> buf(1 << 20);
  const auto pick = [&](const core::MsgView& m) {
    return core::pick_pack_scheme(cost, m, m.packed_bytes, true);
  };
  // 4-byte rows: per-row PCIe cost dominates, offload must win (Fig. 2).
  auto fine = committed(Datatype::vector(4096, 1, 4, Datatype::int32()));
  auto mfine = core::MsgView::make(buf.data(), 1, fine, reg);
  EXPECT_EQ(pick(mfine), core::PackScheme::kD2D2H_nc2c2c);
  // Few huge rows: the strided PCIe copy is nearly contiguous already and
  // the extra D2D stage only adds time.
  auto coarse = committed(
      Datatype::vector(4, 65536, 65536 * 2, Datatype::int32()));
  auto mcoarse = core::MsgView::make(buf.data(), 1, coarse, reg);
  EXPECT_EQ(pick(mcoarse), core::PackScheme::kD2H_nc2c);
}

TEST(CostSelection, SchemeRegretIsZeroOnOneDevice) {
  // Figure 2 on one simulated device: time the blocking nc2c and nc2c2c
  // staging of single-vector layouts, to the host and back, and check that
  // pick_pack_scheme names the faster of the two (a tie may go either
  // way). Rows of 4, 16, 64 and 256 B; 1-2048 rows, a few counts per
  // decade plus both sides of the model's crossover.
  sim::Engine eng;
  gpu::MemoryRegistry reg;
  gpu::Device dev(eng, reg, 0, gpu::GpuCostModel::tesla_c2050(), 64u << 20);
  cusim::CudaContext ctx(dev);
  const auto vec = [](std::size_t width, std::size_t rows) {
    const int elems = static_cast<int>(width / 4);
    return committed(Datatype::vector(static_cast<int>(rows), elems,
                                      2 * elems, Datatype::int32()));
  };
  std::size_t cells = 0;
  eng.spawn("regret", [&] {
    for (const std::size_t width : {4u, 16u, 64u, 256u}) {
      std::vector<std::size_t> grid{1,   2,   3,   5,    10,   20,  30, 50,
                                    100, 200, 300, 500, 1000, 2000, 2048};
      // The fewest rows the model packs on the device. Pricing never
      // touches the bytes, so a small host base stands in for the buffer.
      std::size_t crossover = 0;
      std::byte base[8] = {};
      for (std::size_t rows = 2; rows <= 2048 && crossover == 0; ++rows) {
        const auto msg = core::MsgView::make(base, 1, vec(width, rows), reg);
        if (core::pick_pack_scheme(dev.cost(), msg, msg.packed_bytes, true) ==
            core::PackScheme::kD2D2H_nc2c2c) {
          crossover = rows;
        }
      }
      ASSERT_GT(crossover, 2u) << width << " B rows";
      grid.push_back(crossover - 1);
      grid.push_back(crossover);
      for (const std::size_t rows : grid) {
        const Datatype t = vec(width, rows);
        void* d = ctx.malloc(static_cast<std::size_t>(t.extent()));
        const auto msg = core::MsgView::make(d, 1, t, reg);
        std::vector<std::byte> host(msg.packed_bytes);
        const auto timed = [&](core::PackScheme s, bool to_host) {
          const sim::SimTime t0 = eng.now();
          if (to_host) {
            core::stage_to_host(ctx, s, msg, host.data());
          } else {
            core::stage_from_host(ctx, s, msg, host.data());
          }
          return eng.now() - t0;
        };
        const core::PackScheme pick =
            core::pick_pack_scheme(dev.cost(), msg, msg.packed_bytes, true);
        for (const bool to_host : {true, false}) {
          const sim::SimTime nc2c = timed(core::PackScheme::kD2H_nc2c, to_host);
          const sim::SimTime nc2c2c =
              timed(core::PackScheme::kD2D2H_nc2c2c, to_host);
          const sim::SimTime picked =
              pick == core::PackScheme::kD2D2H_nc2c2c ? nc2c2c : nc2c;
          EXPECT_LE(picked, std::min(nc2c, nc2c2c))
              << width << " B x " << rows << " rows, "
              << (to_host ? "to host" : "from host") << ": nc2c " << nc2c
              << " ns, nc2c2c " << nc2c2c << " ns";
          ++cells;
        }
        ctx.free(d);
      }
    }
  });
  eng.run();
  EXPECT_EQ(cells, 4u * 17u * 2u);
}

// The stage descriptors of the routes a device-resident message can take
// (the table in core/rndv.hpp).
constexpr core::SendStages kFabricOffload{
    true, core::SendStages::ToHost::kD2HCopy, core::SendStages::Wire::kSlot};
constexpr core::SendStages kFabricPcie{
    false, core::SendStages::ToHost::kPcieStrided,
    core::SendStages::Wire::kSlot};
constexpr core::SendStages kFabricContig{
    false, core::SendStages::ToHost::kD2HCopy, core::SendStages::Wire::kSlot};
constexpr core::SendStages kIpcStrided{
    true, core::SendStages::ToHost::kNone, core::SendStages::Wire::kTbuf};
constexpr core::SendStages kIpcContig{
    false, core::SendStages::ToHost::kNone, core::SendStages::Wire::kUser};

// fig5's `rows` x 4 B vector(rows, 1, 2, float), one element. The pricing
// never touches the bytes, so every view shares one small base buffer.
core::MsgView fig5_vector(std::size_t rows, gpu::MemoryRegistry& reg) {
  static std::byte base[64];
  return core::MsgView::make(
      base, 1,
      committed(
          Datatype::vector(static_cast<int>(rows), 1, 2, Datatype::float32())),
      reg);
}

TEST(CostSelection, ChunkMinimizesLatencyModel) {
  const auto cost = gpu::GpuCostModel::tesla_c2050();
  gpu::MemoryRegistry reg;
  for (const std::size_t rows : {16'400u, 262'144u, 1'048'576u}) {
    const core::MsgView msg = fig5_vector(rows, reg);
    for (const core::SendStages& st : {kFabricOffload, kFabricPcie,
                                       kIpcStrided}) {
      const std::size_t chosen =
          core::select_chunk_bytes(cost, msg, st, 64 * 1024);
      ASSERT_GT(chosen, 0u);
      ASSERT_LE(chosen, msg.packed_bytes);
      EXPECT_EQ(chosen % 4, 0u) << "chunk splits a row";
      // No power-of-two candidate has a shorter modeled makespan.
      for (std::size_t c = 8 * 1024; c <= (1u << 20); c *= 2) {
        const std::size_t cand = std::min<std::size_t>(c, msg.packed_bytes);
        EXPECT_LE(core::modeled_pipeline_time(cost, msg, st, chosen),
                  core::modeled_pipeline_time(cost, msg, st, cand))
            << rows << " rows, candidate " << c;
      }
    }
  }
}

TEST(CostSelection, StageTimeScalesWithSegmentDensity) {
  const auto cost = gpu::GpuCostModel::tesla_c2050();
  gpu::MemoryRegistry reg;
  std::vector<std::byte> buf(64);
  auto fine = committed(Datatype::vector(4096, 1, 2, Datatype::int32()));
  auto wide = committed(Datatype::vector(16, 256, 512, Datatype::int32()));
  auto mfine = core::MsgView::make(buf.data(), 64, fine, reg);
  auto mwide = core::MsgView::make(buf.data(), 64, wide, reg);
  ASSERT_EQ(mfine.packed_bytes, mwide.packed_bytes);
  for (const core::SendStages& st : {kFabricOffload, kIpcStrided}) {
    EXPECT_GT(core::modeled_pipeline_time(cost, mfine, st, 64 * 1024),
              core::modeled_pipeline_time(cost, mwide, st, 64 * 1024));
  }
}

TEST(CostSelection, MakespanSumsTheStagesOnce) {
  // One chunk pays each priced copy once; each further chunk adds the
  // slowest. Over IPC a strided chunk is packed and unpacked (two equal
  // D2D 2-D copies); over the fabric it also crosses PCIe both ways.
  const auto cost = gpu::GpuCostModel::tesla_c2050();
  gpu::MemoryRegistry reg;
  const core::MsgView msg = fig5_vector(16'400, reg);  // 65,600 B
  const sim::SimTime pack = cost.copy2d_time(
      4, 16'400, gpu::CopyDir::kDeviceToDevice, gpu::Layout2D::kPack, false);
  EXPECT_EQ(core::modeled_pipeline_time(cost, msg, kIpcStrided, 65'600),
            2 * pack);
  EXPECT_EQ(core::modeled_pipeline_time(cost, msg, kFabricOffload, 65'600),
            2 * pack + cost.copy_time(65'600, gpu::CopyDir::kDeviceToHost) +
                cost.copy_time(65'600, gpu::CopyDir::kHostToDevice));
  const sim::SimTime pack8k = cost.copy2d_time(
      4, 2'048, gpu::CopyDir::kDeviceToDevice, gpu::Layout2D::kPack, false);
  EXPECT_EQ(core::modeled_pipeline_time(cost, msg, kIpcStrided, 8'192),
            (2 + 8) * pack8k);  // nine chunks, the last a 64 B sliver
  EXPECT_EQ(core::modeled_pipeline_time(cost, msg, kIpcContig, 8'192), 0);
}

TEST(CostSelection, HaloVectorOverIpcGoesAsOneChunk) {
  // stencil_halo's east-west halo: 16,400 rows of 4 B. Packing and
  // unpacking it whole (2 x 245.5 us) beats nine 8 KB chunks (10 x 60.3 us)
  // and three 32 KB ones (4 x 154.8 us).
  const auto cost = gpu::GpuCostModel::tesla_c2050();
  gpu::MemoryRegistry reg;
  const core::MsgView msg = fig5_vector(16'400, reg);
  EXPECT_EQ(core::select_chunk_bytes(cost, msg, kIpcStrided, 64 * 1024),
            msg.packed_bytes);
}

TEST(CostSelection, Fig5FabricVectorsKeepTheirChunks) {
  const auto cost = gpu::GpuCostModel::tesla_c2050();
  gpu::MemoryRegistry reg;
  EXPECT_EQ(core::select_chunk_bytes(cost, fig5_vector(262'144, reg),
                                     kFabricOffload, 64 * 1024),
            128u * 1024u);
  EXPECT_EQ(core::select_chunk_bytes(cost, fig5_vector(1'048'576, reg),
                                     kFabricOffload, 64 * 1024),
            256u * 1024u);
}

TEST(CostSelection, ContiguousOverIpcGoesAsOneChunk) {
  // The IPC peer copy is the only stage: there is nothing to overlap it
  // with. Over the fabric the D2H and H2D copies still pipeline.
  const auto cost = gpu::GpuCostModel::tesla_c2050();
  gpu::MemoryRegistry reg;
  auto bytes = committed(Datatype::byte());
  std::vector<std::byte> buf(64);
  for (const int n : {96 * 1024, 1 << 20, 4 << 20}) {
    const auto msg = core::MsgView::make(buf.data(), n, bytes, reg);
    EXPECT_EQ(core::select_chunk_bytes(cost, msg, kIpcContig, 64 * 1024),
              static_cast<std::size_t>(n));
    EXPECT_LT(core::select_chunk_bytes(cost, msg, kFabricContig, 64 * 1024),
              static_cast<std::size_t>(n));
  }
}
