// Seeded fuzz: random datatype trees x random chunk splits.
//
// Invariants checked per (tree, count, split):
//   * concat(chunked pack_bytes) == whole-message pack, byte-exact;
//   * cursor-resumed pack_bytes_from == offset-based pack_bytes;
//   * chunked unpack round-trips byte-exact (repack == packed stream);
//   * plans fetched from the process-wide cache produce results identical
//     to uncached plans (cursor tables and segment counts included), and
//     both match a row-by-row reference classification and sub-pattern
//     grouping of the flattened segments;
//   * the device path (submit_device_pack/unpack: 2-D, batched sub-pattern
//     and generalized kernels) moves the same bytes as the host pack;
//   * a tree built from canonical constructors and its hindexed twin (the
//     tree's flattened segments, resized to the same lb and extent, which
//     commit flattens) plan identically: one signature, class, sub-pattern
//     list, segment count and per-chunk segment counts, and pack the same
//     bytes on the host and the device.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "core/gpu_staging.hpp"
#include "core/msg_view.hpp"
#include "core/pack_plan.hpp"
#include "cuda/runtime.hpp"
#include "gpu/device.hpp"
#include "mpi/datatype.hpp"
#include "sim/engine.hpp"

namespace core = mv2gnc::core;
namespace cusim = mv2gnc::cusim;
namespace gpu = mv2gnc::gpu;
namespace sim = mv2gnc::sim;
using mv2gnc::mpisim::ArrayOrder;
using mv2gnc::mpisim::Datatype;
using mv2gnc::mpisim::PackCursor;
using mv2gnc::mpisim::Segment;
using mv2gnc::mpisim::StridedBlock;

namespace {

// Random 2-D or 3-D subarray of `child`, C or Fortran order.
Datatype random_subarray(std::mt19937& rng, const Datatype& child) {
  const auto pick = [&](int n) { return static_cast<int>(rng() % n); };
  const int ndims = 2 + pick(2);
  std::vector<int> sizes, subsizes, starts;
  for (int d = 0; d < ndims; ++d) {
    sizes.push_back(1 + pick(4));
    subsizes.push_back(1 + pick(sizes.back()));
    starts.push_back(pick(sizes.back() - subsizes.back() + 1));
  }
  return Datatype::subarray(sizes, subsizes, starts,
                            pick(2) == 0 ? ArrayOrder::kC
                                         : ArrayOrder::kFortran,
                            child);
}

// Random committed tree with non-negative offsets (device-allocatable) and
// non-overlapping segments (unpack round-trips must be well-defined).
// `regular` limits it to the constructors commit reduces to canonical
// blocks without flattening: no indexed, hindexed or struct nodes.
Datatype random_tree(std::mt19937& rng, int depth, bool regular = false) {
  const auto pick = [&](int n) { return static_cast<int>(rng() % n); };
  if (depth <= 0 || pick(4) == 0) {
    switch (pick(3)) {
      case 0: return Datatype::byte();
      case 1: return Datatype::int32();
      default: return Datatype::float64();
    }
  }
  Datatype child = random_tree(rng, depth - 1, regular);
  int kind = pick(7);
  if (regular && kind == 3) kind = 4;
  switch (kind) {
    case 0:
      return Datatype::contiguous(1 + pick(4), child);
    case 1: {
      const int blocklen = 1 + pick(3);
      const int stride = blocklen + pick(4);
      return Datatype::vector(1 + pick(5), blocklen, stride, child);
    }
    case 2: {
      const int blocklen = 1 + pick(3);
      const std::int64_t stride =
          static_cast<std::int64_t>(blocklen) * child.extent() +
          static_cast<std::int64_t>(pick(24));
      return Datatype::hvector(1 + pick(5), blocklen, stride, child);
    }
    case 3: {
      const int n = 1 + pick(4);
      std::vector<int> lens, displs;
      int at = pick(3);
      for (int i = 0; i < n; ++i) {
        const int len = 1 + pick(3);
        lens.push_back(len);
        displs.push_back(at);
        at += len + pick(3);
      }
      return Datatype::indexed(lens, displs, child);
    }
    case 4: {
      const int blocklen = 1 + pick(3);
      std::vector<int> displs;
      int at = pick(3);
      for (int i = 1 + pick(4); i > 0; --i) {
        displs.push_back(at);
        // Gaps of 0 make blocks abut and merge; equal gaps make strides.
        at += blocklen + (pick(2) == 0 ? 0 : 1 + pick(2));
      }
      return Datatype::indexed_block(blocklen, displs, child);
    }
    case 5:
      return random_subarray(rng, child);
    default:
      // Keep the child's lb and only grow the extent, so data always
      // stays inside [lb, ub] and span_bytes() below is an upper bound.
      return Datatype::resized(child, child.lower_bound(),
                               child.extent() + pick(16));
  }
}

// Bytes a send/recv buffer must cover: element i's data lies in
// [i*extent, i*extent + end) with `end` the furthest segment end (a
// subarray of a child with lb > 0 reaches past its own ub).
std::size_t span_bytes(const Datatype& t, int count) {
  std::int64_t end = t.upper_bound();
  for (const Segment& s : t.segments()) {
    end = std::max(end, s.offset + static_cast<std::int64_t>(s.length));
  }
  return static_cast<std::size_t>(
      static_cast<std::int64_t>(count - 1) * t.extent() + end);
}

// The flattened-path twin of `t`: an hindexed of bytes over t's segments,
// resized to t's lb and extent.
Datatype hindexed_twin(const Datatype& t) {
  std::vector<int> lens;
  std::vector<std::int64_t> displs;
  for (const Segment& s : t.segments()) {
    lens.push_back(static_cast<int>(s.length));
    displs.push_back(s.offset);
  }
  Datatype twin = Datatype::resized(
      Datatype::hindexed(lens, displs, Datatype::byte()), t.lower_bound(),
      t.extent());
  twin.commit();
  return twin;
}

// Rows of a block list, in packed-stream order.
std::vector<Segment> rows_of(const std::vector<StridedBlock>& blocks) {
  std::vector<Segment> rows;
  for (const StridedBlock& b : blocks) {
    const std::size_t c0 = b.ndims > 0 ? b.dims[0].count : 1;
    const std::size_t c1 = b.ndims > 1 ? b.dims[1].count : 1;
    const std::size_t c2 = b.ndims > 2 ? b.dims[2].count : 1;
    for (std::size_t i2 = 0; i2 < c2; ++i2) {
      for (std::size_t i1 = 0; i1 < c1; ++i1) {
        for (std::size_t i0 = 0; i0 < c0; ++i0) {
          std::int64_t off = b.offset;
          const std::size_t idx[3] = {i0, i1, i2};
          for (int d = 0; d < b.ndims; ++d) {
            off += static_cast<std::int64_t>(idx[d]) * b.dims[d].stride;
          }
          rows.push_back(Segment{off, b.length});
        }
      }
    }
  }
  return rows;
}

// Reference plan, row by row from the flattened segments: the message's
// runs with element seams merged, the classification rules of
// PackPlan::build, and the greedy grouping into sub-patterns.
struct ReferencePlan {
  core::LayoutClass layout = core::LayoutClass::kIrregular;
  std::size_t total_segments = 0;
  std::vector<core::SubPattern> subs;
};

ReferencePlan reference_plan(const Datatype& t, int count) {
  ReferencePlan ref;
  std::vector<Segment> full;
  for (int e = 0; e < count; ++e) {
    for (const Segment& s : t.segments()) {
      const std::int64_t off = e * t.extent() + s.offset;
      if (!full.empty() &&
          full.back().offset + static_cast<std::int64_t>(full.back().length) ==
              off) {
        full.back().length += s.length;
      } else {
        full.push_back(Segment{off, s.length});
      }
    }
  }
  ref.total_segments = full.size();
  const auto& segs = t.segments();
  if (t.size() == 0 ||
      (segs.size() == 1 && segs[0].offset == 0 &&
       static_cast<std::int64_t>(segs[0].length) == t.extent())) {
    ref.layout = core::LayoutClass::kContiguous;
    return ref;
  }
  // One vector: every run of the message (seams unmerged) has one length
  // and one gap, a legal memcpy2d pitch.
  std::vector<Segment> rows;
  for (int e = 0; e < count; ++e) {
    for (const Segment& s : segs) {
      rows.push_back(Segment{e * t.extent() + s.offset, s.length});
    }
  }
  bool vector = true;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    vector = vector && rows[i].length == rows[0].length &&
             rows[i].offset - rows[i - 1].offset ==
                 rows[1].offset - rows[0].offset;
  }
  const std::int64_t pitch = rows.size() > 1
                                 ? rows[1].offset - rows[0].offset
                                 : static_cast<std::int64_t>(rows[0].length);
  if (vector && pitch > 0 &&
      static_cast<std::size_t>(pitch) >= rows[0].length) {
    ref.layout = core::LayoutClass::kSingleVector;
    ref.subs.push_back({rows[0].offset, rows.size(), rows[0].length, pitch, 0});
    return ref;
  }
  if (full.size() > (std::size_t{1} << 16)) return ref;
  std::size_t packed = 0;
  for (std::size_t i = 0; i < full.size();) {
    core::SubPattern sp{full[i].offset, 1, full[i].length,
                        static_cast<std::int64_t>(full[i].length), packed};
    if (i + 1 < full.size() && full[i + 1].length == sp.block) {
      const std::int64_t stride = full[i + 1].offset - full[i].offset;
      if (stride >= static_cast<std::int64_t>(sp.block)) {
        std::size_t j = i + 1;
        while (j < full.size() && full[j].length == sp.block &&
               full[j].offset - full[j - 1].offset == stride) {
          ++j;
        }
        sp.rows = j - i;
        sp.stride = stride;
      }
    }
    packed += sp.packed_bytes();
    i += sp.rows;
    ref.subs.push_back(sp);
  }
  if (ref.subs.size() * 4 <= full.size() || ref.subs.size() <= 2) {
    ref.layout = core::LayoutClass::kSubPatterned;
  } else {
    ref.subs.clear();
  }
  return ref;
}

void expect_same_subpatterns(const std::vector<core::SubPattern>& a,
                             const std::vector<core::SubPattern>& b,
                             const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].first_offset, b[i].first_offset) << what << " sp " << i;
    ASSERT_EQ(a[i].rows, b[i].rows) << what << " sp " << i;
    ASSERT_EQ(a[i].block, b[i].block) << what << " sp " << i;
    ASSERT_EQ(a[i].stride, b[i].stride) << what << " sp " << i;
    ASSERT_EQ(a[i].packed_offset, b[i].packed_offset) << what << " sp " << i;
  }
}

// Packs [cuts[i], cuts[i+1]) chunks of a device-resident copy of `src`
// with submit_device_pack and returns the packed stream.
std::vector<std::byte> device_pack(const Datatype& t, int count,
                                   const std::vector<std::byte>& src,
                                   const std::vector<std::size_t>& cuts) {
  const std::size_t packed = t.size() * static_cast<std::size_t>(count);
  std::vector<std::byte> out(packed);
  sim::Engine eng;
  gpu::MemoryRegistry reg;
  gpu::Device dev{eng, reg, 0, gpu::GpuCostModel::tesla_c2050(), 512u << 20};
  cusim::CudaContext ctx{dev};
  eng.spawn("pack", [&] {
    auto* buf = static_cast<std::byte*>(ctx.malloc(src.size()));
    auto* tbuf = static_cast<std::byte*>(ctx.malloc(packed));
    ctx.memcpy(buf, src.data(), src.size(), cusim::MemcpyKind::kHostToDevice);
    auto msg = core::MsgView::make(buf, count, t, reg);
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      core::submit_device_pack(ctx, ctx.default_stream(), msg, cuts[i],
                               cuts[i + 1] - cuts[i], tbuf + cuts[i]);
    }
    ctx.device_synchronize();
    ctx.memcpy(out.data(), tbuf, packed, cusim::MemcpyKind::kDeviceToHost);
    ctx.free(tbuf);
    ctx.free(buf);
  });
  eng.run();
  return out;
}

// Random split of [0, total) into contiguous chunks.
std::vector<std::size_t> random_splits(std::mt19937& rng, std::size_t total) {
  std::vector<std::size_t> cuts{0, total};
  const int extra = static_cast<int>(rng() % 6);
  for (int i = 0; i < extra; ++i) cuts.push_back(rng() % (total + 1));
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

std::vector<std::byte> random_bytes(std::mt19937& rng, std::size_t n) {
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng() & 0xFF);
  return v;
}

}  // namespace

TEST(PackPlanFuzz, HostChunkedPackMatchesWholeAndRoundTrips) {
  std::mt19937 rng(20260806);
  for (int iter = 0; iter < 60; ++iter) {
    Datatype t = random_tree(rng, 3);
    t.commit();
    const int count = 1 + static_cast<int>(rng() % 3);
    const std::size_t packed = t.size() * static_cast<std::size_t>(count);
    if (packed == 0) continue;
    const std::size_t span = span_bytes(t, count);
    const std::vector<std::byte> src = random_bytes(rng, span);

    std::vector<std::byte> whole(packed);
    t.pack(src.data(), count, whole.data());

    // Chunked pack, offset-based and cursor-resumed, must concat to whole.
    const auto cuts = random_splits(rng, packed);
    std::vector<std::byte> chunked(packed, std::byte{0xEE});
    std::vector<std::byte> cursored(packed, std::byte{0xEE});
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const std::size_t off = cuts[i];
      const std::size_t len = cuts[i + 1] - cuts[i];
      t.pack_bytes(src.data(), count, off, len, chunked.data() + off);
      const PackCursor cur = t.cursor_at(count, off);
      t.pack_bytes_from(cur, src.data(), count, len, cursored.data() + off);
    }
    ASSERT_EQ(whole, chunked) << "iter " << iter << ": " << t.describe();
    ASSERT_EQ(whole, cursored) << "iter " << iter << ": " << t.describe();

    // Chunked unpack into a scratch buffer, then repack: byte-exact.
    std::vector<std::byte> scratch(span, std::byte{0x5A});
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const std::size_t off = cuts[i];
      const std::size_t len = cuts[i + 1] - cuts[i];
      const PackCursor cur = t.cursor_at(count, off);
      t.unpack_bytes_from(cur, whole.data() + off, count, len,
                          scratch.data());
    }
    std::vector<std::byte> repacked(packed);
    t.pack(scratch.data(), count, repacked.data());
    ASSERT_EQ(whole, repacked) << "iter " << iter << ": " << t.describe();
  }
}

TEST(PackPlanFuzz, CachedPlansMatchUncached) {
  std::mt19937 rng(987654);
  auto& cache = core::PlanCache::instance();
  cache.reset();
  for (int iter = 0; iter < 40; ++iter) {
    Datatype t = random_tree(rng, 3);
    t.commit();
    const int count = 1 + static_cast<int>(rng() % 3);
    if (t.size() == 0) continue;
    auto cached = cache.get(t, count);
    auto uncached = core::PackPlan::build(t, count);
    ASSERT_EQ(cached->signature(), uncached->signature());
    ASSERT_EQ(cached->packed_bytes(), uncached->packed_bytes());
    ASSERT_EQ(cached->total_segments(), uncached->total_segments());
    ASSERT_EQ(cached->layout(), uncached->layout());
    ASSERT_EQ(cached->subpatterns().size(), uncached->subpatterns().size());
    const ReferencePlan ref = reference_plan(t, count);
    ASSERT_EQ(uncached->layout(), ref.layout) << t.describe();
    ASSERT_EQ(uncached->total_segments(), ref.total_segments) << t.describe();
    expect_same_subpatterns(uncached->subpatterns(), ref.subs, t.describe());
    const std::size_t chunk = 1 + rng() % cached->packed_bytes();
    auto ct = cached->chunk_cursors(chunk);
    auto ut = uncached->chunk_cursors(chunk);
    ASSERT_EQ(ct->count, ut->count);
    ASSERT_EQ(ct->cursors, ut->cursors);
    ASSERT_EQ(ct->segments, ut->segments);
    // A second fetch is a hit returning the identical plan object.
    ASSERT_EQ(cache.get(t, count).get(), cached.get());
  }
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(PackPlanFuzz, DeviceChunkedPackMatchesHostPack) {
  std::mt19937 rng(424242);
  for (int iter = 0; iter < 12; ++iter) {
    Datatype t = random_tree(rng, 3);
    t.commit();
    const int count = 1 + static_cast<int>(rng() % 2);
    const std::size_t packed = t.size() * static_cast<std::size_t>(count);
    if (packed == 0) continue;
    const std::size_t span = span_bytes(t, count);

    sim::Engine eng;
    gpu::MemoryRegistry reg;
    gpu::Device dev{eng, reg, 0, gpu::GpuCostModel::tesla_c2050(), 512u << 20};
    cusim::CudaContext ctx{dev};
    const std::vector<std::byte> src = random_bytes(rng, span);
    std::vector<std::byte> expect(packed);
    t.pack(src.data(), count, expect.data());
    const auto cuts = random_splits(rng, packed);

    std::vector<std::byte> dev_packed(packed);
    std::vector<std::byte> dev_unpacked(packed);
    eng.spawn("fuzz", [&] {
      auto* buf = static_cast<std::byte*>(ctx.malloc(span));
      auto* tbuf = static_cast<std::byte*>(ctx.malloc(packed));
      ctx.memcpy(buf, src.data(), span, cusim::MemcpyKind::kHostToDevice);
      auto msg = core::MsgView::make(buf, count, t, reg);
      for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        core::submit_device_pack(ctx, ctx.default_stream(), msg, cuts[i],
                                 cuts[i + 1] - cuts[i], tbuf + cuts[i]);
      }
      ctx.device_synchronize();
      ctx.memcpy(dev_packed.data(), tbuf, packed,
                 cusim::MemcpyKind::kDeviceToHost);
      // Scatter back into a scrubbed buffer, then gather again.
      ctx.memset(buf, 0xA5, span);
      for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        core::submit_device_unpack(ctx, ctx.default_stream(), msg, cuts[i],
                                   cuts[i + 1] - cuts[i], tbuf + cuts[i]);
      }
      ctx.device_synchronize();
      core::submit_device_pack(ctx, ctx.default_stream(), msg, 0, packed,
                               tbuf);
      ctx.device_synchronize();
      ctx.memcpy(dev_unpacked.data(), tbuf, packed,
                 cusim::MemcpyKind::kDeviceToHost);
      ctx.free(tbuf);
      ctx.free(buf);
    });
    eng.run();
    ASSERT_EQ(expect, dev_packed) << "iter " << iter << ": " << t.describe();
    ASSERT_EQ(expect, dev_unpacked) << "iter " << iter << ": " << t.describe();
  }
}

TEST(PackPlanFuzz, CanonicalTreesPlanLikeTheirFlattenedTwins) {
  std::mt19937 rng(20261018);
  auto& cache = core::PlanCache::instance();
  int sub_patterned = 0;
  for (int iter = 0; iter < 400; ++iter) {
    Datatype t = random_tree(rng, 3, /*regular=*/true);
    t.commit();
    const int count = 1 + static_cast<int>(rng() % 4);
    if (t.size() == 0) continue;
    const std::string what = "iter " + std::to_string(iter) + ": " +
                             t.describe() + " x" + std::to_string(count);
    // The canonical blocks cover exactly the flattened rows.
    ASSERT_EQ(rows_of(t.blocks()), t.segments()) << what;
    const Datatype twin = hindexed_twin(t);
    ASSERT_EQ(twin.segments(), t.segments()) << what;

    const auto a = core::PackPlan::build(t, count);
    const auto b = core::PackPlan::build(twin, count);
    ASSERT_EQ(a->signature(), b->signature()) << what;
    ASSERT_EQ(a->layout(), b->layout()) << what;
    ASSERT_EQ(a->total_segments(), b->total_segments()) << what;
    expect_same_subpatterns(a->subpatterns(), b->subpatterns(), what);
    // Both match the row-by-row reference.
    const ReferencePlan ref = reference_plan(t, count);
    ASSERT_EQ(a->layout(), ref.layout) << what;
    ASSERT_EQ(a->total_segments(), ref.total_segments) << what;
    expect_same_subpatterns(a->subpatterns(), ref.subs, what);
    sub_patterned += a->layout() == core::LayoutClass::kSubPatterned;
    const std::size_t packed = a->packed_bytes();
    const std::size_t chunk = 1 + rng() % packed;
    for (std::size_t off = 0; off < packed; off += chunk) {
      const std::size_t len = std::min(chunk, packed - off);
      ASSERT_EQ(a->segments_in_range(off, len),
                b->segments_in_range(off, len))
          << what << " chunk at " << off;
    }
    const auto ta = a->chunk_cursors(chunk);
    const auto tb = b->chunk_cursors(chunk);
    ASSERT_EQ(ta->cursors, tb->cursors) << what;
    ASSERT_EQ(ta->segments, tb->segments) << what;

    // Equal layouts dedupe onto one cached plan.
    cache.reset();
    const auto cached = cache.get(t, count);
    ASSERT_EQ(cache.get(twin, count).get(), cached.get()) << what;
    ASSERT_EQ(cache.stats().signature_dedups, 1u) << what;

    // Host pack of both, and the device pack of the canonical tree.
    const std::vector<std::byte> src = random_bytes(rng, span_bytes(t, count));
    std::vector<std::byte> host(packed), host_twin(packed);
    t.pack(src.data(), count, host.data());
    twin.pack(src.data(), count, host_twin.data());
    ASSERT_EQ(host, host_twin) << what;
    if (iter % 8 == 0) {
      ASSERT_EQ(device_pack(t, count, src, random_splits(rng, packed)), host)
          << what;
    }
  }
  cache.reset();
  EXPECT_GT(sub_patterned, 0);  // the grid reaches the batched 2-D class
}
