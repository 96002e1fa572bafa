// Datatype engine: type-map algebra (size/extent/lb), canonical strided
// blocks, flattening, pattern detection, and pack/unpack correctness for
// every constructor.
#include "mpi/datatype.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

using mv2gnc::mpisim::ArrayOrder;
using mv2gnc::mpisim::Datatype;
using mv2gnc::mpisim::Segment;
using mv2gnc::mpisim::StrideDim;
using mv2gnc::mpisim::StridedBlock;
using mv2gnc::mpisim::VectorPattern;

namespace {

Datatype committed(Datatype t) {
  t.commit();
  return t;
}

StridedBlock block(std::int64_t offset, std::size_t length,
                   std::vector<StrideDim> dims = {}) {
  StridedBlock b{offset, length};
  for (const StrideDim& d : dims) b.dims[b.ndims++] = d;
  return b;
}

std::vector<std::byte> pattern_bytes(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> v(n);
  std::mt19937 rng(seed);
  for (auto& b : v) b = static_cast<std::byte>(rng() & 0xFF);
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Predefined types
// ---------------------------------------------------------------------------

TEST(Datatype, PredefinedSizes) {
  EXPECT_EQ(Datatype::byte().size(), 1u);
  EXPECT_EQ(Datatype::int32().size(), 4u);
  EXPECT_EQ(Datatype::int64().size(), 8u);
  EXPECT_EQ(Datatype::float32().size(), 4u);
  EXPECT_EQ(Datatype::float64().size(), 8u);
  EXPECT_EQ(Datatype::float64().extent(), 8);
  EXPECT_EQ(Datatype::float64().lower_bound(), 0);
}

TEST(Datatype, PredefinedAreContiguousAndShared) {
  EXPECT_TRUE(Datatype::float32().is_contiguous());
  EXPECT_EQ(Datatype::float32(), Datatype::float32());  // same handle
}

TEST(Datatype, NullHandleThrows) {
  Datatype t;
  EXPECT_FALSE(t.valid());
  EXPECT_THROW(t.size(), std::logic_error);
  EXPECT_THROW(t.commit(), std::logic_error);
}

TEST(Datatype, UncommittedPackThrows) {
  auto t = Datatype::vector(2, 1, 2, Datatype::int32());
  std::vector<std::byte> a(64), b(64);
  EXPECT_THROW(t.pack(a.data(), 1, b.data()), std::logic_error);
  EXPECT_THROW(t.segments(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Contiguous
// ---------------------------------------------------------------------------

TEST(Datatype, ContiguousSizeExtent) {
  auto t = Datatype::contiguous(10, Datatype::float64());
  EXPECT_EQ(t.size(), 80u);
  EXPECT_EQ(t.extent(), 80);
  EXPECT_TRUE(t.is_contiguous());
}

TEST(Datatype, ContiguousOfVectorKeepsHoles) {
  auto v = Datatype::vector(2, 1, 2, Datatype::int32());  // 2 ints, hole
  auto t = committed(Datatype::contiguous(3, v));
  EXPECT_EQ(t.size(), 3u * 8u);
  EXPECT_FALSE(t.is_contiguous());
}

TEST(Datatype, ContiguousZeroCount) {
  auto t = committed(Datatype::contiguous(0, Datatype::int32()));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.extent(), 0);
}

TEST(Datatype, ContiguousMergesChildren) {
  auto t = committed(Datatype::contiguous(16, Datatype::int32()));
  ASSERT_EQ(t.segments().size(), 1u);
  EXPECT_EQ(t.segments()[0], (Segment{0, 64}));
}

TEST(Datatype, NegativeCountThrows) {
  EXPECT_THROW(Datatype::contiguous(-1, Datatype::int32()),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Vector / hvector
// ---------------------------------------------------------------------------

TEST(Datatype, VectorTypeMap) {
  // 3 blocks of 2 floats every 4 floats: [XX..XX..XX] (dots = holes)
  auto t = committed(Datatype::vector(3, 2, 4, Datatype::float32()));
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.extent(), 2 * 16 + 8);  // last block start + block bytes
  EXPECT_EQ(t.lower_bound(), 0);
  ASSERT_EQ(t.segments().size(), 3u);
  EXPECT_EQ(t.segments()[0], (Segment{0, 8}));
  EXPECT_EQ(t.segments()[1], (Segment{16, 8}));
  EXPECT_EQ(t.segments()[2], (Segment{32, 8}));
}

TEST(Datatype, VectorStrideEqualBlockIsContiguous) {
  auto t = committed(Datatype::vector(4, 2, 2, Datatype::int32()));
  EXPECT_TRUE(t.is_contiguous());
  EXPECT_EQ(t.segments().size(), 1u);
}

TEST(Datatype, HvectorByteStride) {
  auto t = committed(Datatype::hvector(2, 1, 10, Datatype::int32()));
  ASSERT_EQ(t.segments().size(), 2u);
  EXPECT_EQ(t.segments()[1].offset, 10);
  EXPECT_EQ(t.extent(), 14);
}

TEST(Datatype, VectorNegativeStride) {
  auto t = committed(Datatype::vector(3, 1, -2, Datatype::int32()));
  EXPECT_EQ(t.lower_bound(), -16);
  EXPECT_EQ(t.extent(), 20);  // from -16 to +4
  EXPECT_EQ(t.size(), 12u);
}

TEST(Datatype, VectorPackUnpackRoundTrip) {
  // The paper's east/west halo: one float column of a pitched matrix.
  constexpr int rows = 64, cols = 16;
  auto col = committed(Datatype::vector(rows, 1, cols, Datatype::float32()));
  std::vector<float> mat(rows * cols);
  std::iota(mat.begin(), mat.end(), 0.f);
  std::vector<float> packed(rows, -1.f);
  col.pack(mat.data() + 5, 1, packed.data());  // column 5
  for (int r = 0; r < rows; ++r) {
    EXPECT_EQ(packed[r], static_cast<float>(r * cols + 5));
  }
  std::vector<float> mat2(rows * cols, 0.f);
  col.unpack(packed.data(), 1, mat2.data() + 5);
  for (int r = 0; r < rows; ++r) {
    EXPECT_EQ(mat2[r * cols + 5], static_cast<float>(r * cols + 5));
  }
}

// ---------------------------------------------------------------------------
// Indexed / hindexed / indexed_block
// ---------------------------------------------------------------------------

TEST(Datatype, IndexedTypeMap) {
  const std::array<int, 3> lens{2, 1, 3};
  const std::array<int, 3> displs{0, 4, 8};
  auto t = committed(Datatype::indexed(lens, displs, Datatype::int32()));
  EXPECT_EQ(t.size(), 24u);
  ASSERT_EQ(t.segments().size(), 3u);
  EXPECT_EQ(t.segments()[0], (Segment{0, 8}));
  EXPECT_EQ(t.segments()[1], (Segment{16, 4}));
  EXPECT_EQ(t.segments()[2], (Segment{32, 12}));
  EXPECT_EQ(t.extent(), 44);
}

TEST(Datatype, IndexedAdjacentBlocksMerge) {
  const std::array<int, 2> lens{2, 2};
  const std::array<int, 2> displs{0, 2};
  auto t = committed(Datatype::indexed(lens, displs, Datatype::int32()));
  ASSERT_EQ(t.segments().size(), 1u);
  EXPECT_EQ(t.segments()[0].length, 16u);
  EXPECT_TRUE(t.is_contiguous());
}

TEST(Datatype, IndexedMismatchedSpansThrow) {
  const std::array<int, 2> lens{1, 1};
  const std::array<int, 1> displs{0};
  EXPECT_THROW(Datatype::indexed(lens, displs, Datatype::int32()),
               std::invalid_argument);
}

TEST(Datatype, HindexedByteDisplacements) {
  const std::array<int, 2> lens{1, 1};
  const std::array<std::int64_t, 2> displs{0, 7};
  auto t = committed(Datatype::hindexed(lens, displs, Datatype::int32()));
  ASSERT_EQ(t.segments().size(), 2u);
  EXPECT_EQ(t.segments()[1].offset, 7);
}

TEST(Datatype, IndexedBlockEqualLengths) {
  const std::array<int, 3> displs{0, 3, 9};
  auto t =
      committed(Datatype::indexed_block(2, displs, Datatype::float64()));
  EXPECT_EQ(t.size(), 48u);
  ASSERT_EQ(t.segments().size(), 3u);
  for (const auto& s : t.segments()) EXPECT_EQ(s.length, 16u);
}

TEST(Datatype, IndexedPackUnpackRoundTrip) {
  const std::array<int, 3> lens{1, 3, 2};
  const std::array<int, 3> displs{9, 0, 5};  // note: out of address order
  auto t = committed(Datatype::indexed(lens, displs, Datatype::int32()));
  std::vector<int> src(12);
  std::iota(src.begin(), src.end(), 100);
  std::vector<int> packed(6, -1);
  t.pack(src.data(), 1, packed.data());
  // Pack order follows the type map, not address order.
  EXPECT_EQ(packed[0], 109);
  EXPECT_EQ(packed[1], 100);
  EXPECT_EQ(packed[2], 101);
  EXPECT_EQ(packed[3], 102);
  EXPECT_EQ(packed[4], 105);
  EXPECT_EQ(packed[5], 106);
  std::vector<int> dst(12, 0);
  t.unpack(packed.data(), 1, dst.data());
  EXPECT_EQ(dst[9], 109);
  EXPECT_EQ(dst[0], 100);
  EXPECT_EQ(dst[6], 106);
  EXPECT_EQ(dst[3], 0);  // hole untouched
}

// ---------------------------------------------------------------------------
// Struct
// ---------------------------------------------------------------------------

TEST(Datatype, StructHeterogeneous) {
  // struct { int32 a; double b[2]; } with a hole after `a`.
  const std::array<int, 2> lens{1, 2};
  const std::array<std::int64_t, 2> displs{0, 8};
  const std::array<Datatype, 2> types{Datatype::int32(), Datatype::float64()};
  auto t = committed(Datatype::create_struct(lens, displs, types));
  EXPECT_EQ(t.size(), 20u);
  EXPECT_EQ(t.extent(), 24);
  ASSERT_EQ(t.segments().size(), 2u);
  EXPECT_EQ(t.segments()[0], (Segment{0, 4}));
  EXPECT_EQ(t.segments()[1], (Segment{8, 16}));
}

TEST(Datatype, StructPackRoundTrip) {
  struct Particle {
    std::int32_t id;
    std::int32_t pad;
    double x, y;
  };
  const std::array<int, 2> lens{1, 2};
  const std::array<std::int64_t, 2> displs{offsetof(Particle, id),
                                           offsetof(Particle, x)};
  const std::array<Datatype, 2> types{Datatype::int32(), Datatype::float64()};
  auto t = committed(Datatype::create_struct(lens, displs, types));
  t = committed(Datatype::resized(t, 0, sizeof(Particle)));
  std::vector<Particle> ps(4);
  for (int i = 0; i < 4; ++i) ps[i] = {i, -1, i * 1.5, i * 2.5};
  std::vector<std::byte> packed(t.size() * 4);
  t.pack(ps.data(), 4, packed.data());
  std::vector<Particle> out(4, Particle{-9, -9, 0, 0});
  t.unpack(packed.data(), 4, out.data());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i].id, i);
    EXPECT_EQ(out[i].pad, -9);  // hole preserved
    EXPECT_DOUBLE_EQ(out[i].x, i * 1.5);
    EXPECT_DOUBLE_EQ(out[i].y, i * 2.5);
  }
}

// ---------------------------------------------------------------------------
// Subarray
// ---------------------------------------------------------------------------

TEST(Datatype, Subarray2DCOrder) {
  // 4x6 array of ints, take the 2x3 block at (1,2).
  const std::array<int, 2> sizes{4, 6};
  const std::array<int, 2> subsizes{2, 3};
  const std::array<int, 2> starts{1, 2};
  auto t = committed(Datatype::subarray(sizes, subsizes, starts,
                                        ArrayOrder::kC, Datatype::int32()));
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.extent(), 4 * 6 * 4);  // whole-array extent
  ASSERT_EQ(t.segments().size(), 2u);
  EXPECT_EQ(t.segments()[0], (Segment{(1 * 6 + 2) * 4, 12}));
  EXPECT_EQ(t.segments()[1], (Segment{(2 * 6 + 2) * 4, 12}));
}

TEST(Datatype, Subarray2DFortranOrder) {
  // Fortran order: first dimension is contiguous.
  const std::array<int, 2> sizes{4, 6};
  const std::array<int, 2> subsizes{2, 3};
  const std::array<int, 2> starts{1, 2};
  auto t = committed(Datatype::subarray(sizes, subsizes, starts,
                                        ArrayOrder::kFortran,
                                        Datatype::int32()));
  EXPECT_EQ(t.size(), 24u);
  ASSERT_EQ(t.segments().size(), 3u);  // 3 columns of 2 contiguous elements
  EXPECT_EQ(t.segments()[0], (Segment{(2 * 4 + 1) * 4, 8}));
}

TEST(Datatype, Subarray3DPackRoundTrip) {
  const std::array<int, 3> sizes{4, 5, 6};
  const std::array<int, 3> subsizes{2, 2, 3};
  const std::array<int, 3> starts{1, 2, 1};
  auto t = committed(Datatype::subarray(sizes, subsizes, starts,
                                        ArrayOrder::kC, Datatype::int32()));
  std::vector<int> arr(4 * 5 * 6);
  std::iota(arr.begin(), arr.end(), 0);
  std::vector<int> packed(t.size() / 4, -1);
  t.pack(arr.data(), 1, packed.data());
  int k = 0;
  for (int i = 1; i < 3; ++i) {
    for (int j = 2; j < 4; ++j) {
      for (int l = 1; l < 4; ++l) {
        EXPECT_EQ(packed[k++], (i * 5 + j) * 6 + l);
      }
    }
  }
  std::vector<int> arr2(arr.size(), 0);
  t.unpack(packed.data(), 1, arr2.data());
  EXPECT_EQ(arr2[(1 * 5 + 2) * 6 + 1], (1 * 5 + 2) * 6 + 1);
  EXPECT_EQ(arr2[0], 0);
}

TEST(Datatype, SubarrayValidation) {
  const std::array<int, 2> sizes{4, 4};
  const std::array<int, 2> bad_sub{5, 1};
  const std::array<int, 2> starts{0, 0};
  EXPECT_THROW(Datatype::subarray(sizes, bad_sub, starts, ArrayOrder::kC,
                                  Datatype::int32()),
               std::invalid_argument);
  const std::array<int, 2> sub{2, 2};
  const std::array<int, 2> bad_start{3, 0};
  EXPECT_THROW(Datatype::subarray(sizes, sub, bad_start, ArrayOrder::kC,
                                  Datatype::int32()),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Resized
// ---------------------------------------------------------------------------

TEST(Datatype, ResizedOverridesExtent) {
  auto t = Datatype::resized(Datatype::int32(), -2, 16);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.lower_bound(), -2);
  EXPECT_EQ(t.extent(), 16);
  t.commit();
  // Packing 3 elements walks in 16-byte extents.
  std::vector<std::byte> src(64);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::byte>(i);
  }
  std::vector<std::byte> packed(12);
  t.pack(src.data(), 3, packed.data());
  EXPECT_EQ(packed[0], std::byte{0});
  EXPECT_EQ(packed[4], std::byte{16});
  EXPECT_EQ(packed[8], std::byte{32});
}

// ---------------------------------------------------------------------------
// Vector pattern detection (drives the GPU 2-D copy offload)
// ---------------------------------------------------------------------------

TEST(DatatypePattern, SimpleVector) {
  auto t = committed(Datatype::vector(64, 1, 16, Datatype::float32()));
  auto p = t.vector_pattern(1);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (VectorPattern{64, 4, 64}));
}

TEST(DatatypePattern, VectorAcrossMultipleElements) {
  // count=2 elements of a 4-row vector whose seam stride matches.
  auto t = committed(Datatype::hvector(4, 1, 16, Datatype::int32()));
  // extent = 3*16+4 = 52; seam = (0 + 52) - 48 = 4 != 16 -> no pattern.
  EXPECT_FALSE(t.vector_pattern(2).has_value());
  EXPECT_TRUE(t.vector_pattern(1).has_value());
  // Resize so the seam equals the stride: extent 64.
  auto r = committed(Datatype::resized(t, 0, 64));
  auto p = r.vector_pattern(2);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (VectorPattern{8, 4, 16}));
}

TEST(DatatypePattern, ContiguousGivesSingleRowPattern) {
  auto t = committed(Datatype::contiguous(8, Datatype::float64()));
  auto p = t.vector_pattern(1);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->count, 1u);
  EXPECT_EQ(p->block_bytes, 64u);
}

TEST(DatatypePattern, ContiguousMultiElementPattern) {
  auto t = committed(Datatype::contiguous(4, Datatype::int32()));
  auto p = t.vector_pattern(3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->count, 3u);
  EXPECT_EQ(p->block_bytes, 16u);
  EXPECT_EQ(p->stride_bytes, 16);
}

TEST(DatatypePattern, IrregularIndexedHasNoPattern) {
  const std::array<int, 3> lens{1, 1, 1};
  const std::array<int, 3> displs{0, 3, 4};  // non-uniform stride
  auto t = committed(Datatype::indexed(lens, displs, Datatype::int32()));
  EXPECT_FALSE(t.vector_pattern(1).has_value());
}

TEST(DatatypePattern, UniformIndexedDetected) {
  const std::array<int, 3> lens{2, 2, 2};
  const std::array<int, 3> displs{0, 4, 8};
  auto t = committed(Datatype::indexed(lens, displs, Datatype::int32()));
  auto p = t.vector_pattern(1);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (VectorPattern{3, 8, 16}));
}

TEST(DatatypePattern, MixedBlockLengthsRejected) {
  const std::array<int, 2> lens{1, 2};
  const std::array<int, 2> displs{0, 4};
  auto t = committed(Datatype::indexed(lens, displs, Datatype::int32()));
  EXPECT_FALSE(t.vector_pattern(1).has_value());
}

// ---------------------------------------------------------------------------
// total_segments
// ---------------------------------------------------------------------------

TEST(Datatype, TotalSegmentsCounts) {
  auto v = committed(Datatype::vector(8, 1, 4, Datatype::int32()));
  EXPECT_EQ(v.total_segments(1), 8u);
  // The natural extent ends right after the last block, so consecutive
  // elements merge at the seam: 8*3 - 2 = 22 runs.
  EXPECT_EQ(v.total_segments(3), 22u);
  // With the extent padded out to the full stride there is no seam merge.
  auto vp = committed(Datatype::resized(v, 0, 8 * 16));
  EXPECT_EQ(vp.total_segments(3), 24u);
  auto c = committed(Datatype::contiguous(8, Datatype::int32()));
  EXPECT_EQ(c.total_segments(1), 1u);
  EXPECT_EQ(c.total_segments(5), 1u);  // seam merges
  EXPECT_EQ(c.total_segments(0), 0u);
}

// ---------------------------------------------------------------------------
// Canonical strided blocks
// ---------------------------------------------------------------------------

TEST(Datatype, CanonicalBlocksOfRegularConstructors) {
  // One block per regular constructor, however many rows it covers.
  EXPECT_EQ(committed(Datatype::contiguous(1000, Datatype::float32())).blocks(),
            std::vector<StridedBlock>{block(0, 4000)});
  EXPECT_EQ(committed(Datatype::vector(64, 1, 4, Datatype::int32())).blocks(),
            std::vector<StridedBlock>{block(0, 4, {{64, 16}})});
  // A vector of vectors whose rows continue one progression fuses.
  EXPECT_EQ(committed(Datatype::hvector(8, 1, 64,
                                        Datatype::vector(4, 1, 4,
                                                         Datatype::int32())))
                .blocks(),
            std::vector<StridedBlock>{block(0, 4, {{32, 16}})});
  EXPECT_EQ(committed(Datatype::indexed_block(
                          2, std::vector<int>{0, 5, 10, 15}, Datatype::int32()))
                .blocks(),
            std::vector<StridedBlock>{block(0, 8, {{4, 20}})});
  // Column face of a 34x50x66 brick of doubles: rows of one double, 48 per
  // plane 528 B apart, 32 planes 26400 B apart.
  const std::array<int, 3> sizes{34, 50, 66};
  const std::array<int, 3> subsizes{32, 48, 1};
  const std::array<int, 3> starts{1, 1, 64};
  EXPECT_EQ(committed(Datatype::subarray(sizes, subsizes, starts,
                                         ArrayOrder::kC, Datatype::float64()))
                .blocks(),
            std::vector<StridedBlock>{
                block(26400 + 528 + 64 * 8, 8, {{48, 528}, {32, 26400}})});
}

TEST(Datatype, FlattenedSpellingGroupsIntoTheSameBlocks) {
  // hindexed has no canonical form: commit flattens it and groups the
  // runs, which for evenly spaced rows gives the vector's block back.
  const std::array<int, 4> lens{2, 2, 2, 2};
  const std::array<std::int64_t, 4> displs{0, 20, 40, 60};
  auto h = committed(Datatype::hindexed(lens, displs, Datatype::int32()));
  EXPECT_EQ(h.blocks(), std::vector<StridedBlock>{block(0, 8, {{4, 20}})});
  EXPECT_EQ(h.total_segments(1), 4u);
}

TEST(Datatype, RowsAbuttingAcrossCopiesMerge) {
  // Blocks of indexed_block that abut merge into one run.
  auto ib = committed(Datatype::indexed_block(2, std::vector<int>{0, 2, 6},
                                              Datatype::int32()));
  EXPECT_EQ(ib.blocks(),
            (std::vector<StridedBlock>{block(0, 16), block(24, 8)}));
  // Rows 0 and 8 of a 12-byte element, three copies 12 B apart: each
  // copy's last row abuts the next copy's first, leaving runs of 4, 8, 8
  // and 4 bytes. No strided shape holds them, so commit flattens.
  auto t = committed(Datatype::hvector(
      3, 1, 12, Datatype::vector(2, 1, 2, Datatype::int32())));
  EXPECT_EQ(t.total_segments(1), 4u);
  EXPECT_EQ(t.segments(),
            (std::vector<Segment>{{0, 4}, {8, 8}, {20, 8}, {32, 4}}));
  EXPECT_FALSE(t.vector_pattern(1).has_value());
  std::vector<int> src(9);
  std::iota(src.begin(), src.end(), 0);
  std::vector<int> packed(6, -1);
  t.pack(src.data(), 1, packed.data());
  EXPECT_EQ(packed, (std::vector<int>{0, 2, 3, 5, 6, 8}));
}

// ---------------------------------------------------------------------------
// Ranged pack/unpack (the 64 KB pipeline slice operation)
// ---------------------------------------------------------------------------

TEST(DatatypeRanged, SliceEqualsFullPack) {
  auto t = committed(Datatype::vector(37, 3, 7, Datatype::int32()));
  const int count = 5;
  const std::size_t total = t.size() * count;
  std::vector<std::byte> src(static_cast<std::size_t>(t.extent()) * count +
                             64);
  auto bytes = pattern_bytes(src.size());
  std::copy(bytes.begin(), bytes.end(), src.begin());
  std::vector<std::byte> full(total);
  t.pack(src.data(), count, full.data());
  // Reassemble from odd-sized slices.
  std::vector<std::byte> sliced(total, std::byte{0});
  const std::size_t chunk = 97;  // deliberately unaligned
  for (std::size_t off = 0; off < total; off += chunk) {
    const std::size_t n = std::min(chunk, total - off);
    t.pack_bytes(src.data(), count, off, n, sliced.data() + off);
  }
  EXPECT_EQ(full, sliced);
}

TEST(DatatypeRanged, SliceUnpackEqualsFullUnpack) {
  auto t = committed(Datatype::vector(23, 2, 5, Datatype::float32()));
  const int count = 4;
  const std::size_t total = t.size() * count;
  auto packed = pattern_bytes(total, 7);
  const std::size_t bufsz = static_cast<std::size_t>(t.extent()) * count + 64;
  std::vector<std::byte> a(bufsz, std::byte{0});
  std::vector<std::byte> b(bufsz, std::byte{0});
  t.unpack(packed.data(), count, a.data());
  const std::size_t chunk = 61;
  for (std::size_t off = 0; off < total; off += chunk) {
    const std::size_t n = std::min(chunk, total - off);
    t.unpack_bytes(packed.data() + off, count, off, n, b.data());
  }
  EXPECT_EQ(a, b);
}

TEST(DatatypeRanged, OutOfRangeThrows) {
  auto t = committed(Datatype::contiguous(4, Datatype::int32()));
  std::vector<std::byte> buf(64);
  EXPECT_THROW(t.pack_bytes(buf.data(), 1, 10, 10, buf.data()),
               std::out_of_range);
  EXPECT_THROW(t.unpack_bytes(buf.data(), 1, 0, 17, buf.data()),
               std::out_of_range);
}

TEST(DatatypeRanged, ZeroByteSliceIsNoop) {
  auto t = committed(Datatype::contiguous(4, Datatype::int32()));
  std::vector<std::byte> src(16), dst(16, std::byte{0xEE});
  t.pack_bytes(src.data(), 1, 8, 0, dst.data());
  EXPECT_EQ(dst[0], std::byte{0xEE});
}

// ---------------------------------------------------------------------------
// Property-style sweep: pack-then-unpack restores data for many shapes
// ---------------------------------------------------------------------------

struct ShapeParam {
  int count, blocklen, stride, elements;
};

class PackRoundTrip : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(PackRoundTrip, VectorRestoresOriginal) {
  const auto p = GetParam();
  auto t = committed(
      Datatype::vector(p.count, p.blocklen, p.stride, Datatype::int32()));
  const std::size_t span =
      static_cast<std::size_t>(t.extent()) * p.elements + 64;
  auto src = pattern_bytes(span, 11);
  std::vector<std::byte> packed(t.size() * p.elements);
  t.pack(src.data(), p.elements, packed.data());
  std::vector<std::byte> dst = src;  // holes must remain identical
  // Scrub the data positions so unpack provably writes them.
  for (int e = 0; e < p.elements; ++e) {
    for (const auto& s : t.segments()) {
      std::memset(dst.data() + e * t.extent() + s.offset, 0, s.length);
    }
  }
  t.unpack(packed.data(), p.elements, dst.data());
  EXPECT_EQ(src, dst);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PackRoundTrip,
    ::testing::Values(ShapeParam{1, 1, 1, 1}, ShapeParam{4, 1, 2, 1},
                      ShapeParam{16, 3, 5, 2}, ShapeParam{7, 2, 9, 3},
                      ShapeParam{64, 1, 64, 4}, ShapeParam{2, 8, 8, 5},
                      ShapeParam{128, 4, 6, 2}, ShapeParam{3, 1, 17, 7}));

TEST(Datatype, DescribeProducesReadableTree) {
  auto t = Datatype::vector(4, 1, 8, Datatype::float32());
  const std::string d = t.describe();
  EXPECT_NE(d.find("hvector"), std::string::npos);
  EXPECT_NE(d.find("MPI_FLOAT"), std::string::npos);
}

TEST(Datatype, NestedVectorOfVector) {
  // vector of vectors: 2-D tile out of a 3-D brick.
  auto row = committed(Datatype::vector(4, 1, 3, Datatype::int32()));
  auto r = Datatype::resized(row, 0, 12 * 4);
  auto tile = committed(Datatype::vector(2, 1, 2, r));
  EXPECT_EQ(tile.size(), 2u * 16u);
  std::vector<int> src(64);
  std::iota(src.begin(), src.end(), 0);
  std::vector<int> packed(8, -1);
  tile.pack(src.data(), 1, packed.data());
  EXPECT_EQ(packed[0], 0);
  EXPECT_EQ(packed[1], 3);
  EXPECT_EQ(packed[2], 6);
  EXPECT_EQ(packed[3], 9);
  EXPECT_EQ(packed[4], 24);
  EXPECT_EQ(packed[5], 27);
}
