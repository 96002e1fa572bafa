// MPI derived-datatype engine.
//
// Implements the MPI type-constructor algebra the paper's workloads use —
// contiguous, vector/hvector, indexed/hindexed/indexed_block, struct,
// subarray, resized — over a small set of predefined types. A committed
// type describes one element as a canonical list of StridedBlocks: each an
// offset, a row length and up to three (count, stride) pairs, the form
// TEMPI reduces CUDA-aware MPI datatypes to (arXiv 2012.14363) and the
// shape one cudaMemcpy2D call moves (paper §IV-A). The list covers the
// element's rows in packed-stream order, and no two consecutive rows abut
// (abutting runs are merged), so rows and flattened segments are the same
// thing.
//
// commit() builds the list from the type tree in O(tree) when every node
// is predefined, contiguous, vector/hvector, indexed_block, subarray or
// resized. Trees holding indexed, hindexed or struct nodes, or whose
// merged rows fit no strided shape, are flattened once into segments,
// which are kept, and the segments grouped into blocks. The queries read
// the blocks:
//   * size()/extent()/lower_bound() per the MPI type map rules;
//   * is_contiguous(), total_segments() and vector_pattern(), memoized at
//     commit;
//   * resumable cursors, located with one search of a per-block table.
// Full and byte-ranged pack/unpack (the ranged form being what the 64 KB
// chunked pipeline of §IV-B slices on) walk a canonical type's blocks row
// by row, and a flattened type's kept segments. segments() returns the
// flattened list, built from the tree on the first call for a canonical
// type.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mv2gnc::mpisim {

/// One contiguous run of bytes within a single type element, relative to
/// the element base address.
struct Segment {
  std::int64_t offset = 0;
  std::size_t length = 0;

  friend bool operator==(const Segment&, const Segment&) = default;
};

/// One (count, stride) dimension of a StridedBlock.
struct StrideDim {
  std::size_t count = 0;
  std::int64_t stride = 0;

  friend bool operator==(const StrideDim&, const StrideDim&) = default;
};

/// Canonical strided block: rows of `length` bytes at offset
/// + i0*dims[0].stride + i1*dims[1].stride + i2*dims[2].stride, visited
/// with i0 fastest. The first `ndims` dims are in use, each with count >= 2.
struct StridedBlock {
  std::int64_t offset = 0;
  std::size_t length = 0;
  int ndims = 0;
  std::array<StrideDim, 3> dims{};

  std::size_t rows() const {
    std::size_t r = 1;
    for (int d = 0; d < ndims; ++d) r *= dims[d].count;
    return r;
  }
  /// Offset of the block's last row.
  std::int64_t last_offset() const {
    std::int64_t off = offset;
    for (int d = 0; d < ndims; ++d) {
      off += static_cast<std::int64_t>(dims[d].count - 1) * dims[d].stride;
    }
    return off;
  }

  friend bool operator==(const StridedBlock&, const StridedBlock&) = default;
};

/// Detected uniform strided layout: `count` blocks of `block_bytes` every
/// `stride_bytes`. This maps 1:1 onto a cudaMemcpy2D call.
struct VectorPattern {
  std::size_t count = 0;
  std::size_t block_bytes = 0;
  std::int64_t stride_bytes = 0;

  friend bool operator==(const VectorPattern&, const VectorPattern&) = default;
};

/// Array storage order for subarray types.
enum class ArrayOrder { kC, kFortran };

/// Resumable position within the packed stream of a (type, count) message:
/// element index, row (segment) index within that element, and bytes
/// already consumed of that row. A cursor fixes the starting point of a
/// byte-ranged pack/unpack so chunked pipelines resume in O(1) instead of
/// re-searching the prefix table per chunk.
struct PackCursor {
  std::size_t elem = 0;
  std::size_t seg = 0;
  std::size_t skip = 0;

  friend bool operator==(const PackCursor&, const PackCursor&) = default;
};

namespace detail {
struct TypeNode;
}

/// Value-semantics handle to an immutable type tree (like an MPI_Datatype
/// handle). Default-constructed handles are null and unusable.
class Datatype {
 public:
  Datatype() = default;

  // -- predefined types -------------------------------------------------
  static Datatype byte();     ///< MPI_BYTE
  static Datatype int32();    ///< MPI_INT
  static Datatype int64();    ///< MPI_LONG_LONG
  static Datatype float32();  ///< MPI_FLOAT
  static Datatype float64();  ///< MPI_DOUBLE

  // -- constructors (MPI_Type_*) -----------------------------------------
  static Datatype contiguous(int count, const Datatype& old);
  /// stride counted in elements of `old` (MPI_Type_vector).
  static Datatype vector(int count, int blocklength, int stride,
                         const Datatype& old);
  /// stride counted in bytes (MPI_Type_create_hvector).
  static Datatype hvector(int count, int blocklength,
                          std::int64_t stride_bytes, const Datatype& old);
  /// displacements counted in elements of `old` (MPI_Type_indexed).
  static Datatype indexed(std::span<const int> blocklengths,
                          std::span<const int> displacements,
                          const Datatype& old);
  /// displacements counted in bytes (MPI_Type_create_hindexed).
  static Datatype hindexed(std::span<const int> blocklengths,
                           std::span<const std::int64_t> displacements_bytes,
                           const Datatype& old);
  /// equal block lengths (MPI_Type_create_indexed_block).
  static Datatype indexed_block(int blocklength,
                                std::span<const int> displacements,
                                const Datatype& old);
  /// heterogeneous struct (MPI_Type_create_struct).
  static Datatype create_struct(std::span<const int> blocklengths,
                                std::span<const std::int64_t> displacements,
                                std::span<const Datatype> types);
  /// n-dimensional subarray (MPI_Type_create_subarray).
  static Datatype subarray(std::span<const int> sizes,
                           std::span<const int> subsizes,
                           std::span<const int> starts, ArrayOrder order,
                           const Datatype& old);
  /// override lb/extent (MPI_Type_create_resized).
  static Datatype resized(const Datatype& old, std::int64_t lb,
                          std::int64_t extent);

  // -- queries ------------------------------------------------------------
  bool valid() const { return node_ != nullptr; }
  /// Bytes of actual data in one element (MPI_Type_size).
  std::size_t size() const;
  /// Span covered by one element, ub - lb (MPI_Type_get_extent).
  std::int64_t extent() const;
  std::int64_t lower_bound() const;
  std::int64_t upper_bound() const { return lower_bound() + extent(); }
  /// True when one element is a single dense run at offset 0 whose length
  /// equals the extent (no holes anywhere).
  bool is_contiguous() const;
  /// Human-readable constructor tree, for diagnostics.
  std::string describe() const;

  // -- commit & layout access ---------------------------------------------
  /// MPI_Type_commit: builds the canonical block list. Communication and
  /// pack/unpack require a committed type.
  void commit();
  bool committed() const;

  /// Canonical strided blocks of one element, in packed-stream order
  /// (requires commit).
  const std::vector<StridedBlock>& blocks() const;
  /// Flattened runs of one element (requires commit). Built from the type
  /// tree on the first call unless commit already flattened the type.
  const std::vector<Segment>& segments() const;
  /// Number of contiguous runs in `count` elements.
  std::size_t total_segments(int count) const;
  /// Uniform strided pattern across `count` consecutive elements, if the
  /// layout is expressible as one (requires commit).
  std::optional<VectorPattern> vector_pattern(int count) const;

  // -- host pack/unpack -----------------------------------------------------
  /// Gather `count` elements starting at `src` into the dense buffer `dst`
  /// (dst must hold count*size() bytes). Requires commit.
  void pack(const void* src, int count, void* dst) const;
  /// Scatter the dense buffer `src` into `count` elements at `dst`.
  void unpack(const void* src, int count, void* dst) const;
  /// Gather only packed-stream bytes [pack_offset, pack_offset+nbytes) of
  /// the count-element message into `dst` — the chunked-pipeline slice.
  void pack_bytes(const void* src, int count, std::size_t pack_offset,
                  std::size_t nbytes, void* dst) const;
  /// Scatter `nbytes` of packed stream starting at packed-stream offset
  /// `pack_offset` from `src` into the typed buffer `dst`.
  void unpack_bytes(const void* src, int count, std::size_t pack_offset,
                    std::size_t nbytes, void* dst) const;

  // -- resumable cursors ----------------------------------------------------
  /// Locate packed-stream offset `pack_offset` of a count-element message
  /// (one search of the per-block prefix table; requires commit).
  PackCursor cursor_at(int count, std::size_t pack_offset) const;
  /// pack_bytes starting at a precomputed cursor: O(rows in range), one
  /// search over the blocks. The cursor must address a message of >= count elements.
  void pack_bytes_from(const PackCursor& cur, const void* src, int count,
                       std::size_t nbytes, void* dst) const;
  /// Mirror of pack_bytes_from for the unpack direction.
  void unpack_bytes_from(const PackCursor& cur, const void* src, int count,
                         std::size_t nbytes, void* dst) const;

  /// Opaque identity of the underlying (shared) type tree; equal handles
  /// share it. Used as the pack-plan cache's fast-path key.
  const void* node_id() const { return node_.get(); }

  friend bool operator==(const Datatype& a, const Datatype& b) {
    return a.node_ == b.node_;
  }

 private:
  explicit Datatype(std::shared_ptr<detail::TypeNode> node)
      : node_(std::move(node)) {}
  const detail::TypeNode& node() const;
  std::shared_ptr<detail::TypeNode> node_;
};

}  // namespace mv2gnc::mpisim
