#include "mpi/datatype.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace mv2gnc::mpisim {

namespace detail {

enum class Kind {
  kPredefined,
  kContiguous,
  kVector,   // stride normalized to bytes
  kIndexed,  // displacements normalized to bytes
  kStruct,
  kSubarray,
  kResized,
};

struct TypeNode {
  Kind kind = Kind::kPredefined;
  std::string name;

  // Type map summary (computed at construction).
  std::size_t size = 0;
  std::int64_t lb = 0;
  std::int64_t ub = 0;

  // Constructor parameters (meaning depends on kind).
  int count = 0;
  int blocklength = 0;
  std::int64_t stride_bytes = 0;
  std::vector<int> blocklengths;
  std::vector<std::int64_t> displacements;  // bytes
  std::vector<std::shared_ptr<TypeNode>> children;

  // Subarray parameters.
  std::vector<int> sizes;
  std::vector<int> subsizes;
  std::vector<int> starts;
  ArrayOrder order = ArrayOrder::kC;

  // Built by indexed_block: one block length throughout, so the node has
  // a canonical form (indexed and hindexed nodes are flattened).
  bool uniform_blocks = false;

  // Commit artifacts.
  bool committed = false;
  std::vector<StridedBlock> blocks;
  // Rows and packed bytes before block b within one element (nblocks + 1
  // entries each): the cursor's search table.
  std::vector<std::size_t> rows_before;
  std::vector<std::size_t> bytes_before;

  // Layout facts memoized in commit() so the per-send queries
  // (total_segments, vector_pattern, is_contiguous) are O(1).
  std::size_t nrows = 0;        // merged runs per element
  bool seam_merges = false;     // last run of elem k abuts first of k+1
  bool uniform_len = false;     // every run has the same length
  bool uniform_stride = false;  // equal gap between consecutive runs
  std::int64_t intra_stride = 0;
  bool seam_stride_ok = false;  // inter-element seam equals intra_stride
  // Contiguity memo for pre-commit queries: -1 unknown, else 0/1.
  mutable int contig_memo = -1;

  // Flattened runs: built at commit when the tree has no canonical form
  // (`flattened`), else on the first segments() call.
  bool flattened = false;
  mutable std::once_flag flat_once;
  mutable std::vector<Segment> flat;

  std::int64_t extent() const { return ub - lb; }
};

namespace {

void emit_segments(const TypeNode& n, std::int64_t base,
                   std::vector<Segment>& out);

void append_merged(std::vector<Segment>& out, std::int64_t offset,
                   std::size_t length) {
  if (length == 0) return;
  if (!out.empty() &&
      out.back().offset + static_cast<std::int64_t>(out.back().length) ==
          offset) {
    out.back().length += length;
    return;
  }
  out.push_back(Segment{offset, length});
}

void emit_child_block(const TypeNode& child, std::int64_t base, int blocklen,
                      std::vector<Segment>& out) {
  const std::int64_t ext = child.extent();
  for (int j = 0; j < blocklen; ++j) {
    emit_segments(child, base + static_cast<std::int64_t>(j) * ext, out);
  }
}

void emit_subarray_dim(const TypeNode& n, std::size_t depth, std::int64_t base,
                       const std::vector<std::int64_t>& dim_stride,
                       std::vector<Segment>& out) {
  const auto ndims = n.sizes.size();
  if (depth == ndims) {
    emit_segments(*n.children[0], base, out);
    return;
  }
  // The type-map order varies the fastest-moving dimension innermost:
  // the last dimension for C order, the first for Fortran order.
  const std::size_t dim =
      (n.order == ArrayOrder::kC) ? depth : ndims - 1 - depth;
  for (int i = 0; i < n.subsizes[dim]; ++i) {
    emit_subarray_dim(
        n, depth + 1,
        base + (n.starts[dim] + i) * dim_stride[dim], dim_stride, out);
  }
}

void emit_segments(const TypeNode& n, std::int64_t base,
                   std::vector<Segment>& out) {
  switch (n.kind) {
    case Kind::kPredefined:
      append_merged(out, base, n.size);
      return;
    case Kind::kContiguous:
      emit_child_block(*n.children[0], base, n.count, out);
      return;
    case Kind::kVector:
      for (int i = 0; i < n.count; ++i) {
        emit_child_block(*n.children[0],
                         base + static_cast<std::int64_t>(i) * n.stride_bytes,
                         n.blocklength, out);
      }
      return;
    case Kind::kIndexed:
      for (std::size_t k = 0; k < n.blocklengths.size(); ++k) {
        emit_child_block(*n.children[0], base + n.displacements[k],
                         n.blocklengths[k], out);
      }
      return;
    case Kind::kStruct:
      for (std::size_t k = 0; k < n.children.size(); ++k) {
        emit_child_block(*n.children[k], base + n.displacements[k],
                         n.blocklengths[k], out);
      }
      return;
    case Kind::kSubarray: {
      // dim_stride[d] = bytes between consecutive indices along dim d.
      const auto ndims = n.sizes.size();
      std::vector<std::int64_t> dim_stride(ndims);
      const std::int64_t elem = n.children[0]->extent();
      if (n.order == ArrayOrder::kC) {
        std::int64_t s = elem;
        for (std::size_t d = ndims; d-- > 0;) {
          dim_stride[d] = s;
          s *= n.sizes[d];
        }
      } else {
        std::int64_t s = elem;
        for (std::size_t d = 0; d < ndims; ++d) {
          dim_stride[d] = s;
          s *= n.sizes[d];
        }
      }
      emit_subarray_dim(n, 0, base, dim_stride, out);
      return;
    }
    case Kind::kResized:
      emit_segments(*n.children[0], base, out);
      return;
  }
}

// Upper bound on the number of flattened runs (before merging), used to
// reserve() the segment vector ahead of emission. Saturates at `cap`.
std::size_t run_upper_bound(const TypeNode& n, std::size_t cap) {
  const auto mul = [cap](std::size_t a, std::size_t b) {
    if (a == 0 || b == 0) return std::size_t{0};
    return (a > cap / b) ? cap : a * b;
  };
  switch (n.kind) {
    case Kind::kPredefined:
      return 1;
    case Kind::kContiguous:
      return mul(static_cast<std::size_t>(n.count),
                 run_upper_bound(*n.children[0], cap));
    case Kind::kVector:
      return mul(mul(static_cast<std::size_t>(n.count),
                     static_cast<std::size_t>(n.blocklength)),
                 run_upper_bound(*n.children[0], cap));
    case Kind::kIndexed: {
      std::size_t blocks = 0;
      for (int b : n.blocklengths) {
        blocks += static_cast<std::size_t>(b);
        if (blocks >= cap) return cap;
      }
      return mul(blocks, run_upper_bound(*n.children[0], cap));
    }
    case Kind::kStruct: {
      std::size_t total = 0;
      for (std::size_t k = 0; k < n.children.size(); ++k) {
        total += mul(static_cast<std::size_t>(n.blocklengths[k]),
                     run_upper_bound(*n.children[k], cap));
        if (total >= cap) return cap;
      }
      return total;
    }
    case Kind::kSubarray: {
      std::size_t points = 1;
      for (int s : n.subsizes) points = mul(points, static_cast<std::size_t>(s));
      return mul(points, run_upper_bound(*n.children[0], cap));
    }
    case Kind::kResized:
      return run_upper_bound(*n.children[0], cap);
  }
  return cap;
}

// ---------------------------------------------------------------------------
// Canonical strided blocks
// ---------------------------------------------------------------------------

using Blocks = std::vector<StridedBlock>;

// Caps the reserve() ahead of flattening (merging can only shrink the run
// count; the cap bounds memory for pathological trees).
constexpr std::size_t kReserveCap = std::size_t{1} << 22;

// Adds an outermost dimension of `n` copies `stride` bytes apart, fused
// into the current outermost one when the copies continue its progression.
// False, block untouched, when all three dimensions are in use.
bool add_outer_dim(StridedBlock& b, std::size_t n, std::int64_t stride) {
  if (b.ndims > 0) {
    StrideDim& outer = b.dims[b.ndims - 1];
    if (stride == static_cast<std::int64_t>(outer.count) * outer.stride) {
      outer.count *= n;
      return true;
    }
  }
  if (b.ndims == static_cast<int>(b.dims.size())) return false;
  b.dims[b.ndims++] = StrideDim{n, stride};
  return true;
}

bool same_dims(const StridedBlock& a, const StridedBlock& b, int ndims) {
  return std::equal(a.dims.begin(), a.dims.begin() + ndims, b.dims.begin());
}

// Folds `b` into `a` when b's rows continue a's pattern. Both have the
// same row length and a's last row does not abut b's first.
bool extend(StridedBlock& a, const StridedBlock& b) {
  if (a.ndims == b.ndims + 1 && same_dims(a, b, b.ndims)) {
    StrideDim& outer = a.dims[a.ndims - 1];
    if (b.offset ==
        a.offset + static_cast<std::int64_t>(outer.count) * outer.stride) {
      ++outer.count;  // b is one more step of a's outermost dimension
      return true;
    }
  }
  if (a.ndims == b.ndims && same_dims(a, b, a.ndims)) {
    return add_outer_dim(a, 2, b.offset - a.offset);  // b repeats a
  }
  return false;
}

// Appends b's rows after those of `out`. A row abutting the one before it
// merges into it, as flattening merges runs; false when a side of such a
// seam has several rows (the merged rows fit no strided shape).
bool append(Blocks& out, const StridedBlock& b) {
  if (!out.empty()) {
    StridedBlock& a = out.back();
    if (a.last_offset() + static_cast<std::int64_t>(a.length) == b.offset) {
      if (a.ndims != 0 || b.ndims != 0) return false;
      a.length += b.length;
      return true;
    }
    if (a.length == b.length && extend(a, b)) return true;
  }
  out.push_back(b);
  return true;
}

// `copies` copies of `part`, copy k shifted by shift_at(k) bytes.
template <typename ShiftAt>
std::optional<Blocks> concat_shifted(const Blocks& part, std::size_t copies,
                                     ShiftAt shift_at) {
  Blocks out;
  for (std::size_t k = 0; k < copies; ++k) {
    const std::int64_t shift = shift_at(k);
    for (StridedBlock b : part) {
      b.offset += shift;
      if (!append(out, b)) return std::nullopt;
    }
  }
  return out;
}

// `n` copies of `part`, `stride` bytes apart.
std::optional<Blocks> repeat(const Blocks& part, std::size_t n,
                             std::int64_t stride) {
  if (n == 0 || part.empty()) return Blocks{};
  if (n == 1) return part;
  if (part.size() == 1) {
    StridedBlock b = part[0];
    if (b.last_offset() + static_cast<std::int64_t>(b.length) ==
        b.offset + stride) {
      // Each copy's last row abuts the next copy's first.
      if (b.ndims != 0) return std::nullopt;
      b.length *= n;
      return Blocks{b};
    }
    if (add_outer_dim(b, n, stride)) return Blocks{b};
  }
  return concat_shifted(part, n, [stride](std::size_t k) {
    return static_cast<std::int64_t>(k) * stride;
  });
}

// Canonical blocks of one element straight from the type tree, O(tree) for
// the regular constructors; nullopt when the tree holds an indexed,
// hindexed or struct node or its merged rows fit no strided shape.
std::optional<Blocks> canonical(const TypeNode& n) {
  switch (n.kind) {
    case Kind::kPredefined:
      return Blocks{StridedBlock{0, n.size}};
    case Kind::kResized:
      return canonical(*n.children[0]);
    case Kind::kContiguous: {
      const TypeNode& c = *n.children[0];
      const auto child = canonical(c);
      if (!child) return std::nullopt;
      return repeat(*child, static_cast<std::size_t>(n.count), c.extent());
    }
    case Kind::kVector: {
      const TypeNode& c = *n.children[0];
      const auto child = canonical(c);
      if (!child) return std::nullopt;
      const auto block = repeat(
          *child, static_cast<std::size_t>(n.blocklength), c.extent());
      if (!block) return std::nullopt;
      return repeat(*block, static_cast<std::size_t>(n.count),
                    n.stride_bytes);
    }
    case Kind::kIndexed: {
      if (!n.uniform_blocks) return std::nullopt;
      const TypeNode& c = *n.children[0];
      const auto child = canonical(c);
      if (!child) return std::nullopt;
      if (n.blocklengths.empty()) return Blocks{};
      const auto block = repeat(
          *child, static_cast<std::size_t>(n.blocklengths[0]), c.extent());
      if (!block) return std::nullopt;
      return concat_shifted(*block, n.displacements.size(),
                            [&n](std::size_t k) { return n.displacements[k]; });
    }
    case Kind::kStruct:
      return std::nullopt;
    case Kind::kSubarray: {
      const TypeNode& c = *n.children[0];
      auto cur = canonical(c);
      if (!cur) return std::nullopt;
      const std::size_t ndims = n.sizes.size();
      std::vector<std::int64_t> dim_stride(ndims);
      std::int64_t s = c.extent();
      for (std::size_t k = 0; k < ndims; ++k) {
        const std::size_t d = (n.order == ArrayOrder::kC) ? ndims - 1 - k : k;
        dim_stride[d] = s;
        s *= n.sizes[d];
      }
      // Innermost (fastest-varying) dimension first, as the type map
      // orders it: the last for C order, the first for Fortran order.
      std::int64_t base = 0;
      for (std::size_t k = 0; k < ndims; ++k) {
        const std::size_t d = (n.order == ArrayOrder::kC) ? ndims - 1 - k : k;
        cur = repeat(*cur, static_cast<std::size_t>(n.subsizes[d]),
                     dim_stride[d]);
        if (!cur) return std::nullopt;
        base += n.starts[d] * dim_stride[d];
      }
      for (StridedBlock& b : *cur) b.offset += base;
      return cur;
    }
  }
  return std::nullopt;
}

std::vector<Segment> flatten(const TypeNode& n) {
  std::vector<Segment> segs;
  segs.reserve(run_upper_bound(n, kReserveCap));
  emit_segments(n, 0, segs);
  return segs;
}

// Flattened runs grouped into blocks. Runs never abut, so append always
// succeeds.
Blocks group(const std::vector<Segment>& segs) {
  Blocks out;
  for (const Segment& s : segs) append(out, StridedBlock{s.offset, s.length});
  return out;
}

// Blocks of one element: canonical when the tree has a canonical form,
// else the flattened runs grouped into blocks.
Blocks layout_blocks(const TypeNode& n) {
  if (auto blocks = canonical(n)) return std::move(*blocks);
  return group(flatten(n));
}

bool contiguous_blocks(const Blocks& blocks, std::size_t size,
                       std::int64_t extent) {
  return size == 0 ||
         (blocks.size() == 1 && blocks[0].ndims == 0 &&
          blocks[0].offset == 0 && blocks[0].length == size &&
          static_cast<std::int64_t>(size) == extent);
}

// Memoizes the prefix tables and layout facts of the committed blocks.
void summarize(TypeNode& n) {
  const Blocks& blocks = n.blocks;
  n.rows_before.assign(1, 0);
  n.bytes_before.assign(1, 0);
  n.rows_before.reserve(blocks.size() + 1);
  n.bytes_before.reserve(blocks.size() + 1);
  for (const StridedBlock& b : blocks) {
    n.rows_before.push_back(n.rows_before.back() + b.rows());
    n.bytes_before.push_back(n.bytes_before.back() + b.rows() * b.length);
  }
  if (n.bytes_before.back() != n.size) {
    throw std::logic_error("datatype commit: segment sum != size");
  }
  n.nrows = n.rows_before.back();
  n.contig_memo = contiguous_blocks(blocks, n.size, n.extent()) ? 1 : 0;
  if (blocks.empty()) return;
  const std::int64_t first = blocks.front().offset;
  const std::int64_t last = blocks.back().last_offset();
  n.seam_merges =
      last + static_cast<std::int64_t>(blocks.back().length) ==
      first + n.extent();
  n.uniform_len = std::all_of(
      blocks.begin(), blocks.end(),
      [&](const StridedBlock& b) { return b.length == blocks[0].length; });
  // Every gap between consecutive rows equals the first one: within each
  // block (whose outer dimensions must continue its innermost step) and
  // across block boundaries.
  bool have_step = false;
  bool uniform = true;
  std::int64_t step = 0;
  const auto gap = [&](std::int64_t g) {
    if (!have_step) {
      step = g;
      have_step = true;
    } else if (g != step) {
      uniform = false;
    }
  };
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const StridedBlock& b = blocks[i];
    if (i > 0) gap(b.offset - blocks[i - 1].last_offset());
    if (b.ndims == 0) continue;
    gap(b.dims[0].stride);
    std::int64_t span = b.dims[0].stride;
    for (int d = 1; d < b.ndims; ++d) {
      span *= static_cast<std::int64_t>(b.dims[d - 1].count);
      if (b.dims[d].stride != span) uniform = false;
    }
  }
  n.uniform_stride = uniform;
  n.intra_stride = step;
  n.seam_stride_ok = (first + n.extent()) - last == n.intra_stride;
}

std::shared_ptr<TypeNode> predefined(const char* name, std::size_t size) {
  auto n = std::make_shared<TypeNode>();
  n->kind = Kind::kPredefined;
  n->name = name;
  n->size = size;
  n->lb = 0;
  n->ub = static_cast<std::int64_t>(size);
  return n;
}

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

}  // namespace
}  // namespace detail

using detail::Kind;
using detail::TypeNode;

const TypeNode& Datatype::node() const {
  if (!node_) throw std::logic_error("null Datatype handle used");
  return *node_;
}

// ---------------------------------------------------------------------------
// Predefined types (one shared node per process, like MPI handles).
// ---------------------------------------------------------------------------

Datatype Datatype::byte() {
  static auto n = detail::predefined("MPI_BYTE", 1);
  return Datatype(n);
}
Datatype Datatype::int32() {
  static auto n = detail::predefined("MPI_INT", 4);
  return Datatype(n);
}
Datatype Datatype::int64() {
  static auto n = detail::predefined("MPI_LONG_LONG", 8);
  return Datatype(n);
}
Datatype Datatype::float32() {
  static auto n = detail::predefined("MPI_FLOAT", 4);
  return Datatype(n);
}
Datatype Datatype::float64() {
  static auto n = detail::predefined("MPI_DOUBLE", 8);
  return Datatype(n);
}

// ---------------------------------------------------------------------------
// Constructors
// ---------------------------------------------------------------------------

namespace {

void span_bounds(const TypeNode& child, std::int64_t block_base, int blocklen,
                 std::int64_t& lo, std::int64_t& hi) {
  // Bounds contributed by `blocklen` consecutive child elements at
  // block_base.
  const std::int64_t ext = child.extent();
  const std::int64_t first_lb = block_base + child.lb;
  const std::int64_t last_ub =
      block_base + static_cast<std::int64_t>(blocklen - 1) * ext + child.ub;
  lo = std::min(lo, std::min(first_lb, last_ub));
  hi = std::max(hi, std::max(first_lb, last_ub));
}

}  // namespace

Datatype Datatype::contiguous(int count, const Datatype& old) {
  detail::require(count >= 0, "contiguous: negative count");
  if (!old.valid()) throw std::invalid_argument("contiguous: null base type");
  auto n = std::make_shared<TypeNode>();
  n->kind = Kind::kContiguous;
  n->count = count;
  n->children.push_back(old.node_);
  const TypeNode& c = *old.node_;
  n->size = static_cast<std::size_t>(count) * c.size;
  if (count == 0) {
    n->lb = 0;
    n->ub = 0;
  } else {
    std::int64_t lo = INT64_MAX, hi = INT64_MIN;
    span_bounds(c, 0, count, lo, hi);
    n->lb = lo;
    n->ub = hi;
  }
  return Datatype(std::move(n));
}

Datatype Datatype::vector(int count, int blocklength, int stride,
                          const Datatype& old) {
  if (!old.valid()) throw std::invalid_argument("vector: null base type");
  return hvector(count, blocklength,
                 static_cast<std::int64_t>(stride) * old.node_->extent(), old);
}

Datatype Datatype::hvector(int count, int blocklength,
                           std::int64_t stride_bytes, const Datatype& old) {
  detail::require(count >= 0, "hvector: negative count");
  detail::require(blocklength >= 0, "hvector: negative blocklength");
  if (!old.valid()) throw std::invalid_argument("hvector: null base type");
  auto n = std::make_shared<TypeNode>();
  n->kind = Kind::kVector;
  n->count = count;
  n->blocklength = blocklength;
  n->stride_bytes = stride_bytes;
  n->children.push_back(old.node_);
  const TypeNode& c = *old.node_;
  n->size = static_cast<std::size_t>(count) *
            static_cast<std::size_t>(blocklength) * c.size;
  if (count == 0 || blocklength == 0) {
    n->lb = 0;
    n->ub = 0;
  } else {
    // The bounds move linearly with the block index, so the first and
    // last blocks hold the extremes.
    std::int64_t lo = INT64_MAX, hi = INT64_MIN;
    span_bounds(c, 0, blocklength, lo, hi);
    span_bounds(c, static_cast<std::int64_t>(count - 1) * stride_bytes,
                blocklength, lo, hi);
    n->lb = lo;
    n->ub = hi;
  }
  return Datatype(std::move(n));
}

Datatype Datatype::indexed(std::span<const int> blocklengths,
                           std::span<const int> displacements,
                           const Datatype& old) {
  if (!old.valid()) throw std::invalid_argument("indexed: null base type");
  detail::require(blocklengths.size() == displacements.size(),
                  "indexed: blocklengths/displacements size mismatch");
  std::vector<std::int64_t> displs_bytes(displacements.size());
  const std::int64_t ext = old.node_->extent();
  for (std::size_t i = 0; i < displacements.size(); ++i) {
    displs_bytes[i] = static_cast<std::int64_t>(displacements[i]) * ext;
  }
  return hindexed(blocklengths, displs_bytes, old);
}

Datatype Datatype::hindexed(std::span<const int> blocklengths,
                            std::span<const std::int64_t> displacements_bytes,
                            const Datatype& old) {
  if (!old.valid()) throw std::invalid_argument("hindexed: null base type");
  detail::require(blocklengths.size() == displacements_bytes.size(),
                  "hindexed: blocklengths/displacements size mismatch");
  auto n = std::make_shared<TypeNode>();
  n->kind = Kind::kIndexed;
  n->blocklengths.assign(blocklengths.begin(), blocklengths.end());
  n->displacements.assign(displacements_bytes.begin(),
                          displacements_bytes.end());
  n->children.push_back(old.node_);
  const TypeNode& c = *old.node_;
  std::size_t size = 0;
  std::int64_t lo = INT64_MAX, hi = INT64_MIN;
  bool any = false;
  for (std::size_t k = 0; k < n->blocklengths.size(); ++k) {
    detail::require(n->blocklengths[k] >= 0, "hindexed: negative blocklength");
    size += static_cast<std::size_t>(n->blocklengths[k]) * c.size;
    if (n->blocklengths[k] > 0) {
      any = true;
      span_bounds(c, n->displacements[k], n->blocklengths[k], lo, hi);
    }
  }
  n->size = size;
  n->lb = any ? lo : 0;
  n->ub = any ? hi : 0;
  return Datatype(std::move(n));
}

Datatype Datatype::indexed_block(int blocklength,
                                 std::span<const int> displacements,
                                 const Datatype& old) {
  std::vector<int> blocklens(displacements.size(), blocklength);
  Datatype t = indexed(blocklens, displacements, old);
  t.node_->uniform_blocks = true;
  return t;
}

Datatype Datatype::create_struct(std::span<const int> blocklengths,
                                 std::span<const std::int64_t> displacements,
                                 std::span<const Datatype> types) {
  detail::require(blocklengths.size() == displacements.size() &&
                      blocklengths.size() == types.size(),
                  "create_struct: argument size mismatch");
  auto n = std::make_shared<TypeNode>();
  n->kind = Kind::kStruct;
  n->blocklengths.assign(blocklengths.begin(), blocklengths.end());
  n->displacements.assign(displacements.begin(), displacements.end());
  std::size_t size = 0;
  std::int64_t lo = INT64_MAX, hi = INT64_MIN;
  bool any = false;
  for (std::size_t k = 0; k < types.size(); ++k) {
    if (!types[k].valid()) {
      throw std::invalid_argument("create_struct: null member type");
    }
    detail::require(blocklengths[k] >= 0,
                    "create_struct: negative blocklength");
    n->children.push_back(types[k].node_);
    const TypeNode& c = *types[k].node_;
    size += static_cast<std::size_t>(blocklengths[k]) * c.size;
    if (blocklengths[k] > 0) {
      any = true;
      span_bounds(c, displacements[k], blocklengths[k], lo, hi);
    }
  }
  n->size = size;
  n->lb = any ? lo : 0;
  n->ub = any ? hi : 0;
  return Datatype(std::move(n));
}

Datatype Datatype::subarray(std::span<const int> sizes,
                            std::span<const int> subsizes,
                            std::span<const int> starts, ArrayOrder order,
                            const Datatype& old) {
  if (!old.valid()) throw std::invalid_argument("subarray: null base type");
  const std::size_t ndims = sizes.size();
  detail::require(ndims > 0, "subarray: zero dimensions");
  detail::require(subsizes.size() == ndims && starts.size() == ndims,
                  "subarray: dimension count mismatch");
  for (std::size_t d = 0; d < ndims; ++d) {
    detail::require(sizes[d] > 0, "subarray: non-positive size");
    detail::require(subsizes[d] > 0 && subsizes[d] <= sizes[d],
                    "subarray: bad subsize");
    detail::require(starts[d] >= 0 && starts[d] + subsizes[d] <= sizes[d],
                    "subarray: bad start");
  }
  auto n = std::make_shared<TypeNode>();
  n->kind = Kind::kSubarray;
  n->sizes.assign(sizes.begin(), sizes.end());
  n->subsizes.assign(subsizes.begin(), subsizes.end());
  n->starts.assign(starts.begin(), starts.end());
  n->order = order;
  n->children.push_back(old.node_);
  const TypeNode& c = *old.node_;
  std::size_t points = 1;
  std::int64_t full = 1;
  for (std::size_t d = 0; d < ndims; ++d) {
    points *= static_cast<std::size_t>(subsizes[d]);
    full *= sizes[d];
  }
  n->size = points * c.size;
  // MPI: the extent of a subarray type is the extent of the full array.
  n->lb = 0;
  n->ub = full * c.extent();
  return Datatype(std::move(n));
}

Datatype Datatype::resized(const Datatype& old, std::int64_t lb,
                           std::int64_t extent) {
  if (!old.valid()) throw std::invalid_argument("resized: null base type");
  auto n = std::make_shared<TypeNode>();
  n->kind = Kind::kResized;
  n->children.push_back(old.node_);
  n->size = old.node_->size;
  n->lb = lb;
  n->ub = lb + extent;
  return Datatype(std::move(n));
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

std::size_t Datatype::size() const { return node().size; }
std::int64_t Datatype::extent() const { return node().extent(); }
std::int64_t Datatype::lower_bound() const { return node().lb; }

bool Datatype::is_contiguous() const {
  const TypeNode& n = node();
  if (n.size == 0) return true;
  if (n.contig_memo < 0) {
    // First query on an uncommitted tree: build its blocks once and
    // memoize (the tree is immutable, so the answer never changes).
    n.contig_memo =
        detail::contiguous_blocks(detail::layout_blocks(n), n.size, n.extent())
            ? 1
            : 0;
  }
  return n.contig_memo == 1;
}

std::string Datatype::describe() const {
  const TypeNode& n = node();
  std::ostringstream os;
  switch (n.kind) {
    case Kind::kPredefined: os << n.name; break;
    case Kind::kContiguous:
      os << "contiguous(" << n.count << ", "
         << Datatype(n.children[0]).describe() << ")";
      break;
    case Kind::kVector:
      os << "hvector(count=" << n.count << ", blocklen=" << n.blocklength
         << ", stride=" << n.stride_bytes << "B, "
         << Datatype(n.children[0]).describe() << ")";
      break;
    case Kind::kIndexed:
      os << "hindexed(" << n.blocklengths.size() << " blocks, "
         << Datatype(n.children[0]).describe() << ")";
      break;
    case Kind::kStruct:
      os << "struct(" << n.children.size() << " members)";
      break;
    case Kind::kSubarray: {
      os << "subarray([";
      for (std::size_t d = 0; d < n.sizes.size(); ++d) {
        os << (d ? "," : "") << n.subsizes[d] << "/" << n.sizes[d];
      }
      os << "], " << Datatype(n.children[0]).describe() << ")";
      break;
    }
    case Kind::kResized:
      os << "resized(lb=" << n.lb << ", extent=" << n.extent() << ", "
         << Datatype(n.children[0]).describe() << ")";
      break;
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Commit & layout access
// ---------------------------------------------------------------------------

void Datatype::commit() {
  TypeNode& n = const_cast<TypeNode&>(node());
  if (n.committed) return;
  if (auto blocks = detail::canonical(n)) {
    n.blocks = std::move(*blocks);
  } else {
    // No canonical form: flatten once and keep the runs, which host pack
    // walks at 16 bytes a run.
    std::call_once(n.flat_once, [&n] { n.flat = detail::flatten(n); });
    n.blocks = detail::group(n.flat);
    n.flattened = true;
  }
  detail::summarize(n);
  n.committed = true;
}

bool Datatype::committed() const { return node().committed; }

namespace {

const TypeNode& committed_node(const Datatype& t, const TypeNode& n,
                               const char* api) {
  if (!n.committed) {
    throw std::logic_error(std::string(api) +
                           ": datatype not committed: " + t.describe());
  }
  return n;
}

}  // namespace

const std::vector<StridedBlock>& Datatype::blocks() const {
  return committed_node(*this, node(), "blocks").blocks;
}

const std::vector<Segment>& Datatype::segments() const {
  const TypeNode& n = committed_node(*this, node(), "segments");
  std::call_once(n.flat_once, [&n] { n.flat = detail::flatten(n); });
  return n.flat;
}

std::size_t Datatype::total_segments(int count) const {
  const TypeNode& n = committed_node(*this, node(), "total_segments");
  if (count <= 0 || n.nrows == 0) return 0;
  // Elements may merge at the seam if the last run of element k abuts the
  // first run of element k+1 (memoized at commit).
  const std::size_t per = n.nrows;
  if (n.seam_merges) {
    return per * static_cast<std::size_t>(count) -
           static_cast<std::size_t>(count - 1);
  }
  return per * static_cast<std::size_t>(count);
}

std::optional<VectorPattern> Datatype::vector_pattern(int count) const {
  const TypeNode& n = committed_node(*this, node(), "vector_pattern");
  if (count <= 0 || n.nrows == 0 || n.size == 0) return std::nullopt;
  // All facts memoized at commit: this is O(1) on the send path.
  const std::size_t len = n.blocks[0].length;
  if (!n.uniform_len) return std::nullopt;
  if (n.nrows > 1 && !n.uniform_stride) return std::nullopt;
  if (count == 1) {
    if (n.nrows == 1) {
      return VectorPattern{1, len, static_cast<std::int64_t>(len)};
    }
    return VectorPattern{n.nrows, len, n.intra_stride};
  }
  if (n.nrows == 1) {
    // Single block per element: the seam becomes the stride.
    return VectorPattern{static_cast<std::size_t>(count), len, n.extent()};
  }
  // Across elements the seam stride must equal the intra-element stride.
  if (!n.seam_stride_ok) return std::nullopt;
  return VectorPattern{n.nrows * static_cast<std::size_t>(count), len,
                       n.intra_stride};
}

// ---------------------------------------------------------------------------
// Pack / unpack
// ---------------------------------------------------------------------------

namespace {

// Shared gather/scatter driver. `kPack` copies typed -> dense, `kUnpack`
// dense -> typed.
enum class XferDir { kPack, kUnpack };

// Visits the rows of `b` from row `first` on, passing each row's offset to
// `f`; stops early when `f` returns false.
template <typename F>
void for_each_row(const StridedBlock& b, std::size_t first, F&& f) {
  std::array<std::size_t, 3> idx{};
  std::int64_t off = b.offset;
  for (int d = 0; d < b.ndims; ++d) {
    idx[d] = first % b.dims[d].count;
    first /= b.dims[d].count;
    off += static_cast<std::int64_t>(idx[d]) * b.dims[d].stride;
  }
  for (;;) {
    if (!f(off)) return;
    int d = 0;
    for (; d < b.ndims; ++d) {
      if (++idx[d] < b.dims[d].count) {
        off += b.dims[d].stride;
        break;
      }
      idx[d] = 0;
      off -= static_cast<std::int64_t>(b.dims[d].count - 1) * b.dims[d].stride;
    }
    if (d == b.ndims) return;
  }
}

// Index of the block holding row `row` of an element (nblocks past the
// last row).
std::size_t block_of_row(const TypeNode& n, std::size_t row) {
  const auto it =
      std::upper_bound(n.rows_before.begin(), n.rows_before.end(), row);
  return static_cast<std::size_t>(std::distance(n.rows_before.begin(), it)) -
         1;
}

// Locate packed-stream offset `pack_offset` (the one search of the ranged
// pack path; everything downstream advances the cursor without searching).
PackCursor cursor_for(const TypeNode& n, std::size_t pack_offset) {
  PackCursor cur;
  if (n.size == 0) return cur;
  cur.elem = pack_offset / n.size;
  const std::size_t within = pack_offset % n.size;
  const auto it =
      std::upper_bound(n.bytes_before.begin(), n.bytes_before.end(), within);
  const auto b = static_cast<std::size_t>(
                     std::distance(n.bytes_before.begin(), it)) -
                 1;
  const std::size_t in_block = within - n.bytes_before[b];
  cur.seg = n.rows_before[b] + in_block / n.blocks[b].length;
  cur.skip = in_block % n.blocks[b].length;
  return cur;
}

// Packed-stream offset a cursor addresses.
std::size_t cursor_offset(const TypeNode& n, const PackCursor& cur) {
  std::size_t in_elem = 0;
  if (cur.seg < n.nrows) {
    const std::size_t b = block_of_row(n, cur.seg);
    in_elem = n.bytes_before[b] + (cur.seg - n.rows_before[b]) *
                                      n.blocks[b].length;
  } else if (cur.seg == n.nrows) {
    in_elem = n.size;
  }
  return cur.elem * n.size + in_elem + cur.skip;
}

// Gather/scatter `nbytes` starting at `cur`, row by row: O(rows in range)
// after one search for the cursor's block. A flattened type walks its runs,
// a canonical one its blocks.
void move_from_cursor(const TypeNode& n, XferDir dir, const void* src,
                      void* dst, PackCursor cur, std::size_t nbytes) {
  const auto* in = static_cast<const std::byte*>(src);
  auto* out = static_cast<std::byte*>(dst);
  const std::int64_t ext = n.extent();
  std::size_t e = cur.elem;
  std::size_t skip = cur.skip;
  std::size_t dense = 0;  // position within the packed slice
  std::int64_t base = 0;  // current element's base offset
  std::size_t len = 0;    // current block's row length
  // Moves the row at `off` from byte `skip` on, clipped to the range.
  const auto move_row = [&](std::int64_t off) {
    const std::size_t take = std::min(len - skip, nbytes);
    const std::int64_t at = base + off + static_cast<std::int64_t>(skip);
    if (dir == XferDir::kPack) {
      std::memcpy(out + dense, in + at, take);
    } else {
      std::memcpy(out + at, in + dense, take);
    }
    dense += take;
    nbytes -= take;
    skip = 0;
    return nbytes > 0;
  };
  if (n.flattened) {
    for (std::size_t s = cur.seg; nbytes > 0; ++s) {
      if (s >= n.flat.size()) {  // element exhausted; move to the next
        ++e;
        s = 0;
      }
      base = static_cast<std::int64_t>(e) * ext;
      len = n.flat[s].length;
      move_row(n.flat[s].offset);
    }
    return;
  }
  std::size_t b = block_of_row(n, cur.seg);
  std::size_t row = b < n.blocks.size() ? cur.seg - n.rows_before[b] : 0;
  while (nbytes > 0) {
    if (b == n.blocks.size()) {  // element exhausted; move to the next
      ++e;
      b = 0;
      row = 0;
      skip = 0;
    }
    const StridedBlock& blk = n.blocks[b];
    base = static_cast<std::int64_t>(e) * ext;
    len = blk.length;
    if (blk.ndims == 0) {
      move_row(blk.offset);  // one row: the usual flattened block
    } else {
      for_each_row(blk, row, move_row);
    }
    ++b;
    row = 0;
  }
}

void check_range(const TypeNode& n, int count, std::size_t pack_offset,
                 std::size_t nbytes) {
  const std::size_t total = n.size * static_cast<std::size_t>(count);
  if (pack_offset > total || nbytes > total - pack_offset) {
    throw std::out_of_range("pack/unpack byte range outside message");
  }
}

}  // namespace

void Datatype::pack(const void* src, int count, void* dst) const {
  const TypeNode& n = committed_node(*this, node(), "pack");
  move_from_cursor(n, XferDir::kPack, src, dst, PackCursor{},
                   n.size * static_cast<std::size_t>(std::max(count, 0)));
}

void Datatype::unpack(const void* src, int count, void* dst) const {
  const TypeNode& n = committed_node(*this, node(), "unpack");
  move_from_cursor(n, XferDir::kUnpack, src, dst, PackCursor{},
                   n.size * static_cast<std::size_t>(std::max(count, 0)));
}

void Datatype::pack_bytes(const void* src, int count, std::size_t pack_offset,
                          std::size_t nbytes, void* dst) const {
  const TypeNode& n = committed_node(*this, node(), "pack_bytes");
  check_range(n, count, pack_offset, nbytes);
  move_from_cursor(n, XferDir::kPack, src, dst, cursor_for(n, pack_offset),
                   nbytes);
}

void Datatype::unpack_bytes(const void* src, int count,
                            std::size_t pack_offset, std::size_t nbytes,
                            void* dst) const {
  const TypeNode& n = committed_node(*this, node(), "unpack_bytes");
  check_range(n, count, pack_offset, nbytes);
  move_from_cursor(n, XferDir::kUnpack, src, dst, cursor_for(n, pack_offset),
                   nbytes);
}

PackCursor Datatype::cursor_at(int count, std::size_t pack_offset) const {
  const TypeNode& n = committed_node(*this, node(), "cursor_at");
  check_range(n, count, pack_offset, 0);
  return cursor_for(n, pack_offset);
}

void Datatype::pack_bytes_from(const PackCursor& cur, const void* src,
                               int count, std::size_t nbytes,
                               void* dst) const {
  const TypeNode& n = committed_node(*this, node(), "pack_bytes_from");
  if (n.size == 0 && nbytes == 0) return;
  check_range(n, count, cursor_offset(n, cur), nbytes);
  move_from_cursor(n, XferDir::kPack, src, dst, cur, nbytes);
}

void Datatype::unpack_bytes_from(const PackCursor& cur, const void* src,
                                 int count, std::size_t nbytes,
                                 void* dst) const {
  const TypeNode& n = committed_node(*this, node(), "unpack_bytes_from");
  if (n.size == 0 && nbytes == 0) return;
  check_range(n, count, cursor_offset(n, cur), nbytes);
  move_from_cursor(n, XferDir::kUnpack, src, dst, cur, nbytes);
}

}  // namespace mv2gnc::mpisim
