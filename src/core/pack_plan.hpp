// Pack-plan engine: canonicalized, cached transfer plans for derived
// datatypes (the hot-path companion of docs/DATATYPE.md).
//
// A PackPlan computes, once per (type, count) pair, the facts every send
// of that message needs, and a process-wide LRU cache (PlanCache) shares
// the result across sends, ranks and retransmissions. A plan reads the
// committed type's canonical strided blocks (mpi/datatype.hpp), never its
// flattened segment list, so building one costs O(blocks) for the regular
// constructors however many rows the message has:
//
//   * canonical signature: a hash of the message's merged rows, evaluated
//     per block in closed form, so two trees describing the same layout
//     (contiguous-of-contiguous vs contiguous, vector-of-vector vs one
//     vector, a subarray vs the hindexed that spells out its rows) dedupe
//     onto one plan (the cache's signature tier);
//   * layout class: contiguous, one uniform 2-D pattern, a few uniform
//     sub-patterns, or irregular;
//   * sub-pattern decomposition: the rows grouped greedily into maximal
//     uniform (block, stride, rows) runs, so the device path makes a few
//     batched 2-D copies instead of a degenerate per-row gather kernel.
//     The grouping walks whole innermost runs of the blocks, not rows;
//   * chunk cursors: per pipeline-chunk resumable PackCursors plus exact
//     per-chunk segment counts, so chunked host pack/unpack resumes with
//     zero per-chunk searching and a retransmitted chunk reuses the stored
//     table verbatim.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "mpi/datatype.hpp"

namespace mv2gnc::core {

/// One maximal uniform run of the count-element layout's rows: `rows`
/// blocks of `block` bytes, every `stride` bytes, starting `first_offset`
/// bytes from the message base, covering packed-stream range
/// [packed_offset, packed_offset + rows*block).
struct SubPattern {
  std::int64_t first_offset = 0;
  std::size_t rows = 0;
  std::size_t block = 0;
  std::int64_t stride = 0;  // undefined when rows == 1
  std::size_t packed_offset = 0;

  std::size_t packed_bytes() const { return rows * block; }
};

/// Shape class of the message layout, most to least regular.
enum class LayoutClass {
  kContiguous,    // one dense run; no pack step needed
  kSingleVector,  // whole message is one uniform 2-D pattern
  kSubPatterned,  // a few uniform sub-patterns (batched 2-D copies)
  kIrregular,     // too fragmented; generalized gather kernel
};

/// Counters of the process-wide plan cache.
struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;          // plans built from scratch
  std::uint64_t signature_dedups = 0;  // distinct tree, same canonical form
  std::uint64_t evictions = 0;

  std::uint64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    const std::uint64_t n = lookups();
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

/// Immutable transfer plan for one canonical (type, count) message.
/// Cheap to share (held by shared_ptr in every MsgView that uses it).
class PackPlan {
 public:
  /// Cursor table for one pipeline chunk size: chunk i starts at
  /// cursors[i] and spans exactly segments[i] contiguous runs.
  struct ChunkCursors {
    std::size_t chunk = 0;
    std::size_t count = 0;
    std::vector<mpisim::PackCursor> cursors;
    std::vector<std::size_t> segments;
  };

  /// Build a plan directly (bypassing the cache); used by PlanCache and by
  /// benchmarks measuring the uncached planning cost.
  static std::shared_ptr<const PackPlan> build(const mpisim::Datatype& dtype,
                                               int count);

  /// Hash of the merged rows (+ size and extent): trees describing the
  /// same layout hash identically regardless of constructor nesting.
  std::uint64_t signature() const { return signature_; }
  int count() const { return count_; }
  std::size_t elem_size() const { return elem_size_; }
  std::size_t packed_bytes() const { return packed_bytes_; }
  std::int64_t extent() const { return extent_; }
  bool contiguous() const { return layout_ == LayoutClass::kContiguous; }
  LayoutClass layout() const { return layout_; }
  /// Total contiguous runs across the whole message (memcpy-call count of a
  /// full host pack).
  std::size_t total_segments() const { return total_segments_; }
  /// Uniform sub-patterns covering the full packed stream, in packed-stream
  /// order: exactly one for kSingleVector, empty for kContiguous and
  /// kIrregular.
  const std::vector<SubPattern>& subpatterns() const { return subpatterns_; }
  const mpisim::Datatype& dtype() const { return dtype_; }

  /// Exact number of contiguous runs touched by packed-stream range
  /// [offset, offset+bytes) — the memcpy count of a chunked host pack
  /// (seam-merged element boundaries count per element, matching the pack
  /// loop's actual copy calls). O(log blocks).
  std::size_t segments_in_range(std::size_t offset, std::size_t bytes) const;

  /// Cursor table for `chunk`-byte pipeline chunks. Memoized per chunk
  /// size, so retransmissions and repeated sends of the same (type, count,
  /// chunk) reuse the stored table verbatim.
  std::shared_ptr<const ChunkCursors> chunk_cursors(std::size_t chunk) const;

 private:
  PackPlan() = default;

  std::uint64_t signature_ = 0;
  int count_ = 0;
  std::size_t elem_size_ = 0;
  std::size_t packed_bytes_ = 0;
  std::int64_t extent_ = 0;
  LayoutClass layout_ = LayoutClass::kIrregular;
  std::size_t total_segments_ = 0;
  std::vector<SubPattern> subpatterns_;
  mpisim::Datatype dtype_;  // pins the committed tree the cursors index

  mutable std::mutex chunk_mu_;
  mutable std::map<std::size_t, std::shared_ptr<const ChunkCursors>>
      chunk_tables_;
};

/// Process-wide LRU plan cache. Two tiers:
///   1. a pointer-keyed fast path on (type handle, count) — O(1)-ish, the
///      common repeated-send case;
///   2. a canonical-signature tier that dedupes structurally identical
///      trees built through different constructor sequences.
/// Entries pin their Datatype handles, so a pointer key can never alias a
/// recycled node address.
class PlanCache {
 public:
  static PlanCache& instance();

  /// Fetch (or build and insert) the plan for a committed (type, count).
  std::shared_ptr<const PackPlan> get(const mpisim::Datatype& dtype,
                                      int count);

  PlanCacheStats stats() const;
  std::size_t size() const;
  std::size_t capacity() const;
  void set_capacity(std::size_t cap);
  /// Drop every entry and zero the counters (tests and benchmarks).
  void reset();

 private:
  explicit PlanCache(std::size_t capacity) : capacity_(capacity) {}

  using SigKey = std::pair<std::uint64_t, int>;   // (signature, count)
  using NodeKey = std::pair<const void*, int>;    // (tree identity, count)
  struct Entry {
    SigKey key;
    std::shared_ptr<const PackPlan> plan;
    std::vector<NodeKey> aliases;          // fast-path keys pointing here
    std::vector<mpisim::Datatype> pins;    // keep aliased nodes alive
  };

  void touch(std::list<Entry>::iterator it);
  void evict_excess();

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::map<SigKey, std::list<Entry>::iterator> by_sig_;
  std::map<NodeKey, std::list<Entry>::iterator> by_node_;
  PlanCacheStats stats_;
};

}  // namespace mv2gnc::core
