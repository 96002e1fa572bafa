#include "core/pack_plan.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>

namespace mv2gnc::core {

namespace {

using mpisim::Datatype;
using mpisim::PackCursor;
using mpisim::StridedBlock;

// Arithmetic modulo the Mersenne prime 2^61 - 1.
constexpr std::uint64_t kMod = (std::uint64_t{1} << 61) - 1;

// Results are fully reduced, into [0, kMod): equal values must hash alike.
std::uint64_t mod_mul(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  std::uint64_t r =
      static_cast<std::uint64_t>(p & kMod) + static_cast<std::uint64_t>(p >> 61);
  r = (r & kMod) + (r >> 61);
  return r >= kMod ? r - kMod : r;
}

std::uint64_t mod_add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t r = a + b;
  return r >= kMod ? r - kMod : r;
}

std::uint64_t to_mod(std::int64_t v) {
  const std::int64_t r = v % static_cast<std::int64_t>(kMod);
  return static_cast<std::uint64_t>(r < 0 ? r + static_cast<std::int64_t>(kMod)
                                          : r);
}

// g = sum q^i and h = sum i*q^i over i < n, and qn = q^n, by binary
// doubling: O(log n), no modular inverse.
struct GeoSums {
  std::uint64_t g = 0, h = 0, qn = 1;
};

GeoSums geo_sums(std::uint64_t q, std::uint64_t n) {
  GeoSums s;
  std::uint64_t m = 0;
  for (int bit = std::bit_width(n) - 1; bit >= 0; --bit) {
    if (m != 0) {  // m -> 2m
      s.h = mod_add(s.h, mod_mul(s.qn, mod_add(s.h, mod_mul(m % kMod, s.g))));
      s.g = mod_add(s.g, mod_mul(s.qn, s.g));
      s.qn = mod_mul(s.qn, s.qn);
      m *= 2;
    }
    if ((n >> bit) & 1) {  // m -> m + 1
      s.h = mod_add(s.h, mod_mul(m % kMod, s.qn));
      s.g = mod_add(s.g, s.qn);
      s.qn = mod_mul(s.qn, q);
      m += 1;
    }
  }
  return s;
}

// Polynomial hash of a row sequence: sum over rows i of
// (a*offset + b*length + c) * r^i mod 2^61-1. Each block's share has a
// closed form in its geometric sums, so the hash costs O(blocks log rows),
// and it depends on the rows alone, not on how blocks group them.
struct RowHash {
  std::uint64_t a, b, c, r;

  std::uint64_t operator()(const std::vector<StridedBlock>& blocks) const {
    std::uint64_t total = 0;
    std::uint64_t r_base = 1;  // r^(rows before this block)
    for (const StridedBlock& blk : blocks) {
      // Row (i0, i1, i2) at offset + sum i_d*s_d has index sum i_d*w_d
      // (w_0 = 1, w_d = w_{d-1}*c_{d-1}), so the block sums to
      //   K * prod G_d + a * sum_d s_d * H_d * prod_{e != d} G_e
      // with q_d = r^(w_d), G_d = sum q_d^i and H_d = sum i*q_d^i.
      const std::uint64_t k =
          mod_add(mod_add(mod_mul(a, to_mod(blk.offset)),
                          mod_mul(b, blk.length % kMod)),
                  c);
      GeoSums sums[3];
      std::uint64_t q = r;
      for (int d = 0; d < blk.ndims; ++d) {
        sums[d] = geo_sums(q, blk.dims[d].count);
        q = sums[d].qn;
      }
      std::uint64_t g_all = 1;
      for (int d = 0; d < blk.ndims; ++d) g_all = mod_mul(g_all, sums[d].g);
      std::uint64_t sum = mod_mul(k, g_all);
      for (int d = 0; d < blk.ndims; ++d) {
        std::uint64_t term = mod_mul(a, to_mod(blk.dims[d].stride));
        term = mod_mul(term, sums[d].h);
        for (int e = 0; e < blk.ndims; ++e) {
          if (e != d) term = mod_mul(term, sums[e].g);
        }
        sum = mod_add(sum, term);
      }
      total = mod_add(total, mod_mul(r_base, sum));
      r_base = mod_mul(r_base, q);  // q = r^(rows of the block)
    }
    return total;
  }
};

// Canonical signature: FNV-1a over size, extent, row count and two
// independent polynomial hashes of the merged rows. The rows are the
// layout itself, so constructor nesting that yields the same rows — a
// contiguous within a contiguous, a vector of vectors, a subarray and the
// hindexed that spells out its rows — hashes identically, whichever path
// (canonical or flattened) built the blocks.
std::uint64_t layout_signature(const Datatype& dtype) {
  constexpr std::uint64_t kBasis = 14695981039346656037ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  static constexpr RowHash kHashes[2] = {
      {0x1b873593a2c5f1e7ull % kMod, 0x0bc9d3c1f7e4a96dull % kMod,
       0x165667b19e3779f9ull % kMod, 0x0f1bbcdcbfa53e0bull % kMod},
      {0x1d8e4e27c47d124full % kMod, 0x09e3779b97f4a7c1ull % kMod,
       0x127f4a7c15f39cc0ull % kMod, 0x1c6ef372fe94f82bull % kMod},
  };
  std::uint64_t h = kBasis;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= kPrime;
    }
  };
  const auto& blocks = dtype.blocks();
  mix(static_cast<std::uint64_t>(dtype.size()));
  mix(static_cast<std::uint64_t>(dtype.extent()));
  mix(dtype.total_segments(1));
  for (const RowHash& hash : kHashes) mix(hash(blocks));
  return h;
}

// Expansion bound: beyond this many runs the decomposition is skipped and
// the layout is classified kIrregular outright (the generalized kernel
// handles it; an O(runs) plan build would dwarf any win).
constexpr std::size_t kMaxExpandedRuns = std::size_t{1} << 16;

// A decomposition only beats the per-row generalized kernel when each 2-D
// copy amortizes its launch over enough rows.
constexpr std::size_t kMinAvgRowsPerSubPattern = 4;

// `n` rows of `len` bytes at off + i*step.
struct RowRun {
  std::int64_t off = 0;
  std::size_t len = 0;
  std::size_t n = 0;
  std::int64_t step = 0;

  std::int64_t row(std::size_t i) const {
    return off + static_cast<std::int64_t>(i) * step;
  }
};

// Appends `r` after `runs`, merging a first row that abuts the previous
// last row into one longer row (as flattening merges element seams).
void append_run(std::vector<RowRun>& runs, RowRun r) {
  if (!runs.empty()) {
    RowRun& p = runs.back();
    const std::int64_t last = p.row(p.n - 1);
    if (last + static_cast<std::int64_t>(p.len) == r.off) {
      const RowRun merged{last, p.len + r.len, 1, 0};
      if (--p.n == 0) runs.pop_back();
      runs.push_back(merged);
      if (--r.n == 0) return;
      r.off += r.step;
    }
  }
  runs.push_back(r);
}

// The count-element message's merged rows as innermost runs: one per
// 0-D or 1-D block, one per outer index of a 2-D or 3-D block.
std::vector<RowRun> message_runs(const Datatype& dtype, int count) {
  std::vector<RowRun> runs;
  for (int e = 0; e < count; ++e) {
    const std::int64_t base = static_cast<std::int64_t>(e) * dtype.extent();
    for (const StridedBlock& b : dtype.blocks()) {
      if (b.ndims == 0) {
        append_run(runs, RowRun{base + b.offset, b.length, 1, 0});
        continue;
      }
      const std::size_t c1 = b.ndims > 1 ? b.dims[1].count : 1;
      const std::size_t c2 = b.ndims > 2 ? b.dims[2].count : 1;
      for (std::size_t i2 = 0; i2 < c2; ++i2) {
        for (std::size_t i1 = 0; i1 < c1; ++i1) {
          std::int64_t off = base + b.offset;
          if (b.ndims > 1) off += static_cast<std::int64_t>(i1) * b.dims[1].stride;
          if (b.ndims > 2) off += static_cast<std::int64_t>(i2) * b.dims[2].stride;
          append_run(runs, RowRun{off, b.length, b.dims[0].count,
                                  b.dims[0].stride});
        }
      }
    }
  }
  return runs;
}

// Greedy maximal grouping of the rows into uniform (block, stride, rows)
// sub-patterns, in packed-stream order: a sub-pattern starts at the next
// ungrouped row and takes every following row of its length at the step
// between its first two rows (when that step is a legal memcpy2d pitch).
// Whole runs are absorbed at once, so the walk is O(runs + sub-patterns).
// nullopt once more than `max_subs` sub-patterns are needed.
std::optional<std::vector<SubPattern>> decompose(
    const std::vector<RowRun>& runs, std::size_t max_subs) {
  std::vector<SubPattern> subs;
  std::size_t packed = 0;
  std::size_t k = 0;  // next ungrouped row: runs[k].row(r)
  std::size_t r = 0;
  const auto advance = [&runs](std::size_t& kk, std::size_t& rr,
                               std::size_t rows) {
    rr += rows;
    if (rr == runs[kk].n) {
      ++kk;
      rr = 0;
    }
  };
  while (k < runs.size()) {
    SubPattern sp;
    sp.first_offset = runs[k].row(r);
    sp.block = runs[k].len;
    sp.rows = 1;
    sp.stride = static_cast<std::int64_t>(sp.block);
    sp.packed_offset = packed;
    advance(k, r, 1);
    if (k < runs.size() && runs[k].len == sp.block) {
      const std::int64_t stride = runs[k].row(r) - sp.first_offset;
      // memcpy2d legality: positive stride no smaller than the row width.
      if (stride >= static_cast<std::int64_t>(sp.block)) {
        sp.stride = stride;
        std::int64_t prev = sp.first_offset;
        while (k < runs.size() && runs[k].len == sp.block &&
               runs[k].row(r) - prev == stride) {
          const RowRun& run = runs[k];
          const std::size_t take =
              (run.n - r > 1 && run.step == stride) ? run.n - r : 1;
          sp.rows += take;
          prev = run.row(r + take - 1);
          advance(k, r, take);
        }
      }
    }
    packed += sp.packed_bytes();
    subs.push_back(sp);
    if (subs.size() > max_subs) return std::nullopt;
  }
  return subs;
}

}  // namespace

std::shared_ptr<const PackPlan> PackPlan::build(const Datatype& dtype,
                                                int count) {
  if (!dtype.valid() || !dtype.committed()) {
    throw std::logic_error("PackPlan: datatype must be committed");
  }
  auto plan = std::shared_ptr<PackPlan>(new PackPlan());
  plan->dtype_ = dtype;
  plan->count_ = count;
  plan->elem_size_ = dtype.size();
  plan->extent_ = dtype.extent();
  plan->packed_bytes_ =
      plan->elem_size_ * static_cast<std::size_t>(std::max(count, 0));
  plan->signature_ = layout_signature(dtype);
  plan->total_segments_ = count > 0 ? dtype.total_segments(count) : 0;

  if (dtype.is_contiguous() || plan->packed_bytes_ == 0) {
    plan->layout_ = LayoutClass::kContiguous;
    return plan;
  }
  if (const auto p = dtype.vector_pattern(count);
      p && p->stride_bytes > 0 &&
      static_cast<std::size_t>(p->stride_bytes) >= p->block_bytes) {
    plan->layout_ = LayoutClass::kSingleVector;
    SubPattern sp;
    sp.first_offset = dtype.blocks().front().offset;
    sp.rows = p->count;
    sp.block = p->block_bytes;
    sp.stride = p->stride_bytes;
    sp.packed_offset = 0;
    plan->subpatterns_.push_back(sp);
    return plan;
  }
  if (plan->total_segments_ > kMaxExpandedRuns) {
    plan->layout_ = LayoutClass::kIrregular;
    return plan;
  }
  // Sub-patterned when the grouping compresses: at least
  // kMinAvgRowsPerSubPattern rows per sub-pattern, or at most two.
  auto subs = decompose(
      message_runs(dtype, count),
      std::max<std::size_t>(2, plan->total_segments_ / kMinAvgRowsPerSubPattern));
  if (subs) {
    plan->layout_ = LayoutClass::kSubPatterned;
    plan->subpatterns_ = std::move(*subs);
  } else {
    plan->layout_ = LayoutClass::kIrregular;
  }
  return plan;
}

std::size_t PackPlan::segments_in_range(std::size_t offset,
                                        std::size_t bytes) const {
  if (bytes == 0 || elem_size_ == 0) return 0;
  if (offset > packed_bytes_ || bytes > packed_bytes_ - offset) {
    throw std::out_of_range("PackPlan::segments_in_range: range outside");
  }
  const std::size_t nsegs = dtype_.total_segments(1);
  const auto run_index = [&](std::size_t off) {
    const PackCursor c = dtype_.cursor_at(count_, off);
    return c.elem * nsegs + c.seg;
  };
  return run_index(offset + bytes - 1) - run_index(offset) + 1;
}

std::shared_ptr<const PackPlan::ChunkCursors> PackPlan::chunk_cursors(
    std::size_t chunk) const {
  if (chunk == 0) throw std::invalid_argument("chunk_cursors: zero chunk");
  if (chunk > packed_bytes_) chunk = packed_bytes_;
  std::lock_guard<std::mutex> lock(chunk_mu_);
  auto it = chunk_tables_.find(chunk);
  if (it != chunk_tables_.end()) return it->second;
  auto table = std::make_shared<ChunkCursors>();
  table->chunk = chunk;
  if (packed_bytes_ > 0) {
    table->count = (packed_bytes_ + chunk - 1) / chunk;
    table->cursors.reserve(table->count);
    table->segments.reserve(table->count);
    for (std::size_t i = 0; i < table->count; ++i) {
      const std::size_t off = i * chunk;
      const std::size_t len = std::min(chunk, packed_bytes_ - off);
      table->cursors.push_back(dtype_.cursor_at(count_, off));
      table->segments.push_back(segments_in_range(off, len));
    }
  }
  chunk_tables_.emplace(chunk, table);
  return table;
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

PlanCache& PlanCache::instance() {
  static PlanCache cache(256);
  return cache;
}

void PlanCache::touch(std::list<Entry>::iterator it) {
  if (it != lru_.begin()) lru_.splice(lru_.begin(), lru_, it);
}

void PlanCache::evict_excess() {
  while (lru_.size() > capacity_) {
    Entry& victim = lru_.back();
    for (const NodeKey& k : victim.aliases) by_node_.erase(k);
    by_sig_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::shared_ptr<const PackPlan> PlanCache::get(const mpisim::Datatype& dtype,
                                               int count) {
  std::lock_guard<std::mutex> lock(mu_);
  const NodeKey nk{dtype.node_id(), count};
  if (auto it = by_node_.find(nk); it != by_node_.end()) {
    ++stats_.hits;
    touch(it->second);
    return it->second->plan;
  }
  // Fast path missed: build once (O(blocks) for regular layouts); the
  // build carries the canonical signature used for the dedupe tier.
  std::shared_ptr<const PackPlan> built = PackPlan::build(dtype, count);
  const SigKey key{built->signature(), count};
  if (auto it = by_sig_.find(key); it != by_sig_.end()) {
    ++stats_.hits;
    ++stats_.signature_dedups;
    it->second->aliases.push_back(nk);
    it->second->pins.push_back(dtype);
    by_node_.emplace(nk, it->second);
    touch(it->second);
    return it->second->plan;
  }
  ++stats_.misses;
  Entry e;
  e.key = key;
  e.plan = std::move(built);
  e.aliases.push_back(nk);
  e.pins.push_back(dtype);
  lru_.push_front(std::move(e));
  by_sig_.emplace(key, lru_.begin());
  by_node_.emplace(nk, lru_.begin());
  evict_excess();
  return lru_.front().plan;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::size_t PlanCache::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void PlanCache::set_capacity(std::size_t cap) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max<std::size_t>(cap, 1);
  evict_excess();
}

void PlanCache::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  by_sig_.clear();
  by_node_.clear();
  stats_ = PlanCacheStats{};
}

}  // namespace mv2gnc::core
