// Internal helpers and the tag table shared by the host collectives
// (coll.cpp) and the device-buffer pipelines (coll_device.cpp). Not part
// of the public API.
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "mpi/datatype.hpp"

namespace mv2gnc::mpisim::detail {

// ---------------------------------------------------------------------------
// Tags
// ---------------------------------------------------------------------------
//
// Internal (negative) tags used by collectives; wildcard receives never
// match them. A family owns the tags (base - width, base] and offsets its
// base by a per-round, per-step, per-block or per-slice index. The first
// block keeps its historical values so the flat barrier/bcast/gather/
// scatter paths stay byte-identical to the pre-engine implementations;
// every family that offsets by an unbounded index owns a whole 2^16-wide
// span, so offsets can never run into the next base.
inline constexpr int kTagSmallWidth = 100;
inline constexpr int kTagSpan = 1 << 16;

// Host collectives, historical block.
inline constexpr int kTagBarrier = -100;   // flat dissemination: - round
inline constexpr int kTagBcast = -200;     // flat binomial bcast
inline constexpr int kTagReduce = -300;    // hier intra-node reduce leg
inline constexpr int kTagGather = -400;
inline constexpr int kTagScatter = -500;
inline constexpr int kTagAlltoall = -600;  // self-delivery of the diagonal

// Host collectives, one span each.
inline constexpr int kTagAlltoallStep = -1 * kTagSpan;   // - pairwise step
inline constexpr int kTagAllreduceRd = -2 * kTagSpan;    // - butterfly round
inline constexpr int kTagAllreducePair = -3 * kTagSpan;  // -0 in, -1 out
inline constexpr int kTagAgBlock = -4 * kTagSpan;      // - block owner rank
inline constexpr int kTagBarrierFan = -5 * kTagSpan;   // -0 fan-in, -1 out
inline constexpr int kTagBarrierLeader = -6 * kTagSpan;  // - round
inline constexpr int kTagReduceBcast = -7 * kTagSpan;    // hier result bcast
inline constexpr int kTagBcastLeader = -8 * kTagSpan;  // hier leader binomial
inline constexpr int kTagBcastIntra = -9 * kTagSpan;   // hier intra binomial
inline constexpr int kTagAllreduceRs = -10 * kTagSpan;  // intra RS: - step
inline constexpr int kTagAllreduceAg = -11 * kTagSpan;  // intra AG: - step

// Device-buffer pipelines, one span each. Per-slice offsets are
// slice * stride + round (see coll_device.cpp).
inline constexpr int kTagDevArRd = -12 * kTagSpan;  // - (slice*stride+round)
inline constexpr int kTagDevArPair = -13 * kTagSpan;  // - (slice*2 + phase)
inline constexpr int kTagDevBcast = -14 * kTagSpan;   // flat binomial: - slice
inline constexpr int kTagDevBcastLeader = -15 * kTagSpan;  // leader: - slice
inline constexpr int kTagDevBcastIntra = -16 * kTagSpan;   // intra: - slice
inline constexpr int kTagDevArRs = -17 * kTagSpan;  // reduce-scatter: - step
inline constexpr int kTagDevArAg = -18 * kTagSpan;  // slice allgather: - step
inline constexpr int kTagDevAgBlock = -19 * kTagSpan;  // ring: - block owner

struct TagFamily {
  int base;
  int width;
};

inline constexpr TagFamily kTagFamilies[] = {
    {kTagBarrier, kTagSmallWidth},      {kTagBcast, kTagSmallWidth},
    {kTagReduce, kTagSmallWidth},       {kTagGather, kTagSmallWidth},
    {kTagScatter, kTagSmallWidth},      {kTagAlltoall, kTagSmallWidth},
    {kTagAlltoallStep, kTagSpan},       {kTagAllreduceRd, kTagSpan},
    {kTagAllreducePair, kTagSpan},      {kTagAgBlock, kTagSpan},
    {kTagBarrierFan, kTagSpan},         {kTagBarrierLeader, kTagSpan},
    {kTagReduceBcast, kTagSpan},        {kTagBcastLeader, kTagSpan},
    {kTagBcastIntra, kTagSpan},         {kTagAllreduceRs, kTagSpan},
    {kTagAllreduceAg, kTagSpan},        {kTagDevArRd, kTagSpan},
    {kTagDevArPair, kTagSpan},          {kTagDevBcast, kTagSpan},
    {kTagDevBcastLeader, kTagSpan},     {kTagDevBcastIntra, kTagSpan},
    {kTagDevArRs, kTagSpan},            {kTagDevArAg, kTagSpan},
    {kTagDevAgBlock, kTagSpan},
};

constexpr bool tag_families_disjoint() {
  for (const TagFamily& a : kTagFamilies) {
    for (const TagFamily& b : kTagFamilies) {
      if (&a == &b) continue;
      // (a.base - a.width, a.base] and (b.base - b.width, b.base] meet.
      if (a.base - a.width < b.base && b.base - b.width < a.base) {
        return false;
      }
    }
  }
  return true;
}
static_assert(tag_families_disjoint(), "collective tag families overlap");

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

inline Datatype committed_byte() {
  Datatype t = Datatype::byte();
  t.commit();
  return t;
}

inline Datatype committed_double() {
  Datatype t = Datatype::float64();
  t.commit();
  return t;
}

inline int index_of(const std::vector<int>& v, int value) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] == value) return static_cast<int>(i);
  }
  return -1;
}

inline std::vector<int> identity_ranks(int p) {
  std::vector<int> r(static_cast<std::size_t>(p));
  std::iota(r.begin(), r.end(), 0);
  return r;
}

// Common member count when every node hosts the same number of the
// group's ranks, else 0. The striped two-level schemes pair member j of
// each node with its counterparts, so they need a rectangular topology;
// ragged groups (e.g. after an uneven split) take the leader-based path.
inline int uniform_node_size(const std::vector<std::vector<int>>& members) {
  const std::size_t n = members.front().size();
  for (const std::vector<int>& m : members) {
    if (m.size() != n) return 0;
  }
  return static_cast<int>(n);
}

inline void reduce_into(double* acc, const double* in, int count,
                        bool take_max) {
  for (int i = 0; i < count; ++i) {
    acc[i] = take_max ? std::max(acc[i], in[i]) : acc[i] + in[i];
  }
}

}  // namespace mv2gnc::mpisim::detail
