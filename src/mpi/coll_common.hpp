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
inline constexpr int kTagBcast = -200;     // binomial bcast, both legs
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
inline constexpr int kTagAllreduceRs = -10 * kTagSpan;  // intra RS: - step
inline constexpr int kTagAllreduceAg = -11 * kTagSpan;  // intra AG: - step
// (the host striped allreduce offsets both by its ring step, the two-level
// device pipeline by its slice)

// Device-buffer pipelines, one span each. Per-slice offsets are
// slice * stride + round (see coll_device.cpp).
inline constexpr int kTagDevArRd = -12 * kTagSpan;  // - (slice*stride+round)
inline constexpr int kTagDevArPair = -13 * kTagSpan;  // - (slice*2 + phase)
inline constexpr int kTagDevBcast = -14 * kTagSpan;   // slot tree: - slice
inline constexpr int kTagDevAgBlock = -19 * kTagSpan;  // ring: - block owner

struct TagFamily {
  int base;
  int width;
};

inline constexpr TagFamily kTagFamilies[] = {
    {kTagBarrier, kTagSmallWidth},      {kTagBcast, kTagSmallWidth},
    {kTagGather, kTagSmallWidth},       {kTagScatter, kTagSmallWidth},
    {kTagAlltoall, kTagSmallWidth},     {kTagAlltoallStep, kTagSpan},
    {kTagAllreduceRd, kTagSpan},        {kTagAllreducePair, kTagSpan},
    {kTagAgBlock, kTagSpan},            {kTagBarrierFan, kTagSpan},
    {kTagBarrierLeader, kTagSpan},      {kTagAllreduceRs, kTagSpan},
    {kTagAllreduceAg, kTagSpan},        {kTagDevArRd, kTagSpan},
    {kTagDevArPair, kTagSpan},          {kTagDevBcast, kTagSpan},
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
// ragged groups (e.g. after an uneven split) stay flat.
inline int uniform_node_size(const std::vector<std::vector<int>>& members) {
  const std::size_t n = members.front().size();
  for (const std::vector<int>& m : members) {
    if (m.size() != n) return 0;
  }
  return static_cast<int>(n);
}

// MPICH's recursive-doubling schedule over p group indices, written down
// once for the host butterfly (rd_allreduce), its price (butterfly_ns) and
// the device slice legs. When p is not a power of two, the first 2 * rem
// indices pair up: the even member of each pair hands its vector to the
// odd one (kPairIn), sits the butterfly out and gets the result back
// (kPairOut). The other pof2 indices are the butterfly's members; round k
// pairs member nr with member nr ^ 2^k.
struct RdSchedule {
  enum Kind { kPairIn, kRound, kPairOut };
  struct Step {
    Kind kind;
    int round;  // butterfly round (kRound), else 0
    int a, b;   // group indices: a sends to b (pairs), a and b swap (rounds)
  };

  int pof2 = 1;
  int rem = 0;

  explicit RdSchedule(int p) {
    while (pof2 * 2 <= p) pof2 *= 2;
    rem = p - pof2;
  }
  /// Group index of butterfly member nr.
  int index(int nr) const { return nr < rem ? nr * 2 + 1 : nr + rem; }
  /// Butterfly member of group index i; -1 for the even index of a pair.
  int member(int i) const {
    if (i >= 2 * rem) return i - rem;
    return i % 2 == 1 ? i / 2 : -1;
  }
  /// Calls fn(Step) for every message of the schedule, in schedule order.
  template <typename Fn>
  void for_each_step(Fn&& fn) const {
    for (int i = 0; i < rem; ++i) fn(Step{kPairIn, 0, 2 * i, 2 * i + 1});
    int round = 0;
    for (int mask = 1; mask < pof2; mask <<= 1, ++round) {
      for (int nr = 0; nr < pof2; ++nr) {
        if ((nr ^ mask) > nr) {
          fn(Step{kRound, round, index(nr), index(nr ^ mask)});
        }
      }
    }
    for (int i = 0; i < rem; ++i) fn(Step{kPairOut, 0, 2 * i + 1, 2 * i});
  }
};

inline void reduce_into(double* acc, const double* in, int count,
                        bool take_max) {
  for (int i = 0; i < count; ++i) {
    acc[i] = take_max ? std::max(acc[i], in[i]) : acc[i] + in[i];
  }
}

}  // namespace mv2gnc::mpisim::detail
