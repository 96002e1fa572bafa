#include "core/sched.hpp"

#include <algorithm>
#include <limits>

#include "core/protocol.hpp"

namespace mv2gnc::core {

namespace {

// kFair: pooled slots reserved for each active transfer. In
// bench_concurrency one matched two at every concurrency and beat it by
// 1.8 % at four transfers.
constexpr std::size_t kVbufReservePerTransfer = 1;

// Consecutive uncontended grants before the adaptive depth grows a step.
constexpr std::size_t kGrowStreak = 8;

// ECN hysteresis: consecutive unmarked chunk acks before the depth grows
// back one step, so a transient mark costs real smoke-clearing time.
constexpr std::size_t kEcnRestoreChunks = 16;

}  // namespace

TransferScheduler::TransferScheduler(sim::Engine& engine, VbufPool& pool,
                                     const Tunables& tun)
    : engine_(engine), pool_(pool), tun_(tun) {
  // Start at the receive window, not the optimistic ceiling: the first
  // transfer of a burst stages before its siblings register, and an
  // opening hoard of the whole pool is exactly what the QoS gate exists
  // to prevent. Calm-time grows earn the extra prefetch depth instead.
  //
  // ECN-only mode (kFifo + ecn_backlog_ns > 0) instead opens at the
  // ceiling: with no QoS gate running, an unmarked pipeline should behave
  // like legacy kFifo, and only fabric marks pull the depth down.
  depth_ = (fair() || !ecn_enabled()) ? depth_init() : depth_max();
}

// ===========================================================================
// Transfer registry
// ===========================================================================

void TransferScheduler::register_transfer(std::uint64_t id) {
  Xfer& x = xfers_[id];
  x.last_ask = ask_clock_;
  stats_.active_high_water = std::max(stats_.active_high_water, xfers_.size());
}

void TransferScheduler::unregister_transfer(std::uint64_t id) {
  xfers_.erase(id);
  waiting_.erase(std::remove(waiting_.begin(), waiting_.end(), id),
                 waiting_.end());
}

bool TransferScheduler::is_waiting(std::uint64_t id) const {
  const auto it = xfers_.find(id);
  return it != xfers_.end() && it->second.waiting;
}

void TransferScheduler::withdraw(std::uint64_t id) {
  const auto it = xfers_.find(id);
  if (it == xfers_.end() || !it->second.waiting) return;
  it->second.waiting = false;
  waiting_.erase(std::remove(waiting_.begin(), waiting_.end(), id),
                 waiting_.end());
}

// ===========================================================================
// vbuf QoS + fair acquisition
// ===========================================================================

std::size_t TransferScheduler::reserve_effective() const {
  std::size_t r = kVbufReservePerTransfer;
  if (!xfers_.empty()) {
    r = std::min(r, pool_.capacity() / xfers_.size());
  }
  return r;
}

std::size_t TransferScheduler::unmet_reserve_excluding(
    std::uint64_t id) const {
  const std::size_t r = reserve_effective();
  std::size_t unmet = 0;
  for (const auto& [xid, x] : xfers_) {
    if (xid != id && x.held < r) unmet += r - x.held;
  }
  return unmet;
}

void TransferScheduler::prune_waiting() {
  // A transfer that stopped asking moved past its acquisition (acks freed
  // its own slots, or it finished); its queue entry must not gate live
  // claimants. The window is generous — every active transfer re-asks on
  // each progress pass, so a live waiter's stamp stays recent.
  const std::uint64_t window = 4 * xfers_.size() + 16;
  for (auto it = waiting_.begin(); it != waiting_.end();) {
    auto xit = xfers_.find(*it);
    if (xit == xfers_.end() || !xit->second.waiting ||
        ask_clock_ - xit->second.last_ask > window) {
      if (xit != xfers_.end()) xit->second.waiting = false;
      it = waiting_.erase(it);
    } else {
      ++it;
    }
  }
}

void TransferScheduler::grant(std::uint64_t id, Xfer& x, bool from_reserve) {
  if (x.waiting) {
    stats_.queue_waits += 1;
    stats_.queue_wait_ns += engine_.now() - x.wait_since;
    x.waiting = false;
    waiting_.erase(std::remove(waiting_.begin(), waiting_.end(), id),
                   waiting_.end());
  }
  if (from_reserve) ++stats_.grants_reserve;
  else ++stats_.grants_overflow;
  // Adaptive depth, grow side: sustained grants with most of the pool free
  // and nobody queued mean the contention that shrank us has passed.
  if (waiting_.empty() && pool_.available() * 2 > pool_.capacity()) {
    if (++calm_streak_ >= kGrowStreak && depth_ < depth_max()) {
      ++depth_;
      ++stats_.depth_grows;
      calm_streak_ = 0;
    }
  } else {
    calm_streak_ = 0;
  }
}

void TransferScheduler::deny(std::uint64_t id, Xfer& x, bool pool_contended) {
  ++stats_.denials;
  calm_streak_ = 0;
  if (!x.waiting) {
    x.waiting = true;
    x.wait_since = engine_.now();
    waiting_.push_back(id);
  }
  // Adaptive depth, shrink side: the pool (or the reserves carved from it)
  // cannot cover current demand — halve every transfer's pipeline depth so
  // in-flight chunks, and the slots pinned under them, thin out. Floor at
  // the pool's fair share (capacity / active transfers), but never below 2
  // (double buffering): below the share the shrink cannot relieve
  // contention, it only idles pool slots, and depth 1 serializes staging
  // with transmission — hoarding is the QoS gate's problem, not depth's.
  // Rate limited to one shrink per sweep of the active set, else a single
  // drained-pool episode would collapse depth to the floor in one pass.
  const std::size_t floor = std::max<std::size_t>(
      2, pool_.capacity() / std::max<std::size_t>(1, xfers_.size()));
  if (pool_contended && depth_ > floor &&
      ask_clock_ - last_shrink_ask_ > xfers_.size()) {
    depth_ = std::max(floor, depth_ / 2);
    ++stats_.depth_shrinks;
    last_shrink_ask_ = ask_clock_;
  }
}

bool TransferScheduler::may_acquire(std::uint64_t id) {
  if (!fair()) return true;
  const auto it = xfers_.find(id);
  if (it == xfers_.end()) return true;  // unregistered caller: legacy rules
  Xfer& x = it->second;
  x.last_ask = ++ask_clock_;
  const std::size_t avail = pool_.available();
  if (avail == 0) {
    deny(id, x, /*pool_contended=*/true);
    return false;
  }
  // Reserve region: below its guaranteed minimum a transfer always gets
  // the slot (reserves cannot collide — their sum is bounded by capacity).
  const std::size_t r = reserve_effective();
  if (x.held < r) {
    grant(id, x, /*from_reserve=*/true);
    return true;
  }
  // Overflow region: never dip into slots other transfers' unmet reserves
  // are entitled to, and hand out scarce spare slots in round-robin turn
  // order.
  const std::size_t unmet = unmet_reserve_excluding(id);
  if (avail <= unmet) {
    deny(id, x, /*pool_contended=*/true);
    return false;
  }
  const std::size_t spare = avail - unmet;
  prune_waiting();
  if (!waiting_.empty() && spare <= waiting_.size() && waiting_.front() != id) {
    deny(id, x, /*pool_contended=*/false);
    return false;
  }
  grant(id, x, /*from_reserve=*/false);
  return true;
}

void TransferScheduler::note_acquired(std::uint64_t id) {
  const auto it = xfers_.find(id);
  if (it != xfers_.end()) ++it->second.held;
}

void TransferScheduler::note_released(std::uint64_t id) {
  const auto it = xfers_.find(id);
  if (it != xfers_.end() && it->second.held > 0) --it->second.held;
}

// ===========================================================================
// Adaptive pipeline depth
// ===========================================================================

std::size_t TransferScheduler::depth_max() const {
  // Staging ahead of the receiver's window is useful prefetch (D2H of
  // later chunks overlaps RDMA of earlier ones), so the optimistic ceiling
  // is the larger of the window and the pool — an uncontended transfer may
  // fill the pool exactly as it would under kFifo; the shrink side takes
  // over when concurrency makes that hoarding.
  return std::max<std::size_t>(
      1, std::max(tun_.recv_window, pool_.capacity()));
}

std::size_t TransferScheduler::depth_init() const {
  return std::max<std::size_t>(1, tun_.recv_window);
}

std::size_t TransferScheduler::inflight_cap() const {
  if (!fair()) {
    // ECN feedback drives the depth even under kFifo: fabric congestion
    // must be able to throttle the pipeline no matter the vbuf policy.
    // Without it kFifo is unbounded (legacy); no adaptation.
    return ecn_enabled() ? depth_ : std::numeric_limits<std::size_t>::max();
  }
  // A solo transfer runs at the optimistic ceiling (fifo parity). With
  // company, the static part of the cap drops to the receive window (or
  // the pool's fair share when that is larger): newly arrived transfers
  // must not wait for the reactive shrink before early starters stop
  // pre-staging the whole pool.
  std::size_t ceiling = depth_max();
  if (xfers_.size() > 1) {
    ceiling = std::min(
        ceiling,
        std::max(tun_.recv_window, pool_.capacity() / xfers_.size()));
  }
  return std::min(depth_, ceiling);
}

// ===========================================================================
// ECN congestion feedback
// ===========================================================================

void TransferScheduler::note_chunk_ack(std::uint64_t id, bool congested) {
  if (!ecn_enabled()) return;
  ++ecn_ack_clock_;
  if (congested) {
    ++stats_.ecn_marks;
    const auto it = xfers_.find(id);
    if (it != xfers_.end()) ++it->second.ecn_marks;
    ecn_clean_streak_ = 0;
    // Multiplicative decrease, floor 1: unlike pool contention (where a
    // depth below double buffering only idles slots), a congested link is
    // an external resource — backing all the way off is the right answer
    // under persistent incast. Rate-limited to one halving per depth's
    // worth of acks: every chunk of one congested window carries a mark,
    // and they all describe the same episode.
    if (depth_ > 1 && (last_ecn_shrink_ack_ == 0 ||
                       ecn_ack_clock_ - last_ecn_shrink_ack_ > depth_)) {
      depth_ = std::max<std::size_t>(1, depth_ / 2);
      ++stats_.depth_shrinks_ecn;
      ++stats_.depth_shrinks;
      last_ecn_shrink_ack_ = ecn_ack_clock_;
    }
  } else {
    // Hysteresis growth: a full kEcnRestoreChunks run of clean acks earns
    // one step back (additive increase), so a transient mark costs real
    // smoke-clearing time before the pipeline re-opens.
    if (++ecn_clean_streak_ >= kEcnRestoreChunks) {
      ecn_clean_streak_ = 0;
      if (depth_ < depth_max()) {
        ++depth_;
        ++stats_.depth_grows_ecn;
        ++stats_.depth_grows;
      }
    }
  }
}

std::uint64_t TransferScheduler::transfer_ecn_marks(std::uint64_t id) const {
  const auto it = xfers_.find(id);
  return it == xfers_.end() ? 0 : it->second.ecn_marks;
}

// ===========================================================================
// Observability
// ===========================================================================

void TransferScheduler::note_ctrl(int kind) {
  if (kind >= 0 && static_cast<std::size_t>(kind) < SchedStats::kMaxKind) {
    ++stats_.ctrl_by_kind[static_cast<std::size_t>(kind)];
  }
  if (kind == kChunkAck) ++stats_.acks_individual;
}

}  // namespace mv2gnc::core
