// Per-rank transfer progress scheduler (docs/CONCURRENCY.md).
//
// The rendezvous pipeline was engineered for one transfer at a time: vbuf
// acquisition was first-grabber-wins, and nothing bounded how far one
// transfer's stage frontier could run ahead of the pool. Under N
// concurrent transfers that design head-of-line blocks: early transfers
// hoover the pool, late ones limp along on one-off pinned slots and trip
// the stall watchdog.
//
// This scheduler arbitrates the rank's shared resources across all active
// RndvSend/RndvRecv state machines. It is bookkeeping only: it sends no
// wire message and arms no timer.
//
//   * vbuf QoS (SchedPolicy::kFair) — every active transfer is guaranteed
//     a reserved pooled staging slot (shrinking to none when transfers
//     outnumber the pool); the rest of the pool is a shared overflow
//     region handed out in round-robin turns.
//   * adaptive pipeline depth — a per-transfer cap on staged-but-unacked
//     chunks that shrinks while the pool is contended and grows back while
//     it is idle (kFair), or halves on ECN-marked acks (any policy, when
//     ecn_backlog_ns > 0).
//   * the control-message census read by print_stats.
//
// SchedPolicy::kFifo disables the QoS gate; with ECN feedback off it also
// leaves the depth unbounded, reproducing the legacy behavior bit-for-bit
// (the ablation baseline of bench_concurrency). With ECN armed, kFifo
// runs the adaptive depth, opening at the pool ceiling.
//
// All decisions run on the owning rank's progress loop (single-threaded,
// virtual time), so the bookkeeping needs no locks and stays
// deterministic for a fixed engine seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>

#include "core/tunables.hpp"
#include "core/vbuf_pool.hpp"
#include "sim/engine.hpp"

namespace mv2gnc::core {

/// Per-rank scheduler counters (aggregated across all transfers).
struct SchedStats {
  // -- vbuf QoS / fairness ----------------------------------------------
  std::uint64_t grants_reserve = 0;   // acquisitions from a reserve
  std::uint64_t grants_overflow = 0;  // acquisitions from shared overflow
  std::uint64_t denials = 0;          // gated acquisition attempts
  std::uint64_t queue_waits = 0;      // gated episodes that later resolved
  sim::SimTime queue_wait_ns = 0;     // total gated time (for the average)
  std::size_t active_high_water = 0;  // peak simultaneously active transfers

  // -- adaptive depth ----------------------------------------------------
  std::uint64_t depth_shrinks = 0;
  std::uint64_t depth_grows = 0;

  // -- ECN congestion feedback (docs/CONCURRENCY.md) --------------------
  std::uint64_t ecn_marks = 0;         // congestion-marked chunk acks seen
  std::uint64_t depth_shrinks_ecn = 0; // depth halvings triggered by marks
  std::uint64_t depth_grows_ecn = 0;   // hysteresis grow-backs after marks

  // -- chunk acks --------------------------------------------------------
  std::uint64_t acks_individual = 0;  // CHUNK_ACK messages on the wire
  // Always 0: acks are never batched. Kept because perfbench reads it.
  std::uint64_t acks_coalesced = 0;

  // -- control-message census (outgoing, indexed by MsgKind) -------------
  static constexpr std::size_t kMaxKind = 16;
  std::uint64_t ctrl_by_kind[kMaxKind] = {};

  std::uint64_t ctrl_total() const {
    std::uint64_t n = 0;
    for (std::uint64_t c : ctrl_by_kind) n += c;
    return n;
  }
  sim::SimTime avg_queue_wait_ns() const {
    return queue_waits == 0
               ? 0
               : queue_wait_ns / static_cast<sim::SimTime>(queue_waits);
  }
};

class TransferScheduler {
 public:
  TransferScheduler(sim::Engine& engine, VbufPool& pool, const Tunables& tun);

  // -- transfer registry --------------------------------------------------
  /// A transfer (sender or receiver side) that stages through the vbuf
  /// pool became active.
  void register_transfer(std::uint64_t id);
  /// Idempotent; forgets QoS accounting (held slots return via the pool).
  void unregister_transfer(std::uint64_t id);

  // -- vbuf QoS + fair acquisition ---------------------------------------
  /// May transfer `id` take one more pooled staging buffer now? Always
  /// true under kFifo (the pool itself is the only limit — legacy). kFair
  /// guarantees each active transfer its reserve, protects other
  /// transfers' unmet reserves from overflow claims, and hands scarce
  /// overflow out in round-robin turn order.
  bool may_acquire(std::uint64_t id);
  /// Bookkeeping for a pool buffer actually taken / returned by `id`.
  void note_acquired(std::uint64_t id);
  void note_released(std::uint64_t id);
  /// True while `id`'s last acquisition attempt was gated (used by the
  /// sender's stall watchdog to grant a pinned fallback slot).
  bool is_waiting(std::uint64_t id) const;
  /// `id` no longer wants a slot right now (its pipeline hit the depth
  /// cap, staging finished, or its window was advertised): give up any
  /// queued overflow turn so freed slots go to transfers that can use
  /// them immediately instead of idling reserved for a stale claim.
  void withdraw(std::uint64_t id);

  // -- adaptive pipeline depth -------------------------------------------
  /// Current cap on staged-but-unacknowledged chunks per sending
  /// transfer. Unbounded under kFifo — unless ECN feedback is enabled
  /// (ecn_backlog_ns > 0), which activates the adaptive depth even under
  /// kFifo so fabric congestion can throttle the pipeline.
  std::size_t inflight_cap() const;

  // -- ECN congestion feedback -------------------------------------------
  /// ECN feedback active? (tunable ecn_backlog_ns > 0)
  bool ecn_enabled() const { return tun_.ecn_backlog_ns > 0; }
  /// The sender saw a chunk ack for transfer `id` whose ECN echo says the
  /// chunk queued past the fabric's backlog threshold. A marked ack halves
  /// the shared pipeline depth (floor 1, rate-limited to one halving per
  /// depth's worth of acks so one congested burst is one response, not a
  /// collapse); 16 consecutive clean acks grow it back one step —
  /// TCP-style multiplicative decrease, hysteresis increase.
  void note_chunk_ack(std::uint64_t id, bool congested);
  /// Congestion marks echoed so far for one live transfer (0 when the
  /// transfer is unknown or already unregistered).
  std::uint64_t transfer_ecn_marks(std::uint64_t id) const;

  // -- observability ------------------------------------------------------
  /// Count an outgoing rendezvous control message (the census in
  /// print_stats).
  void note_ctrl(int kind);
  const SchedStats& stats() const { return stats_; }

 private:
  struct Xfer {
    std::size_t held = 0;  // pooled slots currently held
    std::uint64_t last_ask = 0;  // ask-clock stamp of the latest attempt
    std::uint64_t ecn_marks = 0;  // congestion-marked acks for this transfer
    bool waiting = false;
    sim::SimTime wait_since = 0;
  };

  bool fair() const { return tun_.sched_policy != SchedPolicy::kFifo; }
  /// Reserved slots per active transfer, shrunk when transfers outnumber
  /// the pool (can reach 0; the pinned-slot deadlock breaker in RndvSend
  /// still guarantees progress then).
  std::size_t reserve_effective() const;
  std::size_t unmet_reserve_excluding(std::uint64_t id) const;
  /// Optimistic grow ceiling: max(recv_window, pool capacity). Staging
  /// past the receiver's window is prefetch an uncontended transfer is
  /// welcome to.
  std::size_t depth_max() const;
  /// Opening depth: the receive window — conservative so a burst's first
  /// transfer cannot hoard the pool before its siblings register.
  std::size_t depth_init() const;
  void grant(std::uint64_t id, Xfer& x, bool from_reserve);
  void deny(std::uint64_t id, Xfer& x, bool pool_contended);
  /// Drop waiting entries whose transfer unregistered or stopped asking
  /// (its frontier moved on); a stale head must not gate live claimants.
  void prune_waiting();

  sim::Engine& engine_;
  VbufPool& pool_;
  const Tunables& tun_;

  std::unordered_map<std::uint64_t, Xfer> xfers_;
  std::deque<std::uint64_t> waiting_;  // overflow turn order
  std::uint64_t ask_clock_ = 0;
  std::uint64_t last_shrink_ask_ = 0;
  std::size_t depth_ = 1;
  std::size_t calm_streak_ = 0;  // uncontended grants since last change

  std::uint64_t ecn_ack_clock_ = 0;       // chunk acks seen (ECN bookkeeping)
  std::uint64_t last_ecn_shrink_ack_ = 0; // ack-clock stamp of last halving
  std::size_t ecn_clean_streak_ = 0;      // unmarked acks since last mark

  SchedStats stats_;
};

}  // namespace mv2gnc::core
