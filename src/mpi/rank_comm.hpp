// Internal per-rank MPI engine: matching, eager protocol, rendezvous
// dispatch, and the progress loop. One RankComm per simulated process.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/rndv.hpp"
#include "core/sched.hpp"
#include "cuda/runtime.hpp"
#include "gpu/memory_registry.hpp"
#include "mpi/mpi.hpp"
#include "core/transport.hpp"
#include "sim/engine.hpp"
#include "sim/timer.hpp"
#include "sim/trace.hpp"

namespace mv2gnc::mpisim::detail {

class CollEngine;

/// Internal control-flow signal: this rank's injected crash time arrived.
/// Thrown out of the progress loop and caught by Cluster::run, which lets
/// the rank go silent (no drain, no abort wave — a crashed process sends
/// nothing). Never escapes to the application.
struct RankCrashed {};

/// Internal: coll_wait observed a COLL_ABORT wave covering the collective
/// it was waiting in. Caught by CollEngine::run_guarded.
struct CollAbortObserved {
  std::uint64_t seq = 0;  // earliest aborted collective on the context
  int origin = -1;        // world rank that started the wave
};

/// Internal: coll_wait's liveness watchdog expired — the collective made
/// no progress for the whole p2p worst-case retry budget times
/// coll_watchdog_factor. Caught by CollEngine::run_guarded.
struct CollWatchdogExpired {};

/// Membership of one communicator: comm rank i is world rank world[i].
struct CommGroup {
  int context = 0;              // matching context id
  std::vector<int> world;       // comm rank -> world rank
  int my_rank = -1;             // this process's rank within the comm

  int size() const { return static_cast<int>(world.size()); }
  /// World rank -> comm rank, or kAnySource if not a member.
  int to_comm_rank(int world_rank) const {
    for (int i = 0; i < size(); ++i) {
      if (world[i] == world_rank) return i;
    }
    return kAnySource;
  }
};

struct ReqState {
  std::uint64_t id = 0;
  bool complete = false;
  bool is_recv = false;
  // The transfer failed permanently (reliability layer exhausted its retry
  // budget); wait()/test() raise RequestError with `error`.
  bool failed = false;
  std::string error;
  Status status;

  // Receive-side matching criteria (world source, tag, context) and
  // destination view.
  core::MsgView view;
  int src_filter = kAnySource;
  int tag_filter = kAnyTag;
  int context = 0;

  std::shared_ptr<core::RndvSend> rndv_send;
  std::shared_ptr<core::RndvRecv> rndv_recv;
};

/// A message that arrived before its receive was posted.
struct UnexpectedMsg {
  bool is_rts = false;
  int src = -1;
  int tag = 0;
  int context = 0;
  std::size_t bytes = 0;
  std::vector<std::byte> payload;   // eager payload
  std::uint64_t sender_req = 0;     // rendezvous
  std::size_t sender_chunk = 0;     // rendezvous
};

class RankComm {
 public:
  RankComm(int rank, int size, sim::Engine& engine, cusim::CudaContext& cuda,
           core::TransportRouter& net, gpu::MemoryRegistry& registry,
           const core::Tunables& tun, sim::TraceRecorder* trace = nullptr);
  ~RankComm();
  RankComm(const RankComm&) = delete;
  RankComm& operator=(const RankComm&) = delete;

  int rank() const { return rank_; }
  int size() const { return size_; }
  ApiStats& api_stats() { return api_stats_; }
  sim::Engine& engine() { return engine_; }
  const core::Tunables& tunables() const { return *res_.tun; }
  gpu::MemoryRegistry& memory_registry() { return registry_; }
  /// This rank's simulated CUDA context (the device-buffer collectives
  /// stage copies and reduction kernels through it).
  cusim::CudaContext& cuda() { return *res_.cuda; }
  /// Transport seam (device-direct capability probe for peer legs).
  core::TransportRouter& net() { return *res_.net; }
  core::VbufPool& vbufs() { return vbuf_pool_; }
  const core::VbufPool& vbufs() const { return vbuf_pool_; }
  /// Aggregated reliability counters (retransmissions, timeouts, stalls).
  const core::RetryStats& retry_stats() const { return retry_stats_; }
  /// Concurrency-scheduler counters (QoS grants/denials, queue waits,
  /// adaptive depth moves, control-message census).
  const core::SchedStats& sched_stats() const { return sched_.stats(); }
  /// Pool staging slots parked by failed/finished transfers; freed at
  /// destruction (they count as in_use in the pool until then), so they
  /// account exactly for any non-zero vbufs().in_use() after a quiesce.
  /// One-off pinned slots parked alongside them are not counted.
  std::size_t graveyard_slots() const {
    std::size_t n = 0;
    for (const auto& s : slot_graveyard_) {
      if (s.from_pool) ++n;
    }
    return n;
  }
  /// Wake the progress loop (deposit a notifier token). Stream host
  /// triggers use this so a rank blocked in a wait notices a data gate
  /// opening immediately instead of sleeping until its retry timer.
  void wake_progress() { notifier_.notify(); }
  /// Park a staging slot an aborted operation could not release safely (a
  /// still-queued stream copy or in-flight write may reference it); freed
  /// at destruction and counted by graveyard_slots() when pool-backed.
  void park_slot(core::detail::StagingSlot slot) {
    slot_graveyard_.push_back(std::move(slot));
  }
  /// Rendezvous receivers still held live (matched or draining). Returns to
  /// zero once every transfer is garbage-collected — the check long-running
  /// processes rely on (see docs/RELIABILITY.md).
  std::size_t tracked_rendezvous() const {
    return rts_index_.size() + draining_recvs_.size();
  }

  /// World group of this rank (context 0, identity mapping).
  const std::shared_ptr<const CommGroup>& world_group() const {
    return world_group_;
  }
  /// Allocate `count` fresh context ids starting at `base` (the caller
  /// coordinated `base` across the parent communicator).
  void reserve_contexts(int base, int count) {
    next_context_ = std::max(next_context_, base + count);
  }
  int next_context_hint() const { return next_context_; }

  // dst/src are WORLD ranks; `context` selects the communicator.
  /// A valid `data_gate` holds the send's payload until the event fires:
  /// an eager send waits it out before copying; a rendezvous send posts its
  /// RTS at once and gates its wire, and throws std::logic_error if the
  /// buffer needs a pack or staging stage (RndvSend::set_data_gate).
  Request isend(const void* buf, int count, const Datatype& dtype, int dst,
                int tag, int context = 0, cusim::Event data_gate = {});
  Request irecv(void* buf, int count, const Datatype& dtype, int src,
                int tag, int context = 0);
  void wait(Request& req, Status* status);
  bool test(Request& req, Status* status);

  /// Abandon an in-flight request whose result is no longer wanted (the
  /// collective that owns it aborted). An unmatched posted receive is
  /// simply withdrawn; an active rendezvous is canceled at the protocol
  /// level (see RndvSend::cancel — the retraction is what keeps an
  /// abandoned send from staying "alive" forever on its peer's RTS acks,
  /// which would strand drain_pending). No-op on complete requests.
  void cancel_request(Request& req);

  /// MPI_Finalize analogue: service the progress loop until every protocol
  /// obligation quiesces — live senders and receivers, and draining
  /// receivers still holding staging slots against a possible
  /// retransmitted write. Without this, a control message lost after the
  /// application's last wait (e.g. the SEND_DONE that lets a pooled
  /// receiver release its retained slots) strands its transfer forever:
  /// the rank's process is gone, so the recovery timers fire into a
  /// notifier nobody waits on. Every live obligation keeps a watchdog
  /// armed, so this loop always has a future wake-up and terminates
  /// (force_drain/fail bound the lost-peer case).
  void drain_pending();

  bool iprobe(int src, int tag, Status* status, int context = 0);
  void probe(int src, int tag, Status* status, int context = 0);

  void pack(const void* inbuf, int count, const Datatype& dtype,
            void* outbuf, std::size_t outsize, std::size_t& position);
  void unpack(const void* inbuf, std::size_t insize, std::size_t& position,
              void* outbuf, int count, const Datatype& dtype);

  /// The collectives engine (algorithm selection, topology map, per-op
  /// counters); Communicator's collectives call it directly over their
  /// CommGroup (roots are comm-relative ranks). The Cluster feeds it cost
  /// hints after construction.
  CollEngine& coll() { return *coll_; }
  const CollEngine& coll() const { return *coll_; }

  // -- process-fault injection (docs/RELIABILITY.md) ---------------------
  /// Arm a crash-stop at virtual time `t`: the next progress-loop entry at
  /// or after `t` throws RankCrashed and the rank goes silent. A timer
  /// wakes the notifier at `t` so even a blocked rank notices.
  void set_crash_time(sim::SimTime t);

  // -- collective abort protocol (driven by CollEngine) ------------------
  /// Account the start of one collective on `context`; returns its
  /// sequence number. Throws RequestError if the context is poisoned (a
  /// collective at or before this point aborted: per-step tags are reused
  /// across calls, so no later collective on the context is safe).
  std::uint64_t coll_begin(int context);
  /// wait() plus abort/liveness checks: returns normally on completion,
  /// throws RequestError on p2p transfer failure, CollAbortObserved once a
  /// COLL_ABORT wave covering `seq` is recorded, CollWatchdogExpired when
  /// virtual time passes `deadline` with the request still pending.
  void coll_wait(Request& req, Status* status, int context,
                 std::uint64_t seq, sim::SimTime deadline);
  /// Record an abort of collective `seq` on `context` (local failure or
  /// incoming wave); keeps the earliest aborted sequence.
  void coll_note_abort(int context, std::uint64_t seq, int origin);
  /// Broadcast kCollAbort to every other member of `g` (once per context)
  /// and record the abort locally.
  void coll_send_abort_wave(const CommGroup& g, std::uint64_t seq,
                            int origin);
  /// Keep an aborted collective's scratch buffers alive until the rank
  /// tears down: stale messages of the abandoned operation may still
  /// deliver into them (via still-posted receives) long after the
  /// collective call unwound.
  void park_scratch(std::vector<std::shared_ptr<void>> scratch);

 private:
  // One pass over all pending work; never blocks.
  void progress_once();
  // Dispatch one completion-queue entry.
  void dispatch(const netsim::Completion& c);
  void handle_eager(const netsim::WireMessage& m);
  void handle_rts(const netsim::WireMessage& m);
  // Try to match an incoming envelope against the posted-receive queue.
  std::shared_ptr<ReqState> match_posted(int src, int tag, int context);
  // Deliver a (matched) eager payload into the receive request.
  void deliver_eager(ReqState& r, int src, int tag,
                     const std::vector<std::byte>& payload);
  // Start the rendezvous receiver for a matched RTS.
  void begin_rndv_recv(const std::shared_ptr<ReqState>& r, int src, int tag,
                       std::size_t bytes, std::uint64_t sender_req,
                       std::size_t sender_chunk);
  void sweep_transfers();
  // Drop a finished receiver from the live maps, keeping only the small
  // per-transfer record that keeps very late duplicates recognizable.
  void retire_recv(std::uint64_t recv_req, const core::RndvRecv& recv);
  std::uint64_t next_req_id() { return req_seq_++; }

  int rank_;
  int size_;
  sim::Engine& engine_;
  gpu::MemoryRegistry& registry_;
  core::VbufPool vbuf_pool_;
  sim::Notifier notifier_;
  core::TransferScheduler sched_;
  core::RankResources res_;

  ApiStats api_stats_;
  std::unique_ptr<CollEngine> coll_;
  std::shared_ptr<const CommGroup> world_group_;
  int next_context_ = 1;
  std::uint64_t req_seq_ = 1;
  std::deque<std::shared_ptr<ReqState>> posted_recvs_;
  std::deque<UnexpectedMsg> unexpected_;
  std::unordered_map<std::uint64_t, std::shared_ptr<ReqState>> active_sends_;
  std::unordered_map<std::uint64_t, std::shared_ptr<ReqState>> active_recvs_;

  // -- reliability bookkeeping -------------------------------------------
  core::RetryStats retry_stats_;
  /// Receivers whose request completed but that still owe protocol duties
  /// (waiting for SEND_DONE to release retained slots, replaying stored
  /// acks). Keyed by recv request id.
  std::unordered_map<std::uint64_t, std::shared_ptr<core::RndvRecv>>
      draining_recvs_;
  /// Live rendezvous receivers keyed by (source node, sender request id):
  /// retransmitted RTSes are recognised here and answered with the stored
  /// CTS / done instead of spawning a second receiver. Entries are erased
  /// when the transfer is provably finished (drained), leaving only a
  /// finished_* record behind.
  std::map<std::pair<int, std::uint64_t>, std::shared_ptr<core::RndvRecv>>
      rts_index_;
  /// Garbage-collected transfers. A whole retained receiver shrinks to a
  /// few words: enough to recognise a very late duplicate RTS (key:
  /// (source node, sender request id)) ...
  std::map<std::pair<int, std::uint64_t>, std::uint64_t> finished_rts_;
  /// ... and to re-ack a retransmitted SEND_DONE whose SEND_DONE_ACK was
  /// lost after the direct-mode receiver was collected (key: recv request
  /// id, value: (source node, sender request id)).
  std::unordered_map<std::uint64_t, std::pair<int, std::uint64_t>>
      finished_recvs_;
  /// Staging slots failed/finished transfers could not release safely (an
  /// in-flight RDMA write may still read them); freed in the destructor,
  /// when the engine has drained every event.
  std::vector<core::detail::StagingSlot> slot_graveyard_;

  // -- process faults / collective abort ---------------------------------
  /// Per-context collective accounting and abort state. Sticky: once a
  /// context aborts it stays poisoned (see coll_begin).
  struct CollAbortState {
    std::uint64_t started = 0;   // collectives begun on this context
    bool aborted = false;
    std::uint64_t abort_seq = 0; // earliest aborted collective sequence
    int origin = -1;             // world rank that failed first
    bool wave_sent = false;      // this rank already broadcast the wave
  };
  std::unordered_map<int, CollAbortState> coll_abort_;
  /// Scratch buffers of aborted collectives (see park_scratch).
  std::vector<std::shared_ptr<void>> scratch_graveyard_;
  sim::SimTime crash_at_ = -1;   // injected crash-stop time (<0: never)
  sim::DeadlineTimer crash_timer_;
};

}  // namespace mv2gnc::mpisim::detail
