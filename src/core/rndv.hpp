// The MV2-GPU-NC rendezvous pipeline (paper §IV-B, Figure 3), hardened
// against a lossy fabric.
//
// A large message moves through five stages, chunked at the configured
// block size and fully overlapped:
//
//   sender                                   receiver
//   ------                                   --------
//   D2D nc2c   pack chunk into device tbuf
//   D2H c2c    tbuf chunk -> host vbuf
//   RDMA       vbuf -> advertised remote slot ... per-chunk "fin" immediate
//                                             H2D c2c  slot -> device rtbuf
//                                             D2D c2nc rtbuf -> user buffer
//
// Every buffer combination the MPI layer can present is this pipeline with
// some stages dropped. Each side derives one stage descriptor per transfer
// (SendStages / RecvStages) from residency, contiguity, the device-direct
// route and the Figure-2 scheme; the trigger graphs are built from it:
//
//   buffers            sender                  receiver
//                      pack  to host      wire  landing  H2D       unpack
//   device strided     tbuf  D2H copy     slot  slots    copy      kernel
//   device strided,
//     nc2c scheme      -     strided PCIe slot  slots    str. PCIe -
//   device contiguous  -     D2H copy     slot  slots    copy      -
//   host strided       -     CPU pack     slot  slots    -         CPU
//   host contiguous    -     -            user  user     -         -
//   IPC strided        tbuf  -            tbuf  device   -         kernel
//   IPC contiguous     -     -            user  user     -         -
//
// Device contiguous is the 3-stage prior-work MVAPICH2-GPU design [3];
// the nc2c row is the paper's non-offloaded alternative, taken when
// pick_pack_scheme (core/gpu_staging.hpp) prices it cheaper or
// gpu_offload = false forces it. The IPC rows
// are the intra-node collapsed pipeline (docs/SIMULATION.md): the peer
// copy reads and writes device memory directly, so the host staging
// stages and their vbuf slots drop out entirely.
//
// Flow control follows the paper: the CTS advertises a window of landing
// vbufs; each slot is re-advertised as the receiver drains it, piggybacked
// on the per-chunk CHUNK_ACK.
//
// Reliability (docs/RELIABILITY.md): every control message may be lost or
// duplicated, and RDMA writes may fail with an error completion. The
// sender owns recovery — a per-transfer deadline timer retransmits the
// oldest unacknowledged state (RTS before the CTS arrives, unacked chunk
// writes after) with exponential backoff, bounded by rndv_max_retries and
// then failing the transfer cleanly (a best-effort SEND_ABORT tells the
// peer). An RTS that arrives before its receive is posted is answered
// with RTS_ACK, which refreshes the sender's budget: a late receiver is
// not loss. The receiver answers idempotently — duplicate RTS re-elicits
// the stored CTS, duplicate fins re-elicit the stored ack — and landing
// slots are retained until the sender's SEND_DONE so a late retransmitted
// write can never land in recycled memory; its own watchdog timer bounds
// how long an established rendezvous may sit in total silence before the
// receive fails (payload missing) or force-drains (payload complete).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/gpu_staging.hpp"
#include "core/msg_view.hpp"
#include "core/protocol.hpp"
#include "core/transport.hpp"
#include "core/trigger_graph.hpp"
#include "core/tunables.hpp"
#include "core/vbuf_pool.hpp"
#include "cuda/runtime.hpp"
#include "sim/engine.hpp"
#include "sim/timer.hpp"
#include "sim/trace.hpp"

namespace mv2gnc::core {

class TransferScheduler;

/// Per-rank reliability counters, aggregated across all transfers of the
/// rank. Zero across the board on a perfect fabric.
struct RetryStats {
  std::uint64_t rts_retransmits = 0;     // RTS resent on timeout
  std::uint64_t chunk_retransmits = 0;   // chunk writes resent on timeout
  std::uint64_t error_retransmits = 0;   // chunk writes resent after kError
  std::uint64_t cts_resent = 0;          // stored CTS replayed on dup RTS
  std::uint64_t acks_resent = 0;         // stored ack replayed on dup fin
  std::uint64_t send_done_retransmits = 0;  // direct-mode SEND_DONE resent
  std::uint64_t timeouts = 0;            // deadline expiries counted as retry
  std::uint64_t stall_fallbacks = 0;     // vbuf-starvation watchdog firings
  std::uint64_t duplicates_dropped = 0;  // redundant control msgs ignored
  std::uint64_t transfer_failures = 0;   // transfers failed after max retries
  std::uint64_t force_drains = 0;        // receivers drained by the watchdog
                                         // after the peer went silent

  std::uint64_t total_retransmits() const {
    return rts_retransmits + chunk_retransmits + error_retransmits +
           cts_resent + acks_resent + send_done_retransmits;
  }
};

namespace detail {

/// A staging buffer that is either a pooled vbuf or (for oversized chunks,
/// e.g. with pipelining disabled) a one-off pinned host allocation
/// (cudaMallocHost equivalent).
struct StagingSlot {
  std::byte* ptr = nullptr;
  bool from_pool = false;
  cusim::CudaContext* host_owner = nullptr;  // set for one-off allocations
  /// Set when `ptr` is *device* memory parked in the slot graveyard (an IPC
  /// pack/landing buffer a failed transfer could not free: a queued peer
  /// copy may still reference it). Freed with cudaFree at rank teardown.
  cusim::CudaContext* device_owner = nullptr;

  bool valid() const { return ptr != nullptr; }
};

StagingSlot acquire_slot(VbufPool& pool, cusim::CudaContext& cuda,
                         std::size_t bytes);
void release_slot(VbufPool& pool, StagingSlot& slot);
StagingSlot pinned_slot(cusim::CudaContext& cuda, std::size_t bytes);

}  // namespace detail

/// Per-rank resources shared by all transfers of that rank. The four CUDA
/// streams mirror the concurrency structure of Figure 3: packing, D2H
/// staging, H2D staging and unpacking progress independently. Every
/// pointer is required: the owning RankComm sets all of them before any
/// transfer exists.
struct RankResources {
  sim::Engine* engine = nullptr;
  cusim::CudaContext* cuda = nullptr;
  /// Per-peer wire path (fabric, or the intra-node IPC channel for
  /// co-located ranks). The rendezvous never sees a concrete transport.
  TransportRouter* net = nullptr;
  VbufPool* vbufs = nullptr;
  const Tunables* tun = nullptr;
  cusim::Stream pack_stream;
  cusim::Stream d2h_stream;
  cusim::Stream h2d_stream;
  cusim::Stream unpack_stream;

  // -- reliability plumbing ----------------------------------------------
  /// Woken by retransmission deadline expiry so the rank's progress loop
  /// runs; the timer callback itself never retransmits.
  sim::Notifier* notifier = nullptr;
  /// Aggregated retry/fault counters for this rank.
  RetryStats* retries = nullptr;
  /// Point-event sink for fault/retry/stall occurrences.
  sim::TraceRecorder* trace = nullptr;
  int rank = -1;
  /// Staging slots a *failed* transfer could not safely release (an RDMA
  /// write referencing them may still be queued in the transmit pipeline);
  /// the owning RankComm frees them at destruction, after the engine has
  /// drained every event.
  std::vector<detail::StagingSlot>* slot_graveyard = nullptr;
  /// Multi-transfer progress scheduler (docs/CONCURRENCY.md): vbuf QoS and
  /// fairness gating, adaptive pipeline depth, ack/credit coalescing and
  /// the control-message census.
  TransferScheduler* sched = nullptr;
};

/// pick_pack_scheme for `bytes` packed bytes of a device-resident message,
/// under the rank's GPU cost model and gpu_offload setting.
PackScheme pack_scheme(const RankResources& res, const MsgView& msg,
                       std::size_t bytes);

/// Chunk geometry shared by both sides (the RTS carries the sender's
/// chunk size so the receiver derives the identical split).
struct ChunkPlan {
  std::size_t total = 0;
  std::size_t chunk = 0;
  std::size_t count = 0;

  std::size_t offset_of(std::size_t i) const { return i * chunk; }
  std::size_t bytes_of(std::size_t i) const {
    const std::size_t off = offset_of(i);
    return (off + chunk <= total) ? chunk : total - off;
  }

  /// Throws std::invalid_argument on a zero total or zero chunk size; a
  /// chunk larger than the message is coerced to a single-chunk plan.
  static ChunkPlan make(std::size_t total, std::size_t chunk);
};

// SendStages, the sender's stages of one transfer (the left column of
// Figure 3), lives in core/gpu_staging.hpp: the chunk price reads it.

/// The receiver's stages of one transfer (the right column of Figure 3).
struct RecvStages {
  /// Where the sender's chunks land.
  enum class Landing : std::uint8_t {
    kSlots,         // advertised host vbuf window, recycled by credits
    kUser,          // straight into the contiguous user buffer
    kDeviceBuffer,  // a device reassembly buffer (rtbuf) peers copy into
  };
  enum class H2D : std::uint8_t { kNone, kCopy, kPcieStrided };
  enum class Unpack : std::uint8_t { kNone, kDeviceKernel, kCpu };

  Landing landing = Landing::kUser;
  H2D h2d = H2D::kNone;
  Unpack unpack = Unpack::kNone;
};

/// Sender-side state machine. Drive with on_*() from the progress engine
/// and call advance() after every event; done() flips once every chunk has
/// been acknowledged by the receiver, failed() once the retry budget is
/// exhausted.
///
/// Internally the stage transitions (pack-done -> D2H -> vbuf acquire ->
/// RDMA -> ack) form a TriggerGraph: each advance() is one firing pass over
/// declared dependency gates. The graph shapes reproduce the historical
/// frontier loops exactly — scheduling is byte-identical to the pre-graph
/// state machine (see core/trigger_graph.hpp).
class RndvSend {
 public:
  RndvSend(RankResources& res, MsgView msg, int dst_node,
           std::uint64_t my_req_id);
  ~RndvSend();
  RndvSend(const RndvSend&) = delete;
  RndvSend& operator=(const RndvSend&) = delete;

  /// Gate the wire on `gate`, an event recorded behind the copy that fills
  /// the send buffer (a device collective's D2H into a host staging slot).
  /// The RTS still leaves immediately, so the handshake overlaps the copy,
  /// but no write reads the buffer before the gate fires. Only a transfer
  /// whose wire reads the user buffer with no pack and no staging stage
  /// may be gated; any other stage set throws std::logic_error. Call
  /// before start().
  void set_data_gate(cusim::Event gate);

  /// Send the RTS and (with a device pack stage) start packing immediately
  /// — packing overlaps the handshake, as in Figure 3. Arms the
  /// retransmission deadline.
  void start(std::uint64_t tag_word);

  void on_cts(const netsim::WireMessage& msg);
  void on_chunk_ack(const netsim::WireMessage& msg);
  /// One coalesced ack out of a kChunkAckBatch (or the fields of an
  /// individual kChunkAck) — the shared entry point both paths reduce to.
  void apply_chunk_ack(const AckBatchEntry& e);
  /// The peer received our RTS but has no matching receive posted yet.
  /// Refreshes the retry budget: an unanswered handshake whose RTS is known
  /// delivered is a late receiver, not a lost message, and legal MPI
  /// programs may post the matching recv arbitrarily late.
  void on_rts_ack();
  /// Direct mode: the receiver confirmed our SEND_DONE; stop resending it.
  void on_send_done_ack();
  /// Returns true when the completion belonged to this transfer.
  bool on_rdma_complete(std::uint64_t wr_id);
  /// A posted write failed in transport (CqType::kError): retransmit the
  /// chunk, bounded per chunk by rndv_max_retries. Returns true when the
  /// wr_id belonged to this transfer.
  bool on_rdma_error(std::uint64_t wr_id);
  void advance();

  bool done() const { return complete_; }
  bool failed() const { return failed_; }
  /// No protocol duties remain. In direct mode completion leaves the
  /// SEND_DONE handshake still running (the receiver's request hinges on
  /// it); the owning RankComm keeps the transfer live until drained.
  bool drained() const {
    return failed_ ||
           (complete_ && (!done_owed_ || done_acked_ || done_given_up_));
  }
  const std::string& error() const { return error_; }
  std::uint64_t req_id() const { return req_id_; }
  const ChunkPlan& plan() const { return plan_; }

  /// Abandon the transfer without charging the path's failover health or
  /// the failure counters: the owner no longer wants the data (an aborted
  /// collective). Sends a best-effort SEND_ABORT retraction so the peer
  /// drops anything it holds for this transfer — including an unmatched
  /// RTS in its unexpected queue, whose periodic re-ack would otherwise
  /// keep this sender's retry budget resetting forever.
  void cancel(const std::string& reason);

 private:
  /// False when chunks leave straight from device (or user) memory and
  /// therefore never hold a host staging slot.
  bool uses_staging() const {
    return stages_.to_host != SendStages::ToHost::kNone;
  }

  /// Declare the trigger chains (stage frontier -> RDMA frontier);
  /// advance() then only fires the graph.
  void build_graph();
  /// Dependency gate of stage node i: depth cap, pack completion,
  /// staging-slot acquisition (the acquisition is the side effect that
  /// historically lived in the advance() loop body).
  bool stage_gate(std::size_t i);
  /// Dependency gate of RDMA node i: chunk staged, D2H drained, data gate,
  /// landing address available.
  bool rdma_gate(std::size_t i);
  /// True once the data gate (if any) has fired.
  bool data_ready() const {
    return !data_gate_.valid() || data_gate_.query();
  }
  void submit_stage(std::size_t i);
  void post_chunk_rdma(std::size_t i, bool retransmit);
  /// Stamp, census-count, piggyback pending credits for dst_, then post.
  void post_ctrl(netsim::WireMessage msg);
  void maybe_release_slot(std::size_t i);
  /// Complete once every chunk is acked and no write is still queued in
  /// the transmit pipeline; returns true when the transfer completed.
  bool maybe_complete();
  void note_progress() { ++progress_epoch_; }
  void arm_timer();
  void handle_timeout();
  void retransmit_unacked();
  void complete_transfer();
  void fail(const std::string& reason);
  void abandon(const std::string& reason);
  void trace_event(const char* category);

  RankResources& res_;
  MsgView msg_;
  int dst_;
  std::uint64_t req_id_;
  SendStages stages_;
  ChunkPlan plan_;
  /// Precomputed per-chunk resumable cursors (CPU pack), so
  /// retransmissions reuse them verbatim.
  std::shared_ptr<const PackPlan::ChunkCursors> cursors_;
  /// Data gate (invalid unless set_data_gate was called).
  cusim::Event data_gate_;
  /// The stage/RDMA dependency graph; rebuilt per transfer, fired by
  /// advance().
  TriggerGraph graph_;

  std::byte* tbuf_ = nullptr;  // device pack buffer (device_pack)
  std::vector<cusim::Event> pack_events_;
  std::vector<cusim::Event> stage_events_;
  std::vector<detail::StagingSlot> slots_;
  std::vector<bool> stage_submitted_;

  bool cts_received_ = false;
  CtsMode mode_ = CtsMode::kStaged;
  std::uint64_t peer_req_ = 0;
  std::byte* direct_base_ = nullptr;
  bool ipc_mapped_ = false;  // direct_base_ came from ipc_open_mem_handle
  std::deque<std::pair<std::uint64_t, void*>> remote_slots_;

  std::size_t next_stage_ = 0;
  std::size_t next_rdma_ = 0;
  std::unordered_map<std::uint64_t, std::size_t> wr_to_chunk_;

  // -- reliability state -------------------------------------------------
  netsim::WireMessage rts_;            // stored for retransmission
  netsim::WireMessage done_;           // SEND_DONE, stored for retransmission
  bool done_owed_ = false;             // direct mode: peer waits on SEND_DONE
  bool done_acked_ = false;
  bool done_given_up_ = false;         // SEND_DONE retry budget exhausted
  sim::DeadlineTimer timer_;
  std::uint64_t ctrl_seq_ = 0;         // stamps outgoing control messages
  std::size_t retries_ = 0;
  std::uint64_t progress_epoch_ = 1;
  std::uint64_t armed_epoch_ = 0;
  std::vector<bool> posted_;           // write posted at least once
  std::vector<bool> acked_;
  std::size_t acked_count_ = 0;
  std::vector<int> inflight_;          // posted writes without local cqe
  std::vector<std::size_t> write_errors_;  // kError count per chunk
  std::vector<std::uint64_t> remote_slot_idx_;  // landing slot per chunk
  std::vector<void*> remote_addr_;              // landing address per chunk
  bool force_pinned_ = false;          // stall watchdog verdict
  bool complete_ = false;
  bool failed_ = false;
  std::string error_;
};

/// Receiver-side state machine, created when an RTS matches a posted
/// receive. Sends the CTS, lands chunks, unpacks, acks each chunk (with
/// the freed slot's re-advertisement piggybacked). All loss recovery is
/// driven by the sender's retransmissions, which this side answers
/// idempotently; the receiver never retransmits data. Its one timer is a
/// liveness watchdog: once the rendezvous is established the sender is
/// actively driving, so prolonged total silence means the sender failed
/// (or the path died) and the receive must fail bounded instead of
/// waiting out the engine's deadlock detector.
class RndvRecv {
 public:
  RndvRecv(RankResources& res, MsgView msg, int src_node,
           std::uint64_t sender_req, std::uint64_t my_req_id,
           std::size_t incoming_bytes, std::size_t sender_chunk);
  ~RndvRecv();
  RndvRecv(const RndvRecv&) = delete;
  RndvRecv& operator=(const RndvRecv&) = delete;

  /// Decide the landing mode, allocate buffers, send the CTS.
  void start();

  void on_chunk_fin(const netsim::WireMessage& msg);
  /// The sender saw every ack: release retained landing slots and, in
  /// direct mode, complete the request.
  void on_send_done();
  /// A retransmitted RTS for this transfer arrived: replay the stored CTS
  /// so a lost handshake message is recovered.
  void on_duplicate_rts();
  /// Best-effort notice that the sender failed the transfer permanently:
  /// fail the receive now rather than waiting out the watchdog.
  void on_send_abort();
  void advance();

  /// The receive request may complete: all payload data has landed and
  /// unpacked into the user buffer. Direct (user-buffer) landings
  /// additionally wait for SEND_DONE — only then is it proven that no
  /// retransmitted duplicate write can still drain into a buffer the
  /// application owns again (or has already freed).
  bool request_complete() const;
  /// The transfer failed permanently (sender abort, or watchdog expiry
  /// with payload still missing).
  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }
  /// Nothing retained and no replay obligations remain; the owning
  /// RankComm may drop this object (keeping only its finished-transfer
  /// key so very late duplicate RTSes stay recognizable).
  bool drained() const;

  /// Abandon the receive without charging failover health or the failure
  /// counters (an aborted collective no longer wants the payload). The
  /// peer's own cancel/abort — or its retry budget — bounds its side.
  void cancel(const std::string& reason);

  std::uint64_t req_id() const { return req_id_; }
  std::uint64_t sender_req() const { return sender_req_; }
  int src_node() const { return src_; }
  std::size_t incoming_bytes() const { return plan_.total; }

 private:
  /// Landings where the sender writes a buffer this side advertised whole
  /// (no per-chunk slots, no credits; SEND_DONE is answered reliably).
  bool direct_landing() const {
    return stages_.landing != RecvStages::Landing::kSlots;
  }

  /// Declare the landing pipeline of stages_ (arrival -> H2D -> unpack ->
  /// ack) as trigger chains; advance() then only fires the graph.
  void build_graph();
  /// Chunk i's bytes sit where its drain stage reads them: landed, and
  /// copied to the device when the transfer has an H2D stage.
  bool staged_in(std::size_t i) const;
  void submit_h2d(std::size_t i);
  /// The stage that frees chunk i's landing (unpack, or none) and acks it.
  void drain_chunk(std::size_t i);
  void ack_chunk(std::size_t chunk_idx);
  void resend_ack(std::size_t chunk_idx);
  void post_ctrl(netsim::WireMessage msg);
  void trace_event(const char* category);
  void note_progress() { ++progress_epoch_; }
  void arm_timer();
  void handle_timeout();
  /// The peer has been silent for the whole backoff budget: release what
  /// is retained and stop tracking. Slots go back to the pool — by now any
  /// write the sender ever posted has long drained, the quiet period being
  /// orders of magnitude above wire latency plus jitter.
  void force_drain();
  void fail(const std::string& reason);
  void abandon(const std::string& reason);

  RankResources& res_;
  MsgView msg_;
  int src_;
  std::uint64_t sender_req_;
  std::uint64_t req_id_;
  RecvStages stages_;
  ChunkPlan plan_;
  /// Per-chunk resumable cursors for the CPU unpack (see RndvSend::cursors_).
  std::shared_ptr<const PackPlan::ChunkCursors> cursors_;
  /// The landing dependency graph (see RndvSend::graph_).
  TriggerGraph graph_;

  std::byte* rtbuf_ = nullptr;  // device buffer the device unpack reads
  std::vector<detail::StagingSlot> slots_;  // landing slots (staged modes)
  std::size_t slots_advertised_ = 0;

  struct ChunkState {
    bool arrived = false;
    bool ecn = false;  // the chunk's fin carried a fabric congestion mark
    std::uint64_t slot = 0;
    cusim::Event h2d_done;
    bool h2d_submitted = false;
    cusim::Event unpack_done;
    bool unpack_submitted = false;
  };
  std::vector<ChunkState> chunks_;
  std::size_t completed_ = 0;

  // -- reliability state -------------------------------------------------
  netsim::WireMessage cts_;            // stored for replay on dup RTS
  bool cts_sent_ = false;
  std::vector<netsim::WireMessage> acks_;  // stored per chunk once drained
  std::vector<bool> drained_chunk_;
  std::size_t drained_acks_ = 0;  // chunks acked at least once
  bool send_done_ = false;
  std::uint64_t credit_seq_ = 0;
  std::uint64_t ctrl_seq_ = 0;
  sim::DeadlineTimer timer_;           // liveness watchdog, never retransmits
  std::size_t retries_ = 0;
  std::uint64_t progress_epoch_ = 1;
  std::uint64_t armed_epoch_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace mv2gnc::core
