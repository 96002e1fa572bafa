#include "core/rndv.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/sched.hpp"

namespace mv2gnc::core {

namespace detail {

StagingSlot acquire_slot(VbufPool& pool, cusim::CudaContext& cuda,
                         std::size_t bytes) {
  StagingSlot s;
  if (bytes <= pool.buffer_bytes()) {
    s.ptr = pool.try_acquire();
    s.from_pool = (s.ptr != nullptr);
    return s;  // ptr may be null: pool exhausted, caller stalls
  }
  // Oversized chunk (pipelining disabled or giant pattern blocks): one-off
  // pinned staging buffer (a cudaMallocHost of the full message).
  return pinned_slot(cuda, bytes);
}

void release_slot(VbufPool& pool, StagingSlot& slot) {
  if (slot.ptr != nullptr) {
    if (slot.from_pool) pool.release(slot.ptr);
    else if (slot.host_owner != nullptr) slot.host_owner->free_host(slot.ptr);
    else if (slot.device_owner != nullptr) slot.device_owner->free(slot.ptr);
  }
  slot.ptr = nullptr;
  slot.from_pool = false;
  slot.host_owner = nullptr;
  slot.device_owner = nullptr;
}

// Pinned one-off slot, also used when the pool is empty but progress must
// be guaranteed (first receive-window slot).
StagingSlot pinned_slot(cusim::CudaContext& cuda, std::size_t bytes) {
  StagingSlot s;
  s.ptr = static_cast<std::byte*>(cuda.malloc_host(bytes));
  s.host_owner = &cuda;
  return s;
}

}  // namespace detail

namespace {

// Scheduler-aware slot acquisition: the QoS/fairness gate rules first
// (unless `gated` is false — guaranteed-progress slots bypass it), then the
// pool, with the take accounted against the transfer. Oversized chunks
// never touch the pool, so they bypass the gate too.
detail::StagingSlot sched_acquire(RankResources& res, std::uint64_t id,
                                  std::size_t bytes, bool gated = true) {
  if (gated && bytes <= res.vbufs->buffer_bytes() &&
      !res.sched->may_acquire(id)) {
    return {};
  }
  detail::StagingSlot s = detail::acquire_slot(*res.vbufs, *res.cuda, bytes);
  if (s.from_pool) res.sched->note_acquired(id);
  return s;
}

// Release counterpart: returns the slot and updates the transfer's held
// count (a no-op for pinned one-offs and unregistered transfers).
void sched_release(RankResources& res, std::uint64_t id,
                   detail::StagingSlot& slot) {
  const bool pooled = slot.from_pool && slot.ptr != nullptr;
  detail::release_slot(*res.vbufs, slot);
  if (pooled) res.sched->note_released(id);
}

// Exact memcpy count of chunk i ([off, off+bytes)): from the plan's cursor
// table when it covers the chunk, else one plan query.
std::size_t chunk_segments(const MsgView& msg,
                           const PackPlan::ChunkCursors* table, std::size_t i,
                           std::size_t off, std::size_t bytes) {
  if (table != nullptr && i < table->count && off == i * table->chunk) {
    const std::size_t expect =
        std::min(table->chunk, msg.plan->packed_bytes() - off);
    if (bytes == expect) return table->segments[i];
  }
  return msg.plan->segments_in_range(off, bytes);
}

// The sender's stages of one transfer (the table in rndv.hpp).
SendStages send_stages(const RankResources& res, const MsgView& msg,
                       bool ipc_direct) {
  using ToHost = SendStages::ToHost;
  using Wire = SendStages::Wire;
  if (!msg.on_device) {
    if (msg.contiguous) return {false, ToHost::kNone, Wire::kUser};
    return {false, ToHost::kCpuPack, Wire::kSlot};
  }
  if (ipc_direct) {
    // Intra-node fast path: the peer copy reads device memory directly,
    // so the whole D2H staging stage drops out (collapsed pipeline).
    if (msg.contiguous) return {false, ToHost::kNone, Wire::kUser};
    return {true, ToHost::kNone, Wire::kTbuf};
  }
  if (msg.contiguous) return {false, ToHost::kD2HCopy, Wire::kSlot};
  if (pack_scheme(res, msg, msg.packed_bytes) == PackScheme::kD2D2H_nc2c2c) {
    return {true, ToHost::kD2HCopy, Wire::kSlot};
  }
  return {false, ToHost::kPcieStrided, Wire::kSlot};
}

// The receiver's stages of one transfer of `bytes` packed bytes in `chunk`
// byte chunks (the table in rndv.hpp).
RecvStages recv_stages(const RankResources& res, const MsgView& msg,
                       bool ipc_direct, std::size_t bytes,
                       std::size_t chunk) {
  using Landing = RecvStages::Landing;
  using H2D = RecvStages::H2D;
  using Unpack = RecvStages::Unpack;
  if (!msg.on_device) {
    if (msg.contiguous) return {Landing::kUser, H2D::kNone, Unpack::kNone};
    return {Landing::kSlots, H2D::kNone, Unpack::kCpu};
  }
  if (ipc_direct) {
    // Co-located sender with a peer-copy-capable transport: the payload
    // lands in device memory directly (the user buffer when contiguous, a
    // device reassembly buffer otherwise). No host staging window.
    if (msg.contiguous) return {Landing::kUser, H2D::kNone, Unpack::kNone};
    return {Landing::kDeviceBuffer, H2D::kNone, Unpack::kDeviceKernel};
  }
  if (msg.contiguous) return {Landing::kSlots, H2D::kCopy, Unpack::kNone};
  // The strided copy also needs each chunk to be whole rows of this
  // buffer, and the sender sized the chunks in rows of its own layout.
  if (align_chunk_to_pattern(msg, chunk) != chunk ||
      pack_scheme(res, msg, bytes) == PackScheme::kD2D2H_nc2c2c) {
    return {Landing::kSlots, H2D::kCopy, Unpack::kDeviceKernel};
  }
  return {Landing::kSlots, H2D::kPcieStrided, Unpack::kNone};
}

// Pipeline chunk size (§IV-B): one degenerate chunk at or below the
// threshold, otherwise priced from the stages the transfer runs, or the
// fixed tunable.
std::size_t select_chunk(const RankResources& res, const MsgView& msg,
                         const SendStages& stages) {
  const Tunables& tun = *res.tun;
  if (!tun.pipelining || msg.packed_bytes <= tun.pipeline_threshold) {
    return msg.packed_bytes;  // n = 1: degenerate (unpipelined) transfer
  }
  if (msg.on_device && tun.chunk_select == ChunkSelect::kModel) {
    return select_chunk_bytes(res.cuda->device().cost(), msg, stages,
                              tun.chunk_bytes);
  }
  return align_chunk_to_pattern(msg, tun.chunk_bytes);
}

// A cusim IPC memory handle, flattened into a control-message payload
// (device-direct CTS: the landing address crosses as a handle, not a raw
// pointer, and the sender must open it).
void append_ipc_handle(std::vector<std::byte>& payload,
                       const cusim::IpcMemHandle& h) {
  const std::uint64_t words[4] = {h.device, h.base, h.size, h.offset};
  const auto* p = reinterpret_cast<const std::byte*>(words);
  payload.insert(payload.end(), p, p + sizeof(words));
}

cusim::IpcMemHandle read_ipc_handle(const std::vector<std::byte>& payload) {
  std::uint64_t words[4] = {};
  if (payload.size() < sizeof(words)) {
    throw std::logic_error("read_ipc_handle: truncated payload");
  }
  std::memcpy(words, payload.data(), sizeof(words));
  cusim::IpcMemHandle h;
  h.device = words[0];
  h.base = words[1];
  h.size = words[2];
  h.offset = words[3];
  return h;
}

// Absolute deadline for retry number `retries`: base timeout grown by the
// backoff factor, clamped so an extreme retry count cannot overflow SimTime
// (the cap is ~11 virtual days; transfers fail long before).
sim::SimTime backoff_deadline(const Tunables& tun, std::size_t retries,
                              sim::SimTime now) {
  const double scale =
      std::pow(tun.rndv_backoff_factor, static_cast<double>(retries));
  double delay_ns = static_cast<double>(tun.rndv_timeout_ns) * scale;
  if (!(delay_ns < 1e15)) delay_ns = 1e15;
  return now + static_cast<sim::SimTime>(delay_ns);
}

}  // namespace

PackScheme pack_scheme(const RankResources& res, const MsgView& msg,
                       std::size_t bytes) {
  return pick_pack_scheme(res.cuda->device().cost(), msg, bytes,
                          res.tun->gpu_offload);
}

ChunkPlan ChunkPlan::make(std::size_t total, std::size_t chunk) {
  if (total == 0) throw std::invalid_argument("ChunkPlan: empty message");
  if (chunk == 0) throw std::invalid_argument("ChunkPlan: zero chunk size");
  if (chunk > total) chunk = total;
  ChunkPlan p;
  p.total = total;
  p.chunk = chunk;
  p.count = (total + chunk - 1) / chunk;
  return p;
}

// ===========================================================================
// RndvSend
// ===========================================================================

RndvSend::RndvSend(RankResources& res, MsgView msg, int dst_node,
                   std::uint64_t my_req_id)
    : res_(res),
      msg_(std::move(msg)),
      dst_(dst_node),
      req_id_(my_req_id),
      timer_(*res.engine) {
  stages_ = send_stages(res_, msg_,
                        msg_.on_device && res_.net->device_direct(dst_node));
  plan_ = ChunkPlan::make(msg_.packed_bytes,
                          select_chunk(res_, msg_, stages_));
  if (stages_.to_host == SendStages::ToHost::kCpuPack &&
      msg_.packed_bytes > 0) {
    cursors_ = msg_.plan->chunk_cursors(plan_.chunk);
  }
  pack_events_.resize(plan_.count);
  stage_events_.resize(plan_.count);
  slots_.resize(plan_.count);
  stage_submitted_.assign(plan_.count, false);
  posted_.assign(plan_.count, false);
  acked_.assign(plan_.count, false);
  inflight_.assign(plan_.count, 0);
  write_errors_.assign(plan_.count, 0);
  remote_slot_idx_.assign(plan_.count, kNoSlot);
  remote_addr_.assign(plan_.count, nullptr);
  res_.sched->register_transfer(req_id_);
}

RndvSend::~RndvSend() {
  try {
    timer_.cancel();
    res_.sched->unregister_transfer(req_id_);
    if (tbuf_ != nullptr) {
      res_.cuda->free(tbuf_);
      tbuf_ = nullptr;
    }
    if (ipc_mapped_) {
      res_.cuda->ipc_close_mem_handle(direct_base_);
      ipc_mapped_ = false;
    }
    for (auto& s : slots_) detail::release_slot(*res_.vbufs, s);
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

void RndvSend::trace_event(const char* category) {
  res_.trace->event(res_.rank, category, res_.engine->now());
}

void RndvSend::post_ctrl(netsim::WireMessage msg) {
  msg.seq = ctrl_seq_++;
  res_.sched->note_ctrl(msg.kind);
  res_.net->post_send(dst_, std::move(msg));
}

void RndvSend::set_data_gate(cusim::Event gate) {
  if (stages_.device_pack || stages_.to_host != SendStages::ToHost::kNone ||
      stages_.wire != SendStages::Wire::kUser) {
    throw std::logic_error(
        "RndvSend::set_data_gate: only a transfer whose wire reads the user "
        "buffer, with no pack or staging stage, can be gated");
  }
  data_gate_ = std::move(gate);
}

void RndvSend::start(std::uint64_t tag_word) {
  rts_.kind = kRts;
  rts_.header[0] = tag_word;
  rts_.header[1] = plan_.total;
  rts_.header[2] = req_id_;
  rts_.header[3] = plan_.chunk;
  post_ctrl(rts_);
  build_graph();
  // Offload the whole pack immediately; it overlaps the RTS/CTS handshake
  // ("the sender ... triggers multiple asynchronous memory copies, each of
  // which does a chunk size non-contiguous data pack").
  if (stages_.device_pack) {
    tbuf_ = static_cast<std::byte*>(res_.cuda->malloc(plan_.total));
    for (std::size_t i = 0; i < plan_.count; ++i) {
      pack_events_[i] = submit_device_pack(
          *res_.cuda, res_.pack_stream, msg_, plan_.offset_of(i),
          plan_.bytes_of(i), tbuf_ + plan_.offset_of(i));
    }
  }
  arm_timer();
  advance();
}

void RndvSend::build_graph() {
  graph_.clear();
  // Stage frontier: pack (if any) must have completed; a staging slot must
  // be available. Staging runs regardless of CTS — it overlaps the
  // handshake.
  const int stage = graph_.add_chain(TriggerGraph::ChainKind::kFrontier);
  for (std::size_t i = 0; i < plan_.count; ++i) {
    graph_.add_node(stage, [this, i] { return stage_gate(i); },
                    [this, i] {
                      submit_stage(i);
                      ++next_stage_;
                    });
  }
  // Every chunk staged: this transfer asks for nothing more.
  graph_.set_epilogue(stage, [this] {
    if (next_stage_ == plan_.count) res_.sched->withdraw(req_id_);
  });
  // RDMA frontier: needs the CTS (remote landing addresses) and the
  // staged chunk data sitting in host memory.
  const int rdma = graph_.add_chain(TriggerGraph::ChainKind::kFrontier,
                                    [this] { return cts_received_; });
  for (std::size_t i = 0; i < plan_.count; ++i) {
    graph_.add_node(rdma, [this, i] { return rdma_gate(i); },
                    [this, i] {
                      post_chunk_rdma(i, /*retransmit=*/false);
                      ++next_rdma_;
                    });
  }
}

bool RndvSend::stage_gate(std::size_t i) {
  // Pipeline-depth cap: staged-but-unacked chunks (each pinning a slot
  // and a spot in the transmit pipeline) stay within the scheduler's
  // adaptive budget; acks re-drive us as they land. Either refusal means
  // we are not slot-starved right now — withdraw any queued turn.
  if (next_stage_ - acked_count_ >= res_.sched->inflight_cap()) {
    res_.sched->withdraw(req_id_);
    return false;
  }
  if (stages_.device_pack &&
      (!pack_events_[i].valid() || !pack_events_[i].query())) {
    res_.sched->withdraw(req_id_);
    return false;
  }
  if (uses_staging() && !slots_[i].valid()) {
    if (force_pinned_) {
      // Stall watchdog verdict: the pool is wedged, take a pinned slot.
      slots_[i] = detail::pinned_slot(*res_.cuda, plan_.bytes_of(i));
      force_pinned_ = false;
    } else {
      slots_[i] = sched_acquire(res_, req_id_, plan_.bytes_of(i));
    }
    if (!slots_[i].valid()) {
      // No slot. If this transfer has unacked chunks holding slots,
      // their acks free slots and re-drive us — stall. If the fairness
      // gate queued us, the granted transfer's progress re-drives the
      // rank and our next ask takes its turn (the stall watchdog bounds
      // the wait). If it holds nothing and is not queued, no event of
      // ours will ever wake us: take a one-off pinned slot so every
      // transfer is guaranteed to progress (this breaks the circular
      // wait when concurrent receive windows have consumed the pool).
      const std::size_t in_flight = next_stage_ - acked_count_;
      if (in_flight > 0 || res_.sched->is_waiting(req_id_)) return false;
      slots_[i] = detail::pinned_slot(*res_.cuda, plan_.bytes_of(i));
    }
  }
  return true;
}

bool RndvSend::rdma_gate(std::size_t i) {
  if (!stage_submitted_[i]) return false;
  if (stage_events_[i].valid() && !stage_events_[i].query()) return false;
  // The data gate holds the write itself: the wire reads the user buffer
  // (set_data_gate admits no other stage set).
  if (!data_ready()) return false;
  if (mode_ == CtsMode::kStaged && remote_slots_.empty()) return false;
  return true;
}

void RndvSend::arm_timer() {
  armed_epoch_ = progress_epoch_;
  const sim::SimTime at =
      backoff_deadline(*res_.tun, retries_, res_.engine->now());
  sim::Notifier* n = res_.notifier;
  // The callback runs in scheduler context: wake the progress loop and
  // nothing else. The retransmission itself happens in-process, in
  // handle_timeout(), driven from the next advance().
  timer_.arm(at, [n] { n->notify(); });
}

void RndvSend::handle_timeout() {
  if (complete_) {
    // Only the direct-mode SEND_DONE handshake is still running; no data
    // event can move the epoch, so every expiry is genuine.
    ++retries_;
    ++res_.retries->timeouts;
    trace_event("fault_timeout");
    if (retries_ > res_.tun->rndv_max_retries) {
      // Give up — the data itself was fully acked. The receiver recovers
      // on its own: its watchdog force-drains once we fall silent.
      done_given_up_ = true;
      timer_.cancel();
      return;
    }
    post_ctrl(done_);
    ++res_.retries->send_done_retransmits;
    trace_event("fault_done_retransmit");
    arm_timer();
    return;
  }
  if (progress_epoch_ != armed_epoch_) {
    // The transfer moved since the deadline was armed; this expiry is
    // stale. Fresh deadline, retry budget restored. An RTS_ACK from a
    // receiver that has not posted the matching recv yet lands here too:
    // the handshake is alive, so waiting is not failure.
    retries_ = 0;
    arm_timer();
    return;
  }
  if (!data_ready()) {
    // Gated transfer waiting on the copy that fills its buffer, not on the
    // peer: a long-running producer is legal, so the quiet period does not
    // charge the retry budget. Keep probing with the RTS so the peer's
    // liveness watchdog stays fed meanwhile.
    post_ctrl(rts_);
    ++res_.retries->rts_retransmits;
    trace_event("fault_rts_retransmit");
    retries_ = 0;
    arm_timer();
    return;
  }
  ++retries_;
  ++res_.retries->timeouts;
  trace_event("fault_timeout");
  if (retries_ > res_.tun->rndv_max_retries) {
    fail("rendezvous " + std::to_string(req_id_) + " to rank " +
         std::to_string(dst_) + " timed out after " +
         std::to_string(res_.tun->rndv_max_retries) + " retransmissions");
    return;
  }
  retransmit_unacked();
  arm_timer();
}

void RndvSend::retransmit_unacked() {
  if (!cts_received_) {
    // Handshake not established (RTS or CTS was lost): resend the stored
    // RTS. The receiver dedups by (src, sender req) and replays its CTS if
    // it already answered.
    post_ctrl(rts_);
    ++res_.retries->rts_retransmits;
    trace_event("fault_rts_retransmit");
    return;
  }
  bool any = false;
  for (std::size_t i = 0; i < next_rdma_; ++i) {
    if (posted_[i] && !acked_[i] && inflight_[i] == 0) {
      post_chunk_rdma(i, /*retransmit=*/true);
      ++res_.retries->chunk_retransmits;
      trace_event("fault_chunk_retransmit");
      any = true;
    }
  }
  if (!any) {
    // Nothing unacknowledged on the wire, yet no progress: the transfer is
    // stalled locally. If the stage frontier is starved of staging slots
    // (vbuf pool exhausted, e.g. because the acks that would recycle them
    // were lost on other transfers), degrade to a one-off pinned slot so
    // this transfer keeps moving.
    if (uses_staging() && next_stage_ < plan_.count &&
        !slots_[next_stage_].valid() &&
        (res_.vbufs->available() == 0 || res_.sched->is_waiting(req_id_))) {
      // Starved of staging slots — pool drained, or the fairness gate kept
      // us queued for a full timeout (the slots it is saving us from are
      // not coming back). Either way, degrade to a one-off pinned slot.
      force_pinned_ = true;
      ++res_.retries->stall_fallbacks;
      trace_event("fault_stall_fallback");
    }
  }
}

void RndvSend::submit_stage(std::size_t i) {
  const std::size_t off = plan_.offset_of(i);
  const std::size_t bytes = plan_.bytes_of(i);
  switch (stages_.to_host) {
    case SendStages::ToHost::kD2HCopy: {
      // Out of the packed tbuf, or straight out of a contiguous user buffer.
      const std::byte* src =
          stages_.device_pack ? tbuf_ : static_cast<std::byte*>(msg_.base);
      res_.cuda->memcpy_async(slots_[i].ptr, src + off, bytes,
                              cusim::MemcpyKind::kDeviceToHost,
                              res_.d2h_stream);
      stage_events_[i] = res_.cuda->record_event(res_.d2h_stream);
      break;
    }
    case SendStages::ToHost::kPcieStrided:
      stage_events_[i] = submit_pcie_pack_to_host(
          *res_.cuda, res_.d2h_stream, msg_, off, bytes, slots_[i].ptr);
      break;
    case SendStages::ToHost::kCpuPack:
      // Host packing occupies the CPU (the cost the paper's offload dodges).
      res_.engine->delay(res_.tun->host_pack_time(
          bytes, chunk_segments(msg_, cursors_.get(), i, off, bytes)));
      if (cursors_ && i < cursors_->count && off == i * cursors_->chunk) {
        msg_.dtype.pack_bytes_from(cursors_->cursors[i], msg_.base,
                                   msg_.count, bytes, slots_[i].ptr);
      } else {
        msg_.dtype.pack_bytes(msg_.base, msg_.count, off, bytes,
                              slots_[i].ptr);
      }
      break;
    case SendStages::ToHost::kNone:
      // No host slot: the wire reads the tbuf or the user buffer directly.
      // A packed chunk's pack event doubles as the RDMA gate.
      if (stages_.device_pack) stage_events_[i] = pack_events_[i];
      break;
  }
  stage_submitted_[i] = true;
  note_progress();
}

void RndvSend::post_chunk_rdma(std::size_t i, bool retransmit) {
  const std::size_t off = plan_.offset_of(i);
  const std::size_t bytes = plan_.bytes_of(i);
  const std::byte* src = static_cast<std::byte*>(msg_.base) + off;
  if (stages_.wire == SendStages::Wire::kSlot) {
    src = slots_[i].ptr;
  } else if (stages_.wire == SendStages::Wire::kTbuf) {
    src = tbuf_ + off;  // packed in place on the device; no host staging
  }
  void* remote = nullptr;
  std::uint64_t slot_idx = kNoSlot;
  if (retransmit) {
    // Same landing address as the original write: the receiver retains the
    // slot until it has acked the chunk AND seen SEND_DONE, so the address
    // is still valid even if the original write already landed.
    remote = remote_addr_[i];
    slot_idx = remote_slot_idx_[i];
  } else if (mode_ == CtsMode::kDirect) {
    remote = direct_base_ + off;
  } else {
    auto [idx, addr] = remote_slots_.front();
    remote_slots_.pop_front();
    slot_idx = idx;
    remote = addr;
  }
  remote_addr_[i] = remote;
  remote_slot_idx_[i] = slot_idx;
  netsim::WireMessage fin;
  fin.kind = kChunkFin;
  fin.seq = ctrl_seq_++;
  fin.header[0] = peer_req_;
  fin.header[1] = i;
  fin.header[2] = slot_idx;
  fin.header[3] = off;
  fin.header[4] = bytes;
  res_.sched->note_ctrl(kChunkFin);
  const std::uint64_t wr =
      res_.net->post_rdma_write(dst_, src, remote, bytes, std::move(fin));
  wr_to_chunk_.emplace(wr, i);
  ++inflight_[i];
  posted_[i] = true;
  // Only a FIRST posting counts as progress. A retransmission is our own
  // doing — letting it refresh the retry budget would turn a dead data path
  // into an infinite retransmit loop instead of a bounded failure.
  if (!retransmit) note_progress();
}

void RndvSend::advance() {
  if (!failed_ && !drained() && timer_.fired()) handle_timeout();
  if (complete_ || failed_) return;
  // One firing pass over the dependency graph: each chain's frontier fires
  // every node whose gate yields, in declaration order — exactly the
  // historical frontier loops (see build_graph()).
  graph_.fire();
}

void RndvSend::on_cts(const netsim::WireMessage& m) {
  if (cts_received_ || complete_ || failed_) {
    ++res_.retries->duplicates_dropped;
    return;
  }
  cts_received_ = true;
  peer_req_ = m.header[1];
  mode_ = static_cast<CtsMode>(m.header[2]);
  if (mode_ == CtsMode::kDirect) {
    if (m.header[4] == 1) {
      // Device-direct landing: the receiver advertised a cusim IPC handle
      // for its device buffer; open it to get a peer-copyable address.
      direct_base_ = static_cast<std::byte*>(
          res_.cuda->ipc_open_mem_handle(read_ipc_handle(m.payload)));
      ipc_mapped_ = true;
    } else {
      direct_base_ = static_cast<std::byte*>(read_address(m.payload, 0));
    }
  } else {
    const std::size_t n = address_count(m.payload);
    for (std::size_t i = 0; i < n; ++i) {
      remote_slots_.emplace_back(i, read_address(m.payload, i));
    }
  }
  note_progress();
  advance();
}

void RndvSend::on_rts_ack() {
  if (cts_received_ || complete_ || failed_) {
    ++res_.retries->duplicates_dropped;
    return;
  }
  // The RTS is known delivered; the peer simply has no matching recv yet.
  // Moving the epoch makes the pending deadline stale, which restores the
  // retry budget — the sender keeps probing (each probe re-elicits an
  // RTS_ACK or, once matched, the CTS) but only sustained silence counts
  // toward permanent failure.
  note_progress();
}

void RndvSend::on_send_done_ack() {
  if (!done_owed_ || done_acked_) {
    ++res_.retries->duplicates_dropped;
    return;
  }
  done_acked_ = true;
  timer_.cancel();
}

void RndvSend::on_chunk_ack(const netsim::WireMessage& m) {
  if (complete_ || failed_) return;
  const std::size_t idx = m.header[1];
  if (idx >= plan_.count) return;
  if (acked_[idx]) {
    ++res_.retries->duplicates_dropped;
    return;
  }
  acked_[idx] = true;
  ++acked_count_;
  note_progress();
  // ECN echo: the receiver tells us whether this chunk's fin queued past
  // the fabric's backlog threshold; the scheduler turns marks into depth
  // halvings and clean streaks into growth. After the duplicate check, so a
  // replayed ack cannot double-count one congestion episode.
  res_.sched->note_chunk_ack(req_id_, m.header[4] != 0);
  if (m.header[2] != kNoSlot) {
    // The freed landing slot rides on the ack (the paper's CREDIT).
    remote_slots_.emplace_back(m.header[2], read_address(m.payload, 0));
  }
  maybe_release_slot(idx);
  if (maybe_complete()) return;
  advance();
}

bool RndvSend::maybe_complete() {
  // Completion requires every chunk acked AND no write still queued in the
  // transmit pipeline: the fabric copies out of the source buffer when a
  // write drains, so returning control (and buffer ownership) to the
  // application earlier would let it scribble over bytes a duplicate
  // retransmission has yet to pick up. Once the last local CQE is in, any
  // still-undelivered duplicate already carries its final bytes.
  if (acked_count_ != plan_.count) return false;
  for (std::size_t i = 0; i < plan_.count; ++i) {
    if (inflight_[i] != 0) return false;
  }
  complete_transfer();
  return true;
}

void RndvSend::maybe_release_slot(std::size_t i) {
  // A staging slot may only return to the pool once the chunk is acked AND
  // no posted write still references it — the fabric copies out of the
  // buffer when the transmit drains, so releasing under an in-flight
  // (possibly retransmitted) write would hand its memory to another
  // transfer mid-read.
  if (slots_[i].valid() && acked_[i] && inflight_[i] == 0) {
    sched_release(res_, req_id_, slots_[i]);
  }
}

bool RndvSend::on_rdma_complete(std::uint64_t wr_id) {
  auto it = wr_to_chunk_.find(wr_id);
  if (it == wr_to_chunk_.end()) return false;
  const std::size_t i = it->second;
  wr_to_chunk_.erase(it);
  --inflight_[i];
  // Deliberately NO note_progress(): a local transmit completion is our own
  // event, not evidence the peer is alive — retransmitted writes would
  // otherwise keep resetting the retry budget forever. Budget refresh comes
  // only from receipts (CTS, acks, RTS_ACK).
  maybe_release_slot(i);
  if (!complete_ && !failed_ && maybe_complete()) return true;
  advance();
  return true;
}

bool RndvSend::on_rdma_error(std::uint64_t wr_id) {
  auto it = wr_to_chunk_.find(wr_id);
  if (it == wr_to_chunk_.end()) return false;
  const std::size_t i = it->second;
  wr_to_chunk_.erase(it);
  --inflight_[i];
  if (complete_ || failed_ || acked_[i]) {
    // A stale duplicate failed; the chunk already made it.
    maybe_release_slot(i);
    if (!complete_ && !failed_) maybe_complete();
    return true;
  }
  if (++write_errors_[i] > res_.tun->rndv_max_retries) {
    fail("RDMA write for chunk " + std::to_string(i) + " of rendezvous " +
         std::to_string(req_id_) + " failed " +
         std::to_string(write_errors_[i]) + " times");
    return true;
  }
  ++res_.retries->error_retransmits;
  trace_event("fault_error_retransmit");
  post_chunk_rdma(i, /*retransmit=*/true);
  return true;
}

void RndvSend::complete_transfer() {
  complete_ = true;
  res_.net->note_success(dst_);  // failover health: the path delivered
  for (std::size_t i = 0; i < plan_.count; ++i) {
    if (!slots_[i].valid()) continue;
    if (inflight_[i] > 0) {
      // A duplicate write still sits in the transmit pipeline and will read
      // this buffer at drain time; park it until the rank tears down.
      res_.slot_graveyard->push_back(std::move(slots_[i]));
      slots_[i] = detail::StagingSlot{};
    } else {
      sched_release(res_, req_id_, slots_[i]);
    }
  }
  // Holds no pool slots and asks for none: out of the QoS head count (a
  // direct-mode SEND_DONE handshake may still be running; it needs no
  // staging resources).
  res_.sched->unregister_transfer(req_id_);
  if (tbuf_ != nullptr) {
    // Safe even on the IPC path, where peer copies read the tbuf directly:
    // maybe_complete() required every inflight write's local CQE, and the
    // channel copies the bytes out when the transmit drains — before the
    // CQE is delivered.
    res_.cuda->free(tbuf_);
    tbuf_ = nullptr;
  }
  if (ipc_mapped_) {
    res_.cuda->ipc_close_mem_handle(direct_base_);
    ipc_mapped_ = false;
  }
  if (cts_received_) {
    // Tell the receiver no retransmission can follow, releasing its
    // retained landing slots (and, in direct mode, its request).
    done_.kind = kSendDone;
    done_.header[0] = peer_req_;
    post_ctrl(done_);
  }
  // Direct mode is the one landing where the peer's request hinges on the
  // SEND_DONE (see RndvRecv::request_complete): keep the timer running and
  // retransmit it until the receiver's SEND_DONE_ACK. Everywhere else the
  // message is a best-effort courtesy — the receiver's own watchdog
  // reclaims its state if it is lost — and the receiver is not guaranteed
  // to still be polling, so retransmitting could never terminate.
  done_owed_ = cts_received_ && mode_ == CtsMode::kDirect;
  if (done_owed_) {
    retries_ = 0;
    arm_timer();
  } else {
    timer_.cancel();
  }
}

void RndvSend::fail(const std::string& reason) {
  res_.net->note_failure(dst_);  // failover health: retry budget exhausted
  ++res_.retries->transfer_failures;
  trace_event("fault_transfer_failed");
  if (cts_received_) {
    // Best effort: a matched receiver fails immediately instead of waiting
    // out its watchdog. If this is lost the watchdog still bounds the wait.
    netsim::WireMessage abort;
    abort.kind = kSendAbort;
    abort.header[0] = peer_req_;
    post_ctrl(std::move(abort));
    trace_event("fault_send_abort");
  }
  abandon(reason);
}

void RndvSend::cancel(const std::string& reason) {
  if (failed_ || (done() && drained())) return;
  trace_event("fault_send_canceled");
  // Retraction, best effort but always sent: a canceled send whose RTS is
  // parked unmatched in the peer's unexpected queue would otherwise be
  // re-acked on every retransmission, resetting our retry budget forever
  // (the ack legitimately means "handshake alive" for a receiver that just
  // has not posted yet). header[1] carries our request id so the peer can
  // purge the parked RTS even though it never assigned a receiver id.
  netsim::WireMessage abort;
  abort.kind = kSendAbort;
  abort.header[0] = peer_req_;  // 0 until a CTS arrived
  abort.header[1] = req_id_;
  post_ctrl(std::move(abort));
  abandon(reason);
}

// Shared terminal path of fail() and cancel(): mark failed, stop the
// watchdog, and dispose of staging state safely against late writes.
void RndvSend::abandon(const std::string& reason) {
  failed_ = true;
  error_ = reason;
  timer_.cancel();
  for (std::size_t i = 0; i < plan_.count; ++i) {
    if (!slots_[i].valid()) continue;
    if (inflight_[i] > 0) {
      res_.slot_graveyard->push_back(std::move(slots_[i]));
      slots_[i] = detail::StagingSlot{};
    } else {
      sched_release(res_, req_id_, slots_[i]);
    }
  }
  if (tbuf_ != nullptr && stages_.wire == SendStages::Wire::kTbuf) {
    // IPC peer copies read the device tbuf at drain time; a queued write of
    // this failed transfer may still reference it. Park it like a host slot.
    bool writes_queued = false;
    for (int n : inflight_) writes_queued = writes_queued || n > 0;
    if (writes_queued) {
      detail::StagingSlot park;
      park.ptr = tbuf_;
      park.device_owner = res_.cuda;
      res_.slot_graveyard->push_back(park);
      tbuf_ = nullptr;
    }
  }
  if (ipc_mapped_) {
    res_.cuda->ipc_close_mem_handle(direct_base_);
    ipc_mapped_ = false;
  }
  res_.sched->unregister_transfer(req_id_);
}

// ===========================================================================
// RndvRecv
// ===========================================================================

RndvRecv::RndvRecv(RankResources& res, MsgView msg, int src_node,
                   std::uint64_t sender_req, std::uint64_t my_req_id,
                   std::size_t incoming_bytes, std::size_t sender_chunk)
    : res_(res),
      msg_(std::move(msg)),
      src_(src_node),
      sender_req_(sender_req),
      req_id_(my_req_id),
      timer_(*res.engine) {
  // Chunking is sender-driven (carried in the RTS), so both ends slice the
  // packed stream identically.
  plan_ = ChunkPlan::make(incoming_bytes, sender_chunk);
  stages_ = recv_stages(res_, msg_,
                        msg_.on_device && res_.net->device_direct(src_node),
                        incoming_bytes, plan_.chunk);
  if (stages_.unpack == RecvStages::Unpack::kCpu && msg_.packed_bytes > 0) {
    cursors_ = msg_.plan->chunk_cursors(plan_.chunk);
  }
  chunks_.resize(plan_.count);
  acks_.resize(plan_.count);
  drained_chunk_.assign(plan_.count, false);
  res_.sched->register_transfer(req_id_);
}

RndvRecv::~RndvRecv() {
  // Destructors must not throw, even when tearing down a transfer that an
  // engine abort interrupted mid-flight.
  try {
    timer_.cancel();
    res_.sched->unregister_transfer(req_id_);
    if (rtbuf_ != nullptr) {
      res_.cuda->free(rtbuf_);
      rtbuf_ = nullptr;
    }
    for (auto& s : slots_) detail::release_slot(*res_.vbufs, s);
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

void RndvRecv::trace_event(const char* category) {
  res_.trace->event(res_.rank, category, res_.engine->now());
}

void RndvRecv::post_ctrl(netsim::WireMessage msg) {
  msg.seq = ctrl_seq_++;
  res_.sched->note_ctrl(msg.kind);
  res_.net->post_send(src_, std::move(msg));
}

void RndvRecv::arm_timer() {
  armed_epoch_ = progress_epoch_;
  const sim::SimTime at =
      backoff_deadline(*res_.tun, retries_, res_.engine->now());
  sim::Notifier* n = res_.notifier;
  timer_.arm(at, [n] { n->notify(); });
}

void RndvRecv::handle_timeout() {
  if (progress_epoch_ != armed_epoch_) {
    // Something arrived (or local staging moved) since the deadline was
    // armed: the transfer is alive, restore the budget.
    retries_ = 0;
    arm_timer();
    return;
  }
  ++retries_;
  ++res_.retries->timeouts;
  trace_event("fault_timeout");
  // Twice the sender's budget: a struggling-but-alive sender always outlasts
  // this watchdog (its retransmissions keep moving our epoch), and when it
  // fails its best-effort SEND_ABORT deterministically beats our expiry.
  if (retries_ > res_.tun->rndv_max_retries * 2) {
    if (completed_ == plan_.count) {
      // Payload fully landed; only the SEND_DONE never made it. The sender
      // is done or dead either way — reclaim without it.
      force_drain();
    } else {
      fail("rendezvous " + std::to_string(req_id_) + " from rank " +
           std::to_string(src_) + ": sender went silent with payload "
           "incomplete");
    }
    return;
  }
  arm_timer();
}

void RndvRecv::force_drain() {
  send_done_ = true;
  timer_.cancel();
  // Failover health: the payload made it, but the peer went silent before
  // closing the handshake — count it against the path.
  res_.net->note_failure(src_);
  // Safe to recycle rather than park in the graveyard: the silence that got
  // us here spans the entire backoff budget, orders of magnitude beyond any
  // delivery latency plus jitter, so no write posted by the sender can
  // still be queued against these addresses.
  for (auto& s : slots_) sched_release(res_, req_id_, s);
  res_.sched->unregister_transfer(req_id_);
  ++res_.retries->force_drains;
  trace_event("fault_force_drain");
}

void RndvRecv::fail(const std::string& reason) {
  res_.net->note_failure(src_);  // failover health
  ++res_.retries->transfer_failures;
  trace_event("fault_transfer_failed");
  abandon(reason);
}

void RndvRecv::cancel(const std::string& reason) {
  if (failed_) return;
  trace_event("fault_recv_canceled");
  // No retraction message exists for a receiver; the peer's own abort (it
  // cancels its matching send, or its COLL_ABORT wave arrives) or its
  // retry budget bounds the sender side.
  abandon(reason);
}

// Shared terminal path of fail() and cancel().
void RndvRecv::abandon(const std::string& reason) {
  failed_ = true;
  error_ = reason;
  timer_.cancel();
  for (auto& s : slots_) {
    if (!s.valid()) continue;
    // The sender may still have writes queued against these addresses;
    // park them until the rank tears down.
    res_.slot_graveyard->push_back(std::move(s));
    s = detail::StagingSlot{};
  }
  if (rtbuf_ != nullptr) {
    // Same hazard in device memory: the co-located sender's peer copies
    // target the rtbuf through its IPC mapping, and a queued duplicate may
    // still drain after this failure. Park it for teardown-time cudaFree.
    detail::StagingSlot park;
    park.ptr = rtbuf_;
    park.device_owner = res_.cuda;
    res_.slot_graveyard->push_back(park);
    rtbuf_ = nullptr;
  }
  res_.sched->unregister_transfer(req_id_);
}

void RndvRecv::start() {
  build_graph();
  // Liveness watchdog. From here on the sender is actively driving the
  // transfer (or retransmitting), so every receipt moves our epoch;
  // sustained total silence for the whole backoff budget means the sender
  // failed or the path died, and the receive must resolve bounded instead
  // of tripping the engine's deadlock detector.
  arm_timer();
  cts_.kind = kCts;
  cts_.header[0] = sender_req_;
  cts_.header[1] = req_id_;
  if (stages_.unpack == RecvStages::Unpack::kDeviceKernel) {
    // The device unpack scatters out of a reassembly buffer: the landing
    // itself (intra-node), or the target of the H2D stage.
    rtbuf_ = static_cast<std::byte*>(res_.cuda->malloc(plan_.total));
  }
  if (direct_landing()) {
    cts_.header[2] = static_cast<std::uint64_t>(CtsMode::kDirect);
    cts_.header[3] = 1;
    if (msg_.on_device) {
      // Device-direct landing: export an IPC handle for the landing buffer
      // instead of an address. The co-located sender opens the handle and
      // peer-copies straight in.
      std::byte* landing =
          stages_.landing == RecvStages::Landing::kDeviceBuffer
              ? rtbuf_
              : static_cast<std::byte*>(msg_.base);
      cts_.header[4] = 1;  // payload carries an IPC handle, not an address
      append_ipc_handle(cts_.payload, res_.cuda->ipc_get_mem_handle(landing));
    } else {
      append_address(cts_.payload, msg_.base);
    }
    cts_sent_ = true;
    post_ctrl(cts_);
    return;
  }
  // Advertise a window of landing slots. The first slot falls back to a
  // pinned one-off buffer when the pool is drained, so a CTS can always be
  // sent (guaranteed progress). Beyond the first slot, a receive window
  // may only use the pool while at least half of it stays free — landing
  // windows of concurrent receives must not starve the send side (which
  // would close a circular wait across ranks).
  const std::size_t want = std::min<std::size_t>(plan_.count,
                                                 res_.tun->recv_window);
  for (std::size_t i = 0; i < want; ++i) {
    detail::StagingSlot s;
    const bool pool_allowed =
        (i == 0) || res_.vbufs->available() * 2 > res_.vbufs->capacity();
    if (pool_allowed) {
      // The first slot bypasses the fairness gate: a CTS must always go
      // out (guaranteed progress), and the reserve carved out for this
      // transfer covers it anyway.
      s = sched_acquire(res_, req_id_, plan_.chunk, /*gated=*/i != 0);
    }
    if (!s.valid()) {
      if (i == 0) s = detail::pinned_slot(*res_.cuda, plan_.chunk);
      else break;
    }
    slots_.push_back(std::move(s));
  }
  // The window is advertised exactly once — a denial above must not leave
  // a stale fairness turn queued (this receiver will never re-ask).
  res_.sched->withdraw(req_id_);
  cts_.header[2] = static_cast<std::uint64_t>(CtsMode::kStaged);
  cts_.header[3] = slots_.size();
  for (const auto& s : slots_) append_address(cts_.payload, s.ptr);
  slots_advertised_ = slots_.size();
  cts_sent_ = true;
  post_ctrl(cts_);
}

void RndvRecv::on_duplicate_rts() {
  note_progress();  // the sender is alive and probing
  if (cts_sent_) {
    post_ctrl(cts_);
    ++res_.retries->cts_resent;
    trace_event("fault_cts_resent");
  }
}

void RndvRecv::on_chunk_fin(const netsim::WireMessage& m) {
  const std::size_t idx = m.header[1];
  if (idx >= plan_.count) throw std::logic_error("RndvRecv: bad chunk index");
  note_progress();  // any fin — duplicate included — proves sender liveness
  if (chunks_[idx].arrived) {
    // Retransmitted write for a chunk we already have. If we already
    // drained (and acked) it, the ack was evidently lost: replay it. If it
    // is still in the pipeline, the pending ack will cover it.
    if (drained_chunk_[idx]) {
      resend_ack(idx);
    } else {
      ++res_.retries->duplicates_dropped;
    }
    return;
  }
  if (m.header[3] != plan_.offset_of(idx) ||
      m.header[4] != plan_.bytes_of(idx)) {
    throw std::logic_error("RndvRecv: chunk geometry mismatch");
  }
  if (!direct_landing() && m.header[2] >= slots_.size()) {
    throw std::logic_error("RndvRecv: chunk fin names unknown slot");
  }
  chunks_[idx].arrived = true;
  chunks_[idx].ecn = m.ecn;  // remember the mark until the ack echoes it
  chunks_[idx].slot = m.header[2];
  advance();
}

void RndvRecv::ack_chunk(std::size_t chunk_idx) {
  netsim::WireMessage ack;
  ack.kind = kChunkAck;
  ack.header[0] = sender_req_;
  ack.header[1] = chunk_idx;
  ack.header[2] = kNoSlot;
  ack.header[4] = chunks_[chunk_idx].ecn ? 1 : 0;  // ECN echo
  if (!direct_landing() && slots_advertised_ < plan_.count) {
    // Re-advertise the drained slot (the paper's CREDIT), fused onto the
    // ack so it shares the same retransmission recovery.
    const std::uint64_t slot_idx = chunks_[chunk_idx].slot;
    ack.header[2] = slot_idx;
    ack.header[3] = credit_seq_++;
    append_address(ack.payload, slots_[slot_idx].ptr);
    ++slots_advertised_;
  }
  drained_chunk_[chunk_idx] = true;
  acks_[chunk_idx] = ack;
  note_progress();  // local drain progress keeps the watchdog quiet
  post_ctrl(std::move(ack));
}

void RndvRecv::resend_ack(std::size_t chunk_idx) {
  post_ctrl(acks_[chunk_idx]);
  ++res_.retries->acks_resent;
  trace_event("fault_ack_resent");
}

void RndvRecv::on_send_done() {
  note_progress();
  if (send_done_) {
    ++res_.retries->duplicates_dropped;
  } else {
    send_done_ = true;
    res_.net->note_success(src_);  // failover health: full round trip closed
    // Every chunk is acked at the sender: no retransmitted write can target
    // these slots any more, so they may finally return to the pool.
    for (auto& s : slots_) sched_release(res_, req_id_, s);
    res_.sched->unregister_transfer(req_id_);
  }
  if (direct_landing()) {
    // The sender retransmits its SEND_DONE until we confirm (our request
    // hinges on it, so it must be reliable). Reply to duplicates too: the
    // retransmission means our previous ack was lost.
    netsim::WireMessage ack;
    ack.kind = kSendDoneAck;
    ack.header[0] = sender_req_;
    post_ctrl(std::move(ack));
  }
  if (drained()) timer_.cancel();
  advance();
}

void RndvRecv::on_send_abort() {
  note_progress();
  if (failed_ || send_done_) {
    ++res_.retries->duplicates_dropped;
    return;
  }
  if (completed_ == plan_.count) {
    // Everything already landed and unpacked; the sender merely never
    // learned it. The data is good — drain, don't fail.
    force_drain();
    return;
  }
  fail("rendezvous " + std::to_string(req_id_) + " from rank " +
       std::to_string(src_) + ": sender aborted the transfer");
}

bool RndvRecv::request_complete() const {
  if (failed_) return false;
  if (stages_.landing == RecvStages::Landing::kUser) {
    // Direct landings go straight into the user buffer, which the
    // application owns again (or may have freed) the moment the request
    // completes. A duplicate write retransmitted because its CHUNK_ACK was
    // lost could drain afterwards and overwrite whatever the application
    // put there — so completion additionally waits for the sender's
    // (reliable, acked) SEND_DONE, the proof that nothing can still drain.
    // The watchdog's force_drain bounds the wait if the sender died.
    // (A device reassembly buffer is exempt: duplicates land in the
    // protocol-owned rtbuf, which outlives the request.)
    return completed_ == plan_.count && send_done_;
  }
  return completed_ == plan_.count;
}

bool RndvRecv::drained() const {
  if (failed_) return true;  // slots already parked in the graveyard
  return completed_ == plan_.count && send_done_;
}

void RndvRecv::build_graph() {
  graph_.clear();
  // H2D frontier: feeds the copy engine in chunk order as chunks land.
  if (stages_.h2d != RecvStages::H2D::kNone) {
    const int h2d = graph_.add_chain(TriggerGraph::ChainKind::kFrontier);
    for (std::size_t i = 0; i < plan_.count; ++i) {
      graph_.add_node(h2d, [this, i] { return chunks_[i].arrived; },
                      [this, i] { submit_h2d(i); });
    }
  }
  // Drain chain: the unpack (if any) frees the landing and acks the chunk.
  // Staged drains run in chunk order (each one is queued behind the last
  // on its engine); a bare direct landing has nothing to order — chunks
  // land unordered and are acked as they arrive, hence a sparse sweep.
  const bool bare = stages_.h2d == RecvStages::H2D::kNone &&
                    stages_.unpack == RecvStages::Unpack::kNone;
  const int drain = graph_.add_chain(bare ? TriggerGraph::ChainKind::kSparse
                                          : TriggerGraph::ChainKind::kFrontier);
  for (std::size_t i = 0; i < plan_.count; ++i) {
    graph_.add_node(drain, [this, i] { return staged_in(i); },
                    [this, i] { drain_chunk(i); });
  }
  if (stages_.unpack != RecvStages::Unpack::kDeviceKernel) return;
  // Device unpacks complete as each kernel's event drains.
  const int done = graph_.add_chain(TriggerGraph::ChainKind::kFrontier);
  for (std::size_t i = 0; i < plan_.count; ++i) {
    graph_.add_node(done,
                    [this, i] {
                      return chunks_[i].unpack_submitted &&
                             chunks_[i].unpack_done.query();
                    },
                    [this] { ++completed_; });
  }
  // A staged landing's rtbuf is private: free it once the last unpack
  // drained. A device landing buffer is deliberately NOT freed here: a
  // duplicate peer copy (retransmitted because its ack was lost) may still
  // be queued against it, so it lives until the transfer object tears down
  // (destructor) or is parked in the graveyard (fail()).
  if (stages_.landing == RecvStages::Landing::kSlots) {
    graph_.set_epilogue(done, [this] {
      if (completed_ == plan_.count && rtbuf_ != nullptr) {
        res_.cuda->free(rtbuf_);
        rtbuf_ = nullptr;
      }
    });
  }
}

bool RndvRecv::staged_in(std::size_t i) const {
  const ChunkState& c = chunks_[i];
  if (stages_.h2d == RecvStages::H2D::kNone) return c.arrived;
  return c.h2d_submitted && c.h2d_done.query();
}

void RndvRecv::submit_h2d(std::size_t i) {
  const std::size_t off = plan_.offset_of(i);
  const std::size_t bytes = plan_.bytes_of(i);
  const std::byte* slot = slots_[chunks_[i].slot].ptr;
  ChunkState& c = chunks_[i];
  if (stages_.h2d == RecvStages::H2D::kPcieStrided) {
    c.h2d_done = submit_pcie_unpack_from_host(*res_.cuda, res_.h2d_stream,
                                              msg_, off, bytes, slot);
  } else {
    // Into the device unpack's rtbuf, or straight into a contiguous user
    // buffer.
    std::byte* dst = stages_.unpack == RecvStages::Unpack::kDeviceKernel
                         ? rtbuf_
                         : static_cast<std::byte*>(msg_.base);
    res_.cuda->memcpy_async(dst + off, slot, bytes,
                            cusim::MemcpyKind::kHostToDevice, res_.h2d_stream);
    c.h2d_done = res_.cuda->record_event(res_.h2d_stream);
  }
  c.h2d_submitted = true;
}

void RndvRecv::drain_chunk(std::size_t i) {
  const std::size_t off = plan_.offset_of(i);
  const std::size_t bytes = plan_.bytes_of(i);
  switch (stages_.unpack) {
    case RecvStages::Unpack::kDeviceKernel:
      // D2D c2nc out of the rtbuf. The landing (host slot or device
      // buffer) drains — ack — as soon as the kernel is queued; the chunk
      // completes when it ran (the done chain).
      chunks_[i].unpack_done = submit_device_unpack(
          *res_.cuda, res_.unpack_stream, msg_, off, bytes, rtbuf_ + off);
      chunks_[i].unpack_submitted = true;
      ack_chunk(i);
      return;
    case RecvStages::Unpack::kCpu: {
      // CPU unpack straight from the landing slot; it charges host time.
      const std::byte* slot = slots_[chunks_[i].slot].ptr;
      res_.engine->delay(res_.tun->host_pack_time(
          bytes, chunk_segments(msg_, cursors_.get(), i, off, bytes)));
      if (cursors_ && i < cursors_->count && off == i * cursors_->chunk) {
        msg_.dtype.unpack_bytes_from(cursors_->cursors[i], slot, msg_.count,
                                     bytes, msg_.base);
      } else {
        msg_.dtype.unpack_bytes(slot, msg_.count, off, bytes, msg_.base);
      }
      break;
    }
    case RecvStages::Unpack::kNone:
      break;  // the bytes already sit in the user buffer
  }
  ack_chunk(i);
  ++completed_;
}

void RndvRecv::advance() {
  if (!failed_ && !drained() && timer_.fired()) handle_timeout();
  if (failed_) return;
  graph_.fire();
}

}  // namespace mv2gnc::core
