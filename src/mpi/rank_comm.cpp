#include "mpi/rank_comm.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/gpu_staging.hpp"
#include "core/protocol.hpp"
#include "mpi/coll.hpp"

namespace mv2gnc::mpisim::detail {

namespace {

std::uint64_t encode_envelope(int context, int tag) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(context))
          << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
}

int decode_tag(std::uint64_t word) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(word));
}

int decode_context(std::uint64_t word) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(word >> 32));
}

}  // namespace

RankComm::RankComm(int rank, int size, sim::Engine& engine,
                   cusim::CudaContext& cuda, core::TransportRouter& net,
                   gpu::MemoryRegistry& registry, const core::Tunables& tun,
                   sim::TraceRecorder* trace)
    : rank_(rank),
      size_(size),
      engine_(engine),
      registry_(registry),
      vbuf_pool_(tun.vbuf_count, tun.chunk_bytes),
      notifier_(engine),
      sched_(engine, vbuf_pool_, tun),
      crash_timer_(engine) {
  // vbufs model MVAPICH2's pre-registered (pinned) staging pool.
  registry.register_pinned_host(vbuf_pool_.arena(), vbuf_pool_.arena_bytes());
  res_.engine = &engine;
  res_.cuda = &cuda;
  res_.net = &net;
  res_.vbufs = &vbuf_pool_;
  res_.tun = &tun;
  res_.pack_stream = cuda.create_stream();
  res_.d2h_stream = cuda.create_stream();
  res_.h2d_stream = cuda.create_stream();
  res_.unpack_stream = cuda.create_stream();
  res_.pack_stream.set_wakeup(&notifier_);
  res_.d2h_stream.set_wakeup(&notifier_);
  res_.h2d_stream.set_wakeup(&notifier_);
  res_.unpack_stream.set_wakeup(&notifier_);
  net.set_wakeup(&notifier_);
  res_.notifier = &notifier_;
  res_.retries = &retry_stats_;
  res_.trace = trace;
  res_.rank = rank;
  res_.slot_graveyard = &slot_graveyard_;
  res_.sched = &sched_;
  auto wg = std::make_shared<CommGroup>();
  wg->context = 0;
  wg->world.resize(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) wg->world[static_cast<std::size_t>(i)] = i;
  wg->my_rank = rank;
  world_group_ = std::move(wg);
  coll_ = std::make_unique<CollEngine>(*this);
}

RankComm::~RankComm() {
  // By destruction time the engine has drained every event, so no RDMA
  // write can still reference a surrendered slot.
  for (auto& s : slot_graveyard_) core::detail::release_slot(vbuf_pool_, s);
  slot_graveyard_.clear();
  registry_.unregister_pinned_host(vbuf_pool_.arena());
}

// ---------------------------------------------------------------------------
// Posting
// ---------------------------------------------------------------------------

Request RankComm::isend(const void* buf, int count, const Datatype& dtype,
                        int dst, int tag, int context,
                        cusim::Event data_gate) {
  if (dst < 0 || dst >= size_) {
    throw std::invalid_argument("isend: bad destination rank " +
                                std::to_string(dst));
  }
  auto state = std::make_shared<ReqState>();
  state->id = next_req_id();
  state->view = core::MsgView::make(const_cast<void*>(buf), count, dtype,
                                    registry_);
  const core::MsgView& view = state->view;
  const core::Tunables& tun = *res_.tun;

  if (view.packed_bytes <= tun.eager_threshold) {
    // Eager packs the user buffer synchronously: wait out a pending gate.
    if (data_gate.valid()) data_gate.synchronize();
    netsim::WireMessage m;
    m.kind = core::kEager;
    m.header[0] = encode_envelope(context, tag);
    m.header[1] = view.packed_bytes;
    m.payload.resize(view.packed_bytes);
    if (view.packed_bytes > 0) {
      if (view.on_device) {
        core::stage_to_host_any(
            *res_.cuda, core::pack_scheme(res_, view, view.packed_bytes),
            view, m.payload.data(), view.packed_bytes);
      } else if (view.contiguous) {
        std::memcpy(m.payload.data(), view.base, view.packed_bytes);
      } else {
        engine_.delay(tun.host_pack_time(
            view.packed_bytes, view.dtype.total_segments(view.count)));
        view.dtype.pack(view.base, view.count, m.payload.data());
      }
    }
    sched_.note_ctrl(core::kEager);
    res_.net->post_send(dst, std::move(m));
    state->complete = true;  // buffered send: the payload holds a copy
    return Request(std::move(state));
  }

  state->rndv_send =
      std::make_shared<core::RndvSend>(res_, view, dst, state->id);
  if (data_gate.valid()) state->rndv_send->set_data_gate(std::move(data_gate));
  active_sends_.emplace(state->id, state);
  state->rndv_send->start(encode_envelope(context, tag));
  return Request(std::move(state));
}

Request RankComm::irecv(void* buf, int count, const Datatype& dtype, int src,
                        int tag, int context) {
  if (src != kAnySource && (src < 0 || src >= size_)) {
    throw std::invalid_argument("irecv: bad source rank " +
                                std::to_string(src));
  }
  auto state = std::make_shared<ReqState>();
  state->id = next_req_id();
  state->is_recv = true;
  state->view = core::MsgView::make(buf, count, dtype, registry_);
  state->src_filter = src;
  state->tag_filter = tag;
  state->context = context;

  // Unexpected-queue scan first (FIFO).
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (it->context != context) continue;
    const bool src_ok = (src == kAnySource) || (src == it->src);
    const bool tag_ok = (tag == kAnyTag) ? (it->tag >= 0) : (tag == it->tag);
    if (!src_ok || !tag_ok) continue;
    UnexpectedMsg m = std::move(*it);
    unexpected_.erase(it);
    if (m.is_rts) {
      begin_rndv_recv(state, m.src, m.tag, m.bytes, m.sender_req,
                      m.sender_chunk);
    } else {
      deliver_eager(*state, m.src, m.tag, m.payload);
    }
    return Request(std::move(state));
  }
  posted_recvs_.push_back(state);
  return Request(std::move(state));
}

// ---------------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------------

void RankComm::wait(Request& req, Status* status) {
  if (!req.valid()) throw std::invalid_argument("wait: null request");
  ReqState& s = *req.state_;
  while (!s.complete) {
    progress_once();
    if (s.complete) break;
    notifier_.wait("MPI progress (rank " + std::to_string(rank_) + ")");
  }
  if (s.failed) throw RequestError(s.error);
  if (status != nullptr && s.is_recv) *status = s.status;
}

bool RankComm::test(Request& req, Status* status) {
  if (!req.valid()) throw std::invalid_argument("test: null request");
  progress_once();
  ReqState& s = *req.state_;
  if (!s.complete) return false;
  if (s.failed) throw RequestError(s.error);
  if (status != nullptr && s.is_recv) *status = s.status;
  return true;
}

void RankComm::cancel_request(Request& req) {
  if (!req.valid()) return;
  ReqState& s = *req.state_;
  if (s.complete) return;
  static const std::string kReason = "canceled: collective aborted";
  if (s.is_recv) {
    // A posted-but-unmatched receive is purely local: withdraw it.
    for (auto it = posted_recvs_.begin(); it != posted_recvs_.end(); ++it) {
      if (it->get() == &s) {
        posted_recvs_.erase(it);
        s.failed = true;
        s.error = kReason;
        s.complete = true;
        return;
      }
    }
    if (auto it = active_recvs_.find(s.id); it != active_recvs_.end()) {
      it->second->rndv_recv->cancel(kReason);
      sweep_transfers();
    }
    return;
  }
  // Eager sends complete at post time and were filtered above; only an
  // in-flight rendezvous send can still be open.
  if (auto it = active_sends_.find(s.id); it != active_sends_.end()) {
    it->second->rndv_send->cancel(kReason);
    sweep_transfers();
  }
}

void RankComm::drain_pending() {
  const auto obligations = [this] {
    return !active_sends_.empty() || !active_recvs_.empty() ||
           !draining_recvs_.empty();
  };
  while (true) {
    progress_once();
    if (!obligations()) return;
    notifier_.wait("MPI finalize drain (rank " + std::to_string(rank_) +
                   ")");
  }
}

// ---------------------------------------------------------------------------
// Process faults / collective abort
// ---------------------------------------------------------------------------

void RankComm::set_crash_time(sim::SimTime t) {
  crash_at_ = t;
  // Wake-up only: the crash itself happens at the next progress entry, so
  // a rank blocked in notifier_.wait still dies on schedule.
  crash_timer_.arm(t, [this] { notifier_.notify(); });
}

std::uint64_t RankComm::coll_begin(int context) {
  CollAbortState& st = coll_abort_[context];
  const std::uint64_t seq = st.started++;
  if (st.aborted && st.abort_seq <= seq) {
    throw RequestError(
        "collective #" + std::to_string(seq) + " on context " +
        std::to_string(context) + " aborted: an earlier collective failed " +
        "(origin rank " + std::to_string(st.origin) +
        ") and poisoned the context");
  }
  return seq;
}

void RankComm::coll_wait(Request& req, Status* status, int context,
                         std::uint64_t seq, sim::SimTime deadline) {
  if (!req.valid()) throw std::invalid_argument("coll_wait: null request");
  ReqState& s = *req.state_;
  const auto abort_check = [&] {
    const auto it = coll_abort_.find(context);
    if (it != coll_abort_.end() && it->second.aborted &&
        it->second.abort_seq <= seq) {
      throw CollAbortObserved{it->second.abort_seq, it->second.origin};
    }
  };
  // Liveness watchdog: guarantees a future wake-up, so a surviving rank
  // whose peer died (and whose abort wave was lost) resolves bounded
  // instead of tripping the engine's deadlock detector. RAII: canceled on
  // every exit path, and a canceled timer is skipped without advancing the
  // virtual clock, so fault-free runs stay bit-exact.
  sim::DeadlineTimer watchdog(engine_);
  watchdog.arm(deadline, [this] { notifier_.notify(); });
  while (!s.complete) {
    abort_check();
    progress_once();
    if (s.complete) break;
    if (engine_.now() >= deadline) throw CollWatchdogExpired{};
    notifier_.wait("collective progress (rank " + std::to_string(rank_) +
                   ")");
  }
  abort_check();
  if (s.failed) throw RequestError(s.error);
  if (status != nullptr && s.is_recv) *status = s.status;
}

void RankComm::coll_note_abort(int context, std::uint64_t seq, int origin) {
  CollAbortState& st = coll_abort_[context];
  if (!st.aborted || seq < st.abort_seq) {
    st.aborted = true;
    st.abort_seq = seq;
    st.origin = origin;
  }
}

void RankComm::coll_send_abort_wave(const CommGroup& g, std::uint64_t seq,
                                    int origin) {
  coll_note_abort(g.context, seq, origin);
  CollAbortState& st = coll_abort_[g.context];
  if (st.wave_sent) return;  // one wave per context is enough: state is sticky
  st.wave_sent = true;
  for (int i = 0; i < g.size(); ++i) {
    const int w = g.world[static_cast<std::size_t>(i)];
    if (w == rank_) continue;
    netsim::WireMessage m;
    m.kind = core::kCollAbort;
    m.header[0] =
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(g.context));
    m.header[1] = seq;
    m.header[2] =
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(origin));
    sched_.note_ctrl(core::kCollAbort);
    res_.net->post_send(w, std::move(m));
  }
}

void RankComm::park_scratch(std::vector<std::shared_ptr<void>> scratch) {
  for (auto& p : scratch) scratch_graveyard_.push_back(std::move(p));
}

// ---------------------------------------------------------------------------
// Progress engine
// ---------------------------------------------------------------------------

void RankComm::progress_once() {
  // Injected crash-stop: takes effect at the first progress entry at or
  // after the armed time (the crash timer wakes a blocked rank so this
  // check is always reached).
  if (crash_at_ >= 0 && engine_.now() >= crash_at_) throw RankCrashed{};
  // Injected stall: a seeded pause modeling OS noise / a late CPU. Both
  // knobs default to zero, in which case no RNG is drawn and fault-free
  // runs stay bit-exact.
  const core::Tunables& tun = *res_.tun;
  if (tun.rank_stall_prob > 0.0 && tun.rank_stall_ns > 0 &&
      engine_.rand_uniform() < tun.rank_stall_prob) {
    engine_.delay(static_cast<sim::SimTime>(engine_.rand_below(
        static_cast<std::uint64_t>(tun.rank_stall_ns) + 1)));
  }
  netsim::Completion c;
  while (res_.net->poll(c)) dispatch(c);
  sweep_transfers();
}

void RankComm::dispatch(const netsim::Completion& c) {
  // Completions for transfers that already completed or failed (stale
  // duplicates, writes raced by the ack that finished the transfer) find
  // no owner; they are dropped, never fatal — on a lossy fabric "late and
  // redundant" is the common case, not a protocol violation.
  switch (c.type) {
    case netsim::CqType::kSendComplete:
      return;  // control/eager transmit drained; nothing to do
    case netsim::CqType::kRdmaComplete: {
      for (auto& [id, state] : active_sends_) {
        if (state->rndv_send->on_rdma_complete(c.wr_id)) return;
      }
      return;  // owner completed/failed and was retired
    }
    case netsim::CqType::kError: {
      // Transport-level write failure (CqType::kError): the owning sender
      // retransmits the chunk out of its staging slot.
      for (auto& [id, state] : active_sends_) {
        if (state->rndv_send->on_rdma_error(c.wr_id)) return;
      }
      return;
    }
    case netsim::CqType::kRecv:
      break;
  }
  const netsim::WireMessage& m = c.msg;
  switch (m.kind) {
    case core::kEager:
      handle_eager(m);
      return;
    case core::kRts:
      handle_rts(m);
      return;
    case core::kCts: {
      auto it = active_sends_.find(m.header[0]);
      if (it == active_sends_.end()) {
        ++retry_stats_.duplicates_dropped;
        return;
      }
      it->second->rndv_send->on_cts(m);
      return;
    }
    case core::kChunkAck: {
      auto it = active_sends_.find(m.header[0]);
      if (it == active_sends_.end()) {
        ++retry_stats_.duplicates_dropped;
        return;
      }
      it->second->rndv_send->on_chunk_ack(m);
      return;
    }
    case core::kChunkFin: {
      if (auto it = active_recvs_.find(m.header[0]);
          it != active_recvs_.end()) {
        it->second->rndv_recv->on_chunk_fin(m);
      } else if (auto dit = draining_recvs_.find(m.header[0]);
                 dit != draining_recvs_.end()) {
        dit->second->on_chunk_fin(m);  // replays the stored ack
      } else {
        ++retry_stats_.duplicates_dropped;
      }
      return;
    }
    case core::kSendDone: {
      if (auto it = active_recvs_.find(m.header[0]);
          it != active_recvs_.end()) {
        it->second->rndv_recv->on_send_done();
      } else if (auto dit = draining_recvs_.find(m.header[0]);
                 dit != draining_recvs_.end()) {
        dit->second->on_send_done();
      } else if (auto fit = finished_recvs_.find(m.header[0]);
                 fit != finished_recvs_.end()) {
        // Collected direct-mode receiver: the sender is retransmitting its
        // SEND_DONE because our SEND_DONE_ACK was lost. Re-ack from the
        // retained record so the sender's handshake terminates.
        netsim::WireMessage ack;
        ack.kind = core::kSendDoneAck;
        ack.header[0] = fit->second.second;
        sched_.note_ctrl(core::kSendDoneAck);
        res_.net->post_send(fit->second.first, std::move(ack));
      } else {
        ++retry_stats_.duplicates_dropped;
      }
      return;
    }
    case core::kRtsAck: {
      auto it = active_sends_.find(m.header[0]);
      if (it == active_sends_.end()) {
        ++retry_stats_.duplicates_dropped;
        return;
      }
      it->second->rndv_send->on_rts_ack();
      return;
    }
    case core::kSendDoneAck: {
      auto it = active_sends_.find(m.header[0]);
      if (it == active_sends_.end()) {
        ++retry_stats_.duplicates_dropped;
        return;
      }
      it->second->rndv_send->on_send_done_ack();
      return;
    }
    case core::kSendAbort: {
      if (auto it = active_recvs_.find(m.header[0]);
          it != active_recvs_.end()) {
        it->second->rndv_recv->on_send_abort();
      } else if (auto dit = draining_recvs_.find(m.header[0]);
                 dit != draining_recvs_.end()) {
        dit->second->on_send_abort();
      } else if (m.header[1] != 0) {
        // Retraction from a canceled sender (RndvSend::cancel): no
        // receiver was ever assigned, but its RTS may be parked in the
        // unexpected queue. Purge it — otherwise every duplicate RTS
        // would be re-acked (keeping a dead handshake "alive"), and a
        // future receive on a reused tag could match a rendezvous whose
        // sender is gone.
        bool purged = false;
        for (auto uit = unexpected_.begin(); uit != unexpected_.end();
             ++uit) {
          if (uit->is_rts && uit->src == m.src_node &&
              uit->sender_req == m.header[1]) {
            unexpected_.erase(uit);
            purged = true;
            break;
          }
        }
        if (!purged) ++retry_stats_.duplicates_dropped;
      } else {
        ++retry_stats_.duplicates_dropped;
      }
      return;
    }
    case core::kCollAbort: {
      // COLL_ABORT wave: needs no matching — the abort state is sticky per
      // context and checked by every collective wait. Receipt is
      // idempotent (coll_note_abort keeps the earliest sequence).
      coll_note_abort(static_cast<int>(static_cast<std::int32_t>(
                          static_cast<std::uint32_t>(m.header[0]))),
                      m.header[1],
                      static_cast<int>(static_cast<std::int32_t>(
                          static_cast<std::uint32_t>(m.header[2]))));
      return;
    }
    default:
      throw std::logic_error("unknown wire message kind " +
                             std::to_string(m.kind));
  }
}

std::shared_ptr<ReqState> RankComm::match_posted(int src, int tag,
                                                 int context) {
  for (auto it = posted_recvs_.begin(); it != posted_recvs_.end(); ++it) {
    ReqState& r = **it;
    if (r.context != context) continue;
    const bool src_ok =
        (r.src_filter == kAnySource) || (r.src_filter == src);
    const bool tag_ok =
        (r.tag_filter == kAnyTag) ? (tag >= 0) : (r.tag_filter == tag);
    if (src_ok && tag_ok) {
      auto state = *it;
      posted_recvs_.erase(it);
      return state;
    }
  }
  return nullptr;
}

void RankComm::handle_eager(const netsim::WireMessage& m) {
  const int tag = decode_tag(m.header[0]);
  const int context = decode_context(m.header[0]);
  if (auto r = match_posted(m.src_node, tag, context)) {
    deliver_eager(*r, m.src_node, tag, m.payload);
    return;
  }
  UnexpectedMsg u;
  u.is_rts = false;
  u.src = m.src_node;
  u.tag = tag;
  u.context = context;
  u.bytes = m.header[1];
  u.payload = m.payload;
  unexpected_.push_back(std::move(u));
}

void RankComm::handle_rts(const netsim::WireMessage& m) {
  // Idempotent receipt: a retransmitted RTS for a transfer we already
  // track must not spawn a second receiver. The index answers with the
  // stored CTS, recovering a lost handshake leg.
  const auto key = std::make_pair(m.src_node, m.header[2]);
  if (auto it = rts_index_.find(key); it != rts_index_.end()) {
    it->second->on_duplicate_rts();
    return;
  }
  if (finished_rts_.find(key) != finished_rts_.end()) {
    // Very late duplicate of a transfer already garbage-collected. The
    // sender is long done (it only stops resending the RTS once answered),
    // so no reply is owed — just never spawn a second receiver.
    ++retry_stats_.duplicates_dropped;
    return;
  }
  for (const UnexpectedMsg& u : unexpected_) {
    if (u.is_rts && u.src == m.src_node && u.sender_req == m.header[2]) {
      ++retry_stats_.duplicates_dropped;  // original still queued unmatched
      return;
    }
  }
  const int tag = decode_tag(m.header[0]);
  const int context = decode_context(m.header[0]);
  if (auto r = match_posted(m.src_node, tag, context)) {
    begin_rndv_recv(r, m.src_node, tag, m.header[1], m.header[2],
                    m.header[3]);
    return;
  }
  UnexpectedMsg u;
  u.is_rts = true;
  u.src = m.src_node;
  u.tag = tag;
  u.context = context;
  u.bytes = m.header[1];
  u.sender_req = m.header[2];
  u.sender_chunk = m.header[3];
  unexpected_.push_back(std::move(u));
  // No matching receive yet — legal MPI may post it arbitrarily late. The
  // sender's retry budget is refreshed by the NIC-level delivery receipt
  // (kRtsAck, see Fabric::DeliveryReceipt), which fired the moment this
  // RTS landed in our CQ — even if this process had been busy computing
  // instead of polling. Nothing more to do here.
}

void RankComm::deliver_eager(ReqState& r, int src, int tag,
                             const std::vector<std::byte>& payload) {
  const core::MsgView& view = r.view;
  if (payload.size() > view.packed_bytes) {
    throw TruncationError("eager message of " +
                          std::to_string(payload.size()) +
                          " bytes truncates receive buffer of " +
                          std::to_string(view.packed_bytes));
  }
  const core::Tunables& tun = *res_.tun;
  if (!payload.empty()) {
    if (view.on_device) {
      core::stage_from_host_any(
          *res_.cuda, core::pack_scheme(res_, view, payload.size()), view,
          payload.data(), payload.size());
    } else if (view.contiguous) {
      std::memcpy(view.base, payload.data(), payload.size());
    } else {
      engine_.delay(tun.host_pack_time(
          payload.size(), view.dtype.total_segments(view.count)));
      view.dtype.unpack_bytes(payload.data(), view.count, 0, payload.size(),
                              view.base);
    }
  }
  r.status = Status{src, tag, payload.size()};
  r.complete = true;
}

void RankComm::begin_rndv_recv(const std::shared_ptr<ReqState>& r, int src,
                               int tag, std::size_t bytes,
                               std::uint64_t sender_req,
                               std::size_t sender_chunk) {
  if (bytes > r->view.packed_bytes) {
    throw TruncationError("rendezvous message of " + std::to_string(bytes) +
                          " bytes truncates receive buffer of " +
                          std::to_string(r->view.packed_bytes));
  }
  r->status = Status{src, tag, bytes};
  r->rndv_recv = std::make_shared<core::RndvRecv>(
      res_, r->view, src, sender_req, r->id, bytes, sender_chunk);
  active_recvs_.emplace(r->id, r);
  rts_index_.emplace(std::make_pair(src, sender_req), r->rndv_recv);
  r->rndv_recv->start();
}

void RankComm::sweep_transfers() {
  // advance() may complete transfers; collect then erase to keep iterators
  // valid.
  std::vector<std::uint64_t> done_sends;
  for (auto& [id, state] : active_sends_) {
    state->rndv_send->advance();
    if (state->rndv_send->failed()) {
      state->failed = true;
      state->error = state->rndv_send->error();
      state->complete = true;
      done_sends.push_back(id);
    } else if (state->rndv_send->done() && state->rndv_send->drained()) {
      // done() alone is not enough: a direct-mode sender still owes the
      // (acked) SEND_DONE, and retiring it would stop the retransmission
      // its peer's request completion hinges on.
      state->complete = true;
      done_sends.push_back(id);
    }
  }
  for (auto id : done_sends) {
    auto it = active_sends_.find(id);
    it->second->rndv_send.reset();
    active_sends_.erase(it);
  }
  std::vector<std::uint64_t> done_recvs;
  for (auto& [id, state] : active_recvs_) {
    state->rndv_recv->advance();
    if (state->rndv_recv->failed()) {
      state->failed = true;
      state->error = state->rndv_recv->error();
      state->complete = true;
      done_recvs.push_back(id);
    } else if (state->rndv_recv->request_complete()) {
      state->complete = true;
      done_recvs.push_back(id);
    }
  }
  for (auto id : done_recvs) {
    auto it = active_recvs_.find(id);
    auto recv = it->second->rndv_recv;
    it->second->rndv_recv.reset();
    active_recvs_.erase(it);
    // A resolved receiver may still owe protocol duties: retained landing
    // slots wait for SEND_DONE, the stored CTS and acks must stay
    // replayable. Park it in the draining map so control messages keep
    // finding it; once nothing remains, shrink it to its finished_* record.
    if (!recv->drained()) draining_recvs_.emplace(id, std::move(recv));
    else retire_recv(id, *recv);
  }
  std::vector<std::uint64_t> drained;
  for (auto& [id, recv] : draining_recvs_) {
    recv->advance();  // drives the liveness watchdog toward force_drain
    if (recv->drained()) drained.push_back(id);
  }
  for (auto id : drained) {
    auto it = draining_recvs_.find(id);
    retire_recv(id, *it->second);
    draining_recvs_.erase(it);
  }
}

void RankComm::retire_recv(std::uint64_t recv_req,
                           const core::RndvRecv& recv) {
  const auto key = std::make_pair(recv.src_node(), recv.sender_req());
  rts_index_.erase(key);
  finished_rts_.emplace(key, recv_req);
  finished_recvs_.emplace(recv_req, key);
}

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

bool RankComm::iprobe(int src, int tag, Status* status, int context) {
  progress_once();
  for (const UnexpectedMsg& m : unexpected_) {
    if (m.context != context) continue;
    const bool src_ok = (src == kAnySource) || (src == m.src);
    const bool tag_ok = (tag == kAnyTag) ? (m.tag >= 0) : (tag == m.tag);
    if (src_ok && tag_ok) {
      if (status != nullptr) *status = Status{m.src, m.tag, m.bytes};
      return true;
    }
  }
  return false;
}

void RankComm::probe(int src, int tag, Status* status, int context) {
  while (!iprobe(src, tag, status, context)) {
    notifier_.wait("MPI_Probe (rank " + std::to_string(rank_) + ")");
  }
}

// ---------------------------------------------------------------------------
// Explicit pack/unpack (GPU-aware)
// ---------------------------------------------------------------------------

void RankComm::pack(const void* inbuf, int count, const Datatype& dtype,
                    void* outbuf, std::size_t outsize,
                    std::size_t& position) {
  auto view =
      core::MsgView::make(const_cast<void*>(inbuf), count, dtype, registry_);
  if (position > outsize || view.packed_bytes > outsize - position) {
    throw std::invalid_argument("pack: output buffer too small");
  }
  auto* out = static_cast<std::byte*>(outbuf) + position;
  if (view.packed_bytes > 0) {
    if (view.on_device) {
      core::stage_to_host_any(
          *res_.cuda, core::pack_scheme(res_, view, view.packed_bytes), view,
          out, view.packed_bytes);
    } else {
      engine_.delay(res_.tun->host_pack_time(
          view.packed_bytes, view.dtype.total_segments(count)));
      dtype.pack(inbuf, count, out);
    }
  }
  position += view.packed_bytes;
}

void RankComm::unpack(const void* inbuf, std::size_t insize,
                      std::size_t& position, void* outbuf, int count,
                      const Datatype& dtype) {
  auto view = core::MsgView::make(outbuf, count, dtype, registry_);
  if (position > insize || view.packed_bytes > insize - position) {
    throw std::invalid_argument("unpack: input buffer exhausted");
  }
  const auto* in = static_cast<const std::byte*>(inbuf) + position;
  if (view.packed_bytes > 0) {
    if (view.on_device) {
      core::stage_from_host_any(
          *res_.cuda, core::pack_scheme(res_, view, view.packed_bytes), view,
          in, view.packed_bytes);
    } else {
      engine_.delay(res_.tun->host_pack_time(
          view.packed_bytes, view.dtype.total_segments(count)));
      dtype.unpack(in, count, outbuf);
    }
  }
  position += view.packed_bytes;
}

// ---------------------------------------------------------------------------
// Collectives (forwarders into the engine)
// ---------------------------------------------------------------------------

void RankComm::barrier(const CommGroup& g) { coll_->barrier(g); }

void RankComm::bcast(void* buf, int count, const Datatype& dtype, int root,
                     const CommGroup& g) {
  coll_->bcast(buf, count, dtype, root, g);
}

void RankComm::allreduce_doubles(const double* sendbuf, double* recvbuf,
                                 int count, bool take_max,
                                 const CommGroup& g) {
  coll_->allreduce_doubles(sendbuf, recvbuf, count, take_max, g);
}

void RankComm::allgather(const void* sendbuf, int count,
                         const Datatype& dtype, void* recvbuf,
                         const CommGroup& g) {
  coll_->allgather(sendbuf, count, dtype, recvbuf, g);
}

void RankComm::gather(const void* sendbuf, int count, const Datatype& dtype,
                      void* recvbuf, int root, const CommGroup& g) {
  coll_->gather(sendbuf, count, dtype, recvbuf, root, g);
}

void RankComm::scatter(const void* sendbuf, void* recvbuf, int count,
                       const Datatype& dtype, int root, const CommGroup& g) {
  coll_->scatter(sendbuf, recvbuf, count, dtype, root, g);
}

void RankComm::alltoall(const void* sendbuf, void* recvbuf, int count,
                        const Datatype& dtype, const CommGroup& g) {
  coll_->alltoall(sendbuf, recvbuf, count, dtype, g);
}

}  // namespace mv2gnc::mpisim::detail
