// Device-buffer collectives (docs/COLLECTIVES.md, "Device-resident
// buffers"): the CollEngine paths that engage when allreduce / allgather /
// bcast arguments live in registered device memory.
//
// Two schedules per operation; one predicate (use_device_pipeline) picks
// between them per call from the arguments alone:
//
//   staged     synchronous full-size D2H, the host wire algorithm on a
//              staged copy, synchronous full-size H2D. Zero overlap — the
//              baseline the paper improves on — but it prices the PCIe legs
//              the legacy host-only engine silently skipped. Taken for
//              messages the cost sketch says are too small to pipeline,
//              for mixed host/device residency, and when gpu_offload is
//              off (the PCIe ablation).
//   pipelined  the vector is cut into model-sized slices; slice k's D2H
//              (coll_d2h_ stream) overlaps slice k-1's wire leg, whose
//              folds run as device reduction kernels (coll_red_), while
//              slice k-2's write-back drains on coll_h2d_. The slice's
//              D2H event gates its first send's wire, so the RTS leaves
//              while the copy is still in flight; a launch_host_trigger
//              behind each D2H wakes the progress loop the moment the gate
//              opens, the write-back is enqueued once the wire leg lands,
//              and a last launch_host_trigger marks the drain of the
//              pipeline.
//
// At rpn > 1 the two-level pipelined allreduce keeps the intra-node
// reduce-scatter / allgather rings entirely device-resident: co-located
// ranks exchange device pointers, which the IPC transport peer-copies
// (device_direct()) without a host bounce; only the owned 1/n stripe
// crosses PCIe for the inter-node butterfly. The pipelined bcast runs the
// host bcast tree on each slice's staging slot.
//
// Residency contract: the pipelined schedules assume residency is uniform
// across the group (all ranks device or all host) — mixed residency per
// rank falls back to the staged schedule, whose wire leg interoperates with
// the host path. After an aborted pipelined collective the destination
// device buffer may still be written by an already-enqueued write-back
// (result of a failed collective is undefined); like any buffer handed to a
// collective, it must stay live until the communicator drains.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "mpi/coll.hpp"
#include "mpi/coll_common.hpp"

namespace mv2gnc::mpisim::detail {

namespace {

// Per-slice tag offsets are slice * kDevStride + round (coll_common.hpp),
// so pick_slice_bytes caps the slice count at kMaxDevSlices to keep every
// offset inside one tag span.
constexpr int kDevStride = 64;
constexpr int kMaxDevSlices = 512;
static_assert(kMaxDevSlices * kDevStride <= kTagSpan);

}  // namespace

// ---------------------------------------------------------------------------
// Shared machinery
// ---------------------------------------------------------------------------

bool CollEngine::device_buffer(const void* p) const {
  return p != nullptr && comm_.memory_registry().is_device_pointer(p);
}

void CollEngine::ensure_coll_streams() {
  if (coll_streams_ready_) return;
  cusim::CudaContext& ctx = comm_.cuda();
  coll_d2h_ = ctx.create_stream();
  coll_h2d_ = ctx.create_stream();
  coll_red_ = ctx.create_stream();
  coll_streams_ready_ = true;
}

// Abort-safe staging slot: tracked in coll_slots_ for the lifetime of the
// running collective, so an aborted pipeline parks it in the slot graveyard
// (a stale slice delivery or a still-queued copy may reference it) and
// normal completion returns it to the pool. Pool-sized requests that find
// the pool empty fall back to a one-off pinned allocation rather than
// stalling the collective.
core::detail::StagingSlot* CollEngine::slot_scratch(std::size_t bytes) {
  auto s = std::make_unique<core::detail::StagingSlot>(
      core::detail::acquire_slot(comm_.vbufs(), comm_.cuda(), bytes));
  if (!s->valid()) *s = core::detail::pinned_slot(comm_.cuda(), bytes);
  core::detail::StagingSlot* p = s.get();
  coll_slots_.push_back(std::move(s));
  return p;
}

void CollEngine::settle_coll_slots(bool aborted) {
  for (auto& s : coll_slots_) {
    if (aborted) {
      comm_.park_slot(std::move(*s));
    } else {
      core::detail::release_slot(comm_.vbufs(), *s);
    }
  }
  coll_slots_.clear();
}

double* CollEngine::device_scratch(std::size_t n) {
  cusim::CudaContext& ctx = comm_.cuda();
  void* p = ctx.malloc(n * sizeof(double));
  scratch_.push_back(
      std::shared_ptr<void>(p, [c = &ctx](void* q) { c->free(q); }));
  return static_cast<double*>(p);
}

void CollEngine::device_fold(CollOpStats& op, double* acc, const double* in,
                             int n, bool take_max) {
  ensure_coll_streams();
  cusim::CudaContext& ctx = comm_.cuda();
  const std::size_t bytes = sizeof(double) * static_cast<std::size_t>(n);
  ctx.launch_device_reduce(coll_red_, bytes, [acc, in, n, take_max] {
    reduce_into(acc, in, n, take_max);
  });
  cusim::Event done = ctx.record_event(coll_red_);
  done.synchronize();
  ++op.reduce_kernels;
}

namespace {

// Model time of the sliced pipeline moving `total` bytes over `p` ranks in
// `slice`-byte slices, the short last slice priced at its own size. The
// wire legs serialize on the calling fiber, so they sum; the PCIe legs
// hide behind them except the first slice's D2H and the last one's H2D.
// A slice's Rabenseifner leg moves 2(1-1/p) wire bytes and folds (1-1/p),
// but each of its 2 log2 p exchanges also pays the rendezvous protocol
// (handshake round trips plus staging launches) — the term that pushes
// the pick toward few large slices on a high-latency fabric.
double pipeline_ns(const CollCostHints& h, std::size_t total,
                   std::size_t slice, int p) {
  const double pd = std::max(static_cast<double>(p), 2.0);
  const double rounds = std::ceil(std::log2(pd));
  const double frac = 1.0 - 1.0 / pd;
  const double launch = static_cast<double>(h.gpu.copy_launch_ns);
  const double proto =
      4.0 * static_cast<double>(h.fabric.latency_ns) + 2.0 * launch;
  auto wire = [&](double bytes) {
    return 2.0 * rounds * proto + 2.0 * frac * bytes / h.fabric.bw +
           rounds * static_cast<double>(h.gpu.kernel_launch_ns) +
           frac * bytes / h.gpu.reduce_bw;
  };
  const std::size_t first = std::min(slice, total);
  const std::size_t last = total % slice;
  return static_cast<double>(total / slice) *
             wire(static_cast<double>(slice)) +
         (last > 0 ? wire(static_cast<double>(last)) : 0.0) + 2.0 * launch +
         static_cast<double>(first + (last > 0 ? last : first)) /
             h.pcie_bw();
}

}  // namespace

std::size_t CollEngine::pick_slice_bytes(std::size_t total, int p) const {
  // The power-of-two candidate with the least model time.
  double best = std::numeric_limits<double>::infinity();
  std::size_t s = 64 * 1024;
  for (std::size_t c = 16 * 1024; c <= (std::size_t{4} << 20); c <<= 1) {
    const double cost = pipeline_ns(hints_, total, c, p);
    if (cost < best) {
      best = cost;
      s = c;
    }
  }
  // Per-slice tag offsets must stay inside one tag span.
  while ((total + s - 1) / s > static_cast<std::size_t>(kMaxDevSlices)) {
    s <<= 1;
  }
  return s;
}

bool CollEngine::device_pipeline_wins(std::size_t bytes, int p) const {
  if (p <= 1) return false;
  // Staged rides the host butterfly (log2 p full-size exchanges, free host
  // folds) behind two exposed full-size PCIe copies; the pipeline's slices
  // ride Rabenseifner legs with on-device folds, PCIe hidden except at the
  // pipeline's ends. Rank-invariant.
  const double launch = static_cast<double>(hints_.gpu.copy_launch_ns);
  const double rounds = std::ceil(std::log2(static_cast<double>(p)));
  const double proto = 4.0 * static_cast<double>(hints_.fabric.latency_ns) +
                       2.0 * launch;
  const double bd = static_cast<double>(bytes);
  const double staged = 2.0 * (launch + bd / hints_.pcie_bw()) +
                        rounds * (proto + bd / hints_.fabric.bw);
  return pipeline_ns(hints_, bytes, pick_slice_bytes(bytes, p), p) < staged;
}

bool CollEngine::use_device_pipeline(const void* sendbuf,
                                     const void* recvbuf, std::size_t bytes,
                                     int p) const {
  return device_buffer(sendbuf) && device_buffer(recvbuf) &&
         comm_.tunables().gpu_offload && device_pipeline_wins(bytes, p);
}

// ---------------------------------------------------------------------------
// Sliced allreduce pipeline
// ---------------------------------------------------------------------------

void CollEngine::device_slice_wire(CollOpStats& op, const CommGroup& g,
                                   const std::vector<int>& ranks, int me,
                                   double* data, int count, bool take_max,
                                   int slice, cusim::Event gate) {
  static const Datatype double_t = committed_double();
  const int p = static_cast<int>(ranks.size());
  if (p <= 1) return;
  auto world_of = [&](int idx) {
    return g.world[static_cast<std::size_t>(
        ranks[static_cast<std::size_t>(idx)])];
  };
  double* tmp = scratch<double>(static_cast<std::size_t>(count));
  const RdSchedule rd(p);
  const int pof2 = rd.pof2;
  // The slice's D2H gate rides the first send's wire (the RTS leaves
  // immediately); a fold that writes the slot before any send consumed the
  // gate synchronizes it instead. Either way the copy has landed before
  // this function returns.
  bool gate_pending = true;
  auto gated_send = [&](const double* buf, int cnt, int dst, int tag) {
    op.bytes_sent += sizeof(double) * static_cast<std::size_t>(cnt);
    Request r = comm_.isend(buf, cnt, double_t, dst, tag, g.context,
                            gate_pending ? gate : cusim::Event{});
    gate_pending = false;
    inflight_.push_back(r);
    return r;
  };
  auto fold_at = [&](int off, int cnt) {
    if (gate_pending) {
      gate.synchronize();
      gate_pending = false;
    }
    device_fold(op, data + off, tmp + off, cnt, take_max);
  };
  // Non-power-of-two pre-pairing: evens hand their whole slice to the odd
  // neighbour and rejoin after the allgather (the MPICH shape).
  const int tpair = kTagDevArPair - slice * 2;
  const int newrank = rd.member(me);
  if (me < 2 * rd.rem) {
    if (me % 2 == 0) {
      Request s = gated_send(data, count, world_of(me + 1), tpair - 0);
      cwait(s);
    } else {
      Request r = irecv_track(tmp, count, double_t, world_of(me - 1),
                              tpair - 0, g.context);
      cwait(r);
      fold_at(0, count);
    }
  }
  if (newrank >= 0 && count < 2 * pof2) {
    // Too few elements to split into pof2 chunks: full-vector recursive
    // doubling (the short-vector shape; folds still run on-device).
    int round = 0;
    for (int mask = 1; mask < pof2; mask <<= 1, ++round) {
      const int dst = world_of(rd.index(newrank ^ mask));
      const int tag = kTagDevArRd - (slice * kDevStride + round);
      Request rr = irecv_track(tmp, count, double_t, dst, tag, g.context);
      Request sr = gated_send(data, count, dst, tag);
      cwait(sr);
      cwait(rr);
      fold_at(0, count);
    }
  } else if (newrank >= 0) {
    // Rabenseifner: recursive-halving reduce-scatter, then the same
    // exchanges replayed in reverse as a recursive-doubling allgather.
    // 2(1-1/p) wire bytes and (1-1/p) folded bytes per rank, against
    // log2(p) of each for the butterfly — this is where the pipeline's
    // reduction-kernel bill stays below the PCIe time it hides.
    const int q2 = count / pof2;
    const int r2 = count % pof2;
    auto cstart = [&](int i) { return i * q2 + std::min(i, r2); };
    struct HalvingRound {
      int dst;
      int half;
      bool lower;
    };
    std::vector<HalvingRound> replay;
    int wlo = 0;
    int whi = pof2;
    int round = 0;
    while (whi - wlo > 1) {
      const int half = (whi - wlo) / 2;
      const bool lower = newrank < wlo + half;
      const int dst = world_of(rd.index(lower ? newrank + half
                                              : newrank - half));
      const int keep_lo = lower ? wlo : wlo + half;
      const int keep_hi = lower ? wlo + half : whi;
      const int send_lo = lower ? wlo + half : wlo;
      const int send_hi = lower ? whi : wlo + half;
      const int koff = cstart(keep_lo);
      const int kcnt = cstart(keep_hi) - koff;
      const int soff = cstart(send_lo);
      const int scnt = cstart(send_hi) - soff;
      const int tag = kTagDevArRd - (slice * kDevStride + round);
      Request rr =
          irecv_track(tmp + koff, kcnt, double_t, dst, tag, g.context);
      Request sr = gated_send(data + soff, scnt, dst, tag);
      cwait(sr);
      cwait(rr);
      fold_at(koff, kcnt);
      replay.push_back({dst, half, lower});
      if (lower) {
        whi = wlo + half;
      } else {
        wlo = wlo + half;
      }
      ++round;
    }
    // Allgather: the owned window doubles back out; the partner of each
    // reversed round holds the mirror range, shifted by that round's half.
    int olo = wlo;
    int ohi = whi;
    for (std::size_t j = replay.size(); j-- > 0;) {
      const HalvingRound& hr = replay[j];
      const int plo = hr.lower ? olo + hr.half : olo - hr.half;
      const int phi = plo + (ohi - olo);
      const int soff = cstart(olo);
      const int scnt = cstart(ohi) - soff;
      const int roff = cstart(plo);
      const int rcnt = cstart(phi) - roff;
      const int tag = kTagDevArRd - (slice * kDevStride + round);
      Request rr =
          irecv_track(data + roff, rcnt, double_t, hr.dst, tag, g.context);
      Request sr = gated_send(data + soff, scnt, hr.dst, tag);
      cwait(sr);
      cwait(rr);
      olo = std::min(olo, plo);
      ohi = std::max(ohi, phi);
      ++round;
    }
  }
  if (me < 2 * rd.rem) {
    if (me % 2 == 0) {
      Request r = irecv_track(data, count, double_t, world_of(me + 1),
                              tpair - 1, g.context);
      cwait(r);
    } else {
      Request s = gated_send(data, count, world_of(me - 1), tpair - 1);
      cwait(s);
    }
  }
}

void CollEngine::device_sliced_allreduce(CollOpStats& op, const CommGroup& g,
                                         const std::vector<int>& ranks,
                                         int me, double* dev, int count,
                                         bool take_max) {
  const int p = static_cast<int>(ranks.size());
  if (p <= 1 || count <= 0) return;
  ensure_coll_streams();
  cusim::CudaContext& ctx = comm_.cuda();
  sim::Engine& eng = comm_.engine();
  const std::size_t total = sizeof(double) * static_cast<std::size_t>(count);
  const std::size_t slice_bytes = pick_slice_bytes(total, p);
  const int sc = static_cast<int>(slice_bytes / sizeof(double));
  const int S = (count + sc - 1) / sc;
  op.device_slices += static_cast<std::uint64_t>(S);

  struct SliceState {
    core::detail::StagingSlot* slot = nullptr;
    cusim::Event d2h;
    int off = 0;
    int len = 0;
  };
  std::vector<SliceState> sl(static_cast<std::size_t>(S));

  auto post_d2h = [&](int k) {
    SliceState& s = sl[static_cast<std::size_t>(k)];
    s.off = k * sc;
    s.len = std::min(sc, count - s.off);
    const std::size_t b = sizeof(double) * static_cast<std::size_t>(s.len);
    s.slot = slot_scratch(b);
    ctx.memcpy_async(s.slot->ptr, dev + s.off, b,
                     cusim::MemcpyKind::kDeviceToHost, coll_d2h_);
    s.d2h = ctx.record_event(coll_d2h_);
    // A send gated on s.d2h is re-driven by the progress loop, not by the
    // event completing: wake the loop the moment the copy drains, or the
    // gated send sleeps until its retry timer (and charges a spurious
    // timeout).
    ctx.launch_host_trigger(coll_d2h_, [this] { comm_.wake_progress(); });
    op.bytes_staged += b;
    op.device_stage_ns +=
        hints_.gpu.copy_launch_ns +
        static_cast<sim::SimTime>(static_cast<double>(b) / hints_.gpu.d2h_bw);
  };

  constexpr int kPrefetch = 2;  // D2H slices posted ahead of the wire leg
  int posted = 0;
  for (int k = 0; k < S; ++k) {
    while (posted < S && posted <= k + kPrefetch) post_d2h(posted++);
    SliceState& s = sl[static_cast<std::size_t>(k)];
    double* host = reinterpret_cast<double*>(s.slot->ptr);
    const std::size_t b = sizeof(double) * static_cast<std::size_t>(s.len);
    const sim::SimTime wire_t0 = eng.now();
    device_slice_wire(op, g, ranks, me, host, s.len, take_max, k, s.d2h);
    ctx.memcpy_async(dev + s.off, host, b, cusim::MemcpyKind::kHostToDevice,
                     coll_h2d_);
    op.device_stage_ns += eng.now() - wire_t0;
    op.device_stage_ns +=
        hints_.gpu.copy_launch_ns +
        static_cast<sim::SimTime>(static_cast<double>(b) / hints_.gpu.h2d_bw);
    op.bytes_staged += b;
  }
  // Drain the write-back leg: the host trigger fires in scheduler context
  // the instant the stream empties and releases the waiting fiber.
  sim::EventFlag drained(eng);
  ctx.launch_host_trigger(coll_h2d_, [&drained] { drained.trigger(); });
  drained.wait("coll_device_drain");
}

void CollEngine::device_allreduce(CollOpStats& op, const double* sendbuf,
                                  double* recvbuf, int count, bool take_max,
                                  const CommGroup& g, const Topology& t,
                                  CollShape shape, bool pipelined) {
  cusim::CudaContext& ctx = comm_.cuda();
  sim::Engine& eng = comm_.engine();
  const sim::SimTime t0 = eng.now();
  const std::size_t bytes = sizeof(double) * static_cast<std::size_t>(count);
  ++op.device_calls;

  if (g.size() == 1 || count == 0) {
    if (count > 0 && sendbuf != recvbuf) ctx.memcpy(recvbuf, sendbuf, bytes);
    const sim::SimTime dt = eng.now() - t0;
    op.device_stage_ns += dt;
    op.device_elapsed_ns += dt;
    return;
  }

  if (!pipelined) {
    // Staged schedule: full-size D2H, host butterfly, full-size H2D, fully
    // serialized.
    double* host = scratch<double>(static_cast<std::size_t>(count));
    if (device_buffer(sendbuf)) {
      ctx.memcpy(host, sendbuf, bytes);
      op.bytes_staged += bytes;
    } else {
      std::memcpy(host, sendbuf, bytes);
    }
    allreduce_wire(op, host, count, take_max, g, t, shape);
    if (device_buffer(recvbuf)) {
      ctx.memcpy(recvbuf, host, bytes);
      op.bytes_staged += bytes;
    } else {
      std::memcpy(recvbuf, host, bytes);
    }
    const sim::SimTime dt = eng.now() - t0;
    op.device_stage_ns += dt;
    op.device_elapsed_ns += dt;
    return;
  }

  ++op.device_pipelined;
  ensure_coll_streams();
  // Seed the on-device accumulator.
  if (sendbuf != recvbuf) {
    const sim::SimTime seed_t0 = eng.now();
    ctx.memcpy_async(recvbuf, sendbuf, bytes,
                     cusim::MemcpyKind::kDeviceToDevice, coll_red_);
    ctx.record_event(coll_red_).synchronize();
    op.device_stage_ns += eng.now() - seed_t0;
  }
  if (shape == CollShape::kFlat || t.uniform < 2 || count < t.uniform) {
    device_sliced_allreduce(op, g, identity_ranks(g.size()), g.my_rank,
                            recvbuf, count, take_max);
  } else {
    striped_allreduce(op, recvbuf, count, take_max, g, t, /*device=*/true);
  }
  op.device_elapsed_ns += eng.now() - t0;
}

// ---------------------------------------------------------------------------
// Bcast
// ---------------------------------------------------------------------------

void CollEngine::device_bcast(CollOpStats& op, void* buf, int count,
                              const Datatype& dtype, int root,
                              const CommGroup& g, const Topology& t,
                              CollShape shape) {
  cusim::CudaContext& ctx = comm_.cuda();
  sim::Engine& eng = comm_.engine();
  const sim::SimTime t0 = eng.now();
  ++op.device_calls;
  const std::size_t bytes = dtype.size() * static_cast<std::size_t>(count);
  if (g.size() == 1 || bytes == 0) {
    const sim::SimTime dt = eng.now() - t0;
    op.device_stage_ns += dt;
    op.device_elapsed_ns += dt;
    return;
  }
  auto* dev = static_cast<std::byte*>(buf);

  if (!use_device_pipeline(buf, buf, bytes, g.size())) {
    std::byte* host = scratch<std::byte>(bytes);
    if (g.my_rank == root) {
      ctx.memcpy(host, dev, bytes);
      op.bytes_staged += bytes;
    }
    bcast_wire(op, host, count, dtype, root, g, t, shape);
    if (g.my_rank != root) {
      ctx.memcpy(dev, host, bytes);
      op.bytes_staged += bytes;
    }
    const sim::SimTime dt = eng.now() - t0;
    op.device_stage_ns += dt;
    op.device_elapsed_ns += dt;
    return;
  }

  // Pipelined: per slice, the root stages D2H and the host bcast tree
  // (flat binomial, or leaders then node members with the root leading its
  // node) runs over staging slots; receivers write each arriving slice
  // back on coll_h2d_ while later slices are still on the wire.
  ++op.device_pipelined;
  ensure_coll_streams();
  static const Datatype byte_t = committed_byte();
  const std::size_t slice_bytes = pick_slice_bytes(bytes, g.size());
  const int S = static_cast<int>((bytes + slice_bytes - 1) / slice_bytes);
  op.device_slices += static_cast<std::uint64_t>(S);
  Topology tree = t;
  const bool two_level = plan_bcast(op, g, root, shape, tree);
  auto slice_off = [&](int k) {
    return static_cast<std::size_t>(k) * slice_bytes;
  };
  auto slice_len = [&](int k) {
    return std::min(slice_bytes, bytes - slice_off(k));
  };
  std::vector<core::detail::StagingSlot*> slots(static_cast<std::size_t>(S));
  std::vector<cusim::Event> d2h(static_cast<std::size_t>(S));
  for (int k = 0; k < S; ++k) {
    slots[static_cast<std::size_t>(k)] = slot_scratch(slice_len(k));
    if (g.my_rank == root) {
      ctx.memcpy_async(slots[static_cast<std::size_t>(k)]->ptr,
                       dev + slice_off(k), slice_len(k),
                       cusim::MemcpyKind::kDeviceToHost, coll_d2h_);
      d2h[static_cast<std::size_t>(k)] = ctx.record_event(coll_d2h_);
      op.bytes_staged += slice_len(k);
      op.device_stage_ns +=
          hints_.gpu.copy_launch_ns +
          static_cast<sim::SimTime>(static_cast<double>(slice_len(k)) /
                                    hints_.gpu.d2h_bw);
    }
  }
  for (int k = 0; k < S; ++k) {
    std::byte* host = slots[static_cast<std::size_t>(k)]->ptr;
    const std::size_t b = slice_len(k);
    if (g.my_rank == root) d2h[static_cast<std::size_t>(k)].synchronize();
    const sim::SimTime wire_t0 = eng.now();
    bcast_tree(op, g, tree, two_level, root, host, static_cast<int>(b), byte_t,
               kTagDevBcast - k);
    op.device_stage_ns += eng.now() - wire_t0;
    if (g.my_rank != root) {
      ctx.memcpy_async(dev + slice_off(k), host, b,
                       cusim::MemcpyKind::kHostToDevice, coll_h2d_);
      op.bytes_staged += b;
      op.device_stage_ns +=
          hints_.gpu.copy_launch_ns +
          static_cast<sim::SimTime>(static_cast<double>(b) /
                                    hints_.gpu.h2d_bw);
    }
  }
  sim::EventFlag drained(eng);
  ctx.launch_host_trigger(coll_h2d_, [&drained] { drained.trigger(); });
  drained.wait("coll_device_bcast_drain");
  op.device_elapsed_ns += eng.now() - t0;
}

// ---------------------------------------------------------------------------
// Allgather
// ---------------------------------------------------------------------------

void CollEngine::device_allgather(CollOpStats& op, const void* sendbuf,
                                  int count, const Datatype& dtype,
                                  void* recvbuf, const CommGroup& g,
                                  const Topology& t, CollShape shape) {
  cusim::CudaContext& ctx = comm_.cuda();
  sim::Engine& eng = comm_.engine();
  const sim::SimTime t0 = eng.now();
  ++op.device_calls;
  const std::size_t block = static_cast<std::size_t>(dtype.extent()) *
                            static_cast<std::size_t>(count);
  const int p = g.size();
  const int my = g.my_rank;
  auto* out = static_cast<std::byte*>(recvbuf);

  if (p == 1 || block == 0) {
    if (block > 0 && sendbuf != recvbuf) ctx.memcpy(out, sendbuf, block);
    const sim::SimTime dt = eng.now() - t0;
    op.device_stage_ns += dt;
    op.device_elapsed_ns += dt;
    return;
  }

  const std::size_t total = block * static_cast<std::size_t>(p);
  if (!use_device_pipeline(sendbuf, recvbuf, total, p)) {
    std::byte* hin = scratch<std::byte>(block);
    std::byte* hout = scratch<std::byte>(total);
    if (device_buffer(sendbuf)) {
      ctx.memcpy(hin, sendbuf, block);
      op.bytes_staged += block;
    } else {
      std::memcpy(hin, sendbuf, block);
    }
    allgather_wire(op, hin, count, dtype, hout, g, t, shape);
    if (device_buffer(recvbuf)) {
      ctx.memcpy(out, hout, total);
      op.bytes_staged += total;
    } else {
      std::memcpy(out, hout, total);
    }
    const sim::SimTime dt = eng.now() - t0;
    op.device_stage_ns += dt;
    op.device_elapsed_ns += dt;
    return;
  }

  ++op.device_pipelined;
  ensure_coll_streams();
  if (shape == CollShape::kTwoLevel && t.uniform > 1) {
    // Two-level pass-through with device pointers: the intra ring and
    // co-member forwards peer-copy device memory directly (device_direct),
    // and each fabric stripe leg rides the rendezvous' own chunked
    // pipeline. The byte split below attributes this rank's sends to the
    // peer path when its node's IPC channel is device-direct.
    const std::uint64_t sent0 = op.bytes_sent;
    allgather_wire(op, sendbuf, count, dtype, recvbuf, g, t, shape);
    const std::uint64_t delta = op.bytes_sent - sent0;
    int peer_probe = -1;
    const std::vector<int>& mem =
        t.members[static_cast<std::size_t>(t.my_node)];
    for (int m : mem) {
      if (m != my) {
        peer_probe = g.world[static_cast<std::size_t>(m)];
        break;
      }
    }
    if (peer_probe >= 0 && comm_.net().device_direct(peer_probe)) {
      op.bytes_peer += delta;
    } else {
      op.bytes_staged += delta;
    }
    const sim::SimTime dt = eng.now() - t0;
    op.device_stage_ns += dt;
    op.device_elapsed_ns += dt;
    return;
  }
  // Flat host-mirror ring: the own block crosses PCIe once (D2H into a
  // mirror slot), every forward sends from the host mirror — no per-hop
  // PCIe round trip — and each arriving block's H2D overlaps the next ring
  // step; the own block lands on-device via a D2D copy.
  static const Datatype byte_t = committed_byte();
  ++op.leader_phases;
  op.device_slices += static_cast<std::uint64_t>(p);
  std::vector<core::detail::StagingSlot*> mirror(
      static_cast<std::size_t>(p), nullptr);
  mirror[static_cast<std::size_t>(my)] = slot_scratch(block);
  ctx.memcpy_async(mirror[static_cast<std::size_t>(my)]->ptr, sendbuf, block,
                   cusim::MemcpyKind::kDeviceToHost, coll_d2h_);
  cusim::Event own_d2h = ctx.record_event(coll_d2h_);
  op.bytes_staged += block;
  op.device_stage_ns +=
      hints_.gpu.copy_launch_ns +
      static_cast<sim::SimTime>(static_cast<double>(block) /
                                hints_.gpu.d2h_bw);
  ctx.memcpy_async(out + static_cast<std::size_t>(my) * block, sendbuf,
                   block, cusim::MemcpyKind::kDeviceToDevice, coll_red_);
  const int right = g.world[static_cast<std::size_t>((my + 1) % p)];
  const int left = g.world[static_cast<std::size_t>((my - 1 + p) % p)];
  for (int s = 0; s < p - 1; ++s) {
    const int sendb = (my - s + p) % p;
    const int recvb = (my - s - 1 + p) % p;
    mirror[static_cast<std::size_t>(recvb)] = slot_scratch(block);
    Request rr = irecv_track(mirror[static_cast<std::size_t>(recvb)]->ptr,
                             static_cast<int>(block), byte_t, left,
                             kTagDevAgBlock - recvb, g.context);
    if (s == 0) own_d2h.synchronize();
    const sim::SimTime wire_t0 = eng.now();
    Request sr = isend_counted(op,
                               mirror[static_cast<std::size_t>(sendb)]->ptr,
                               static_cast<int>(block), byte_t, right,
                               kTagDevAgBlock - sendb, g.context);
    cwait(sr);
    cwait(rr);
    op.device_stage_ns += eng.now() - wire_t0;
    ctx.memcpy_async(out + static_cast<std::size_t>(recvb) * block,
                     mirror[static_cast<std::size_t>(recvb)]->ptr, block,
                     cusim::MemcpyKind::kHostToDevice, coll_h2d_);
    op.bytes_staged += block;
    op.device_stage_ns +=
        hints_.gpu.copy_launch_ns +
        static_cast<sim::SimTime>(static_cast<double>(block) /
                                  hints_.gpu.h2d_bw);
  }
  ctx.record_event(coll_red_).synchronize();  // own-block D2D
  sim::EventFlag drained(eng);
  ctx.launch_host_trigger(coll_h2d_, [&drained] { drained.trigger(); });
  drained.wait("coll_device_ag_drain");
  op.device_elapsed_ns += eng.now() - t0;
}

}  // namespace mv2gnc::mpisim::detail
