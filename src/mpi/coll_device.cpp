// Device-buffer collectives (docs/COLLECTIVES.md, "Device-resident
// buffers"): the CollEngine paths that engage when allreduce / allgather /
// bcast arguments live in registered device memory.
//
// Two schedules per operation. plan_device picks one per call, and the
// pipeline's shape, by pricing the messages each schedule sends on the
// call's node map (device_ns); the verdict depends on nothing a rank sees
// alone, so every rank runs the same schedule:
//
//   staged     synchronous full-size D2H, the host wire algorithm on a
//              staged copy, synchronous full-size H2D. Zero overlap — the
//              baseline the paper improves on — but it prices the PCIe legs
//              the legacy host-only engine silently skipped. Taken where
//              it prices cheaper (eager-sized messages, mostly), for mixed
//              host/device residency, and when gpu_offload is off (the
//              PCIe ablation).
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
#include <cstring>
#include <limits>

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

// ---------------------------------------------------------------------------
// Schedule price
// ---------------------------------------------------------------------------

namespace {

constexpr int kPrefetch = 2;  // allreduce D2H slices posted ahead of the wire

}  // namespace

sim::SimTime CollEngine::sliced_ns(std::size_t total, std::size_t slice,
                                   int prefetch, const LegPrice& leg) const {
  if (total == 0) return 0;
  const gpu::GpuCostModel& gpu = hints_.gpu;
  const std::size_t n = (total + slice - 1) / slice;
  struct Stage {
    sim::SimTime d2h;
    SliceLeg wire;
    sim::SimTime h2d;
  };
  auto stage = [&](std::size_t b) {
    return Stage{gpu.copy_time(b, gpu::CopyDir::kDeviceToHost), leg(b),
                 gpu.copy_time(b, gpu::CopyDir::kHostToDevice)};
  };
  // Every slice but the short last one has the full length.
  const Stage full = stage(slice);
  const Stage last = stage(total - (n - 1) * slice);
  std::vector<sim::SimTime> landed(n);
  sim::SimTime fiber = 0;
  sim::SimTime d2h_free = 0;
  sim::SimTime h2d_free = 0;
  std::size_t posted = 0;
  for (std::size_t k = 0; k < n; ++k) {
    while (posted < n && posted <= k + static_cast<std::size_t>(prefetch)) {
      fiber += gpu.async_submit_ns;
      d2h_free = std::max(d2h_free, fiber) +
                 (posted + 1 == n ? last : full).d2h;
      landed[posted++] = d2h_free;
    }
    const Stage& s = k + 1 == n ? last : full;
    fiber = std::max(fiber, landed[k] - s.wire.head) + s.wire.wire +
            gpu.async_submit_ns;
    h2d_free = std::max(h2d_free, fiber) + s.h2d;
  }
  return std::max(fiber, h2d_free);
}

std::size_t CollEngine::pick_slice_bytes(std::size_t total, int prefetch,
                                         const LegPrice& leg) const {
  // The power-of-two candidate with the least price.
  sim::SimTime best = std::numeric_limits<sim::SimTime>::max();
  std::size_t s = 64 * 1024;
  for (std::size_t c = 16 * 1024; c <= (std::size_t{4} << 20); c <<= 1) {
    const sim::SimTime cost = sliced_ns(total, c, prefetch, leg);
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

sim::SimTime CollEngine::device_ns(const DeviceCall& call,
                                   DeviceSchedule schedule, CollShape shape,
                                   const Topology& t) const {
  const gpu::GpuCostModel& gpu = hints_.gpu;
  const int p = static_cast<int>(t.node_of.size());
  const std::size_t b = call.bytes;
  // The staged schedule's blocking copies to and from pageable scratch.
  auto d2h = [&](std::size_t n) {
    return gpu.copy_time(n, gpu::CopyDir::kDeviceToHost, false);
  };
  auto h2d = [&](std::size_t n) {
    return gpu.copy_time(n, gpu::CopyDir::kHostToDevice, false);
  };
  // The best slicing of `total` bytes whose slices each take leg(bytes).
  auto sliced = [&](std::size_t total, int prefetch, const LegPrice& leg) {
    return sliced_ns(total, pick_slice_bytes(total, prefetch, leg), prefetch,
                     leg);
  };
  const bool staged = schedule == DeviceSchedule::kStaged;
  switch (call.op) {
    case CollOp::kAllreduce: {
      const std::size_t count = b / sizeof(double);
      const bool striped = shape == CollShape::kTwoLevel && t.uniform >= 2 &&
                           count >= static_cast<std::size_t>(t.uniform);
      if (staged) {
        return d2h(b) +
               (striped ? striped_ns(t, b)
                        : butterfly_ns(t, identity_ranks(p), b)) +
               h2d(b);
      }
      // Seed the device accumulator, then the sliced pipeline over the
      // whole group, or the device rings around the stripe's pipeline.
      const sim::SimTime seed =
          gpu.async_submit_ns + gpu.copy_time(b, gpu::CopyDir::kDeviceToDevice);
      if (!striped) {
        const std::vector<int> all = identity_ranks(p);
        return seed + sliced(b, kPrefetch, [&](std::size_t len) {
                 return rabenseifner_ns(t, all, len);
               });
      }
      // Ring steps move stripes of the two lengths the split leaves; an
      // eager device stripe pays its pageable copies, a rendezvous one the
      // handshake, so a step costs the dearer of the two.
      const sim::SimTime n1 = t.uniform - 1;
      const std::size_t u = static_cast<std::size_t>(t.uniform);
      const std::size_t stripe = sizeof(double) * ((count + u - 1) / u);
      const sim::SimTime step =
          std::max(ring_step_ns(true, stripe, true),
                   ring_step_ns(true, sizeof(double) * (count / u), true));
      const sim::SimTime rings =
          n1 * (2 * step + gpu.async_submit_ns + gpu.reduce_time(stripe));
      if (t.num_nodes() == 1) return seed + rings;
      return seed + rings + sliced(stripe, kPrefetch, [&](std::size_t len) {
               return rabenseifner_ns(t, t.leaders, len);
             });
    }
    case CollOp::kBcast:
      if (staged) {
        return d2h(b) + bcast_tree_ns(t, shape, call.root, b) + h2d(b);
      }
      return sliced(b, kMaxDevSlices, [&](std::size_t len) {
        return SliceLeg{bcast_tree_ns(t, shape, call.root, len), 0};
      });
    case CollOp::kAllgather: {
      if (staged) {
        return d2h(b) + allgather_ns(t, shape, b, false) +
               h2d(b * static_cast<std::size_t>(p));
      }
      if (shape == CollShape::kTwoLevel && t.uniform > 1) {
        return allgather_ns(t, shape, b, true);
      }
      // The host-mirror ring: the own block's D2H, then p - 1 host ring
      // steps, each arriving block's H2D queued on one stream behind the
      // earlier ones. The stream drains last, after the last step or after
      // p - 1 copies from the first arrival, whichever ends later.
      const sim::SimTime steps = p - 1;
      const sim::SimTime step =
          ring_ns(t, identity_ranks(p), b, false) / steps +
          gpu.async_submit_ns;
      const sim::SimTime h2d = gpu.copy_time(b, gpu::CopyDir::kHostToDevice);
      return 2 * gpu.async_submit_ns +
             gpu.copy_time(b, gpu::CopyDir::kDeviceToHost) +
             std::max(steps * step + h2d, step + steps * h2d);
    }
    default:
      return 0;
  }
}

bool CollEngine::use_device_pipeline(const void* sendbuf,
                                     const void* recvbuf,
                                     const DeviceCall& call,
                                     const Topology& t, CollShape shape,
                                     std::optional<DeviceSchedule> forced)
    const {
  if (!device_buffer(sendbuf) || !device_buffer(recvbuf) ||
      t.node_of.size() <= 1 || call.bytes == 0) {
    return false;
  }
  if (forced) return *forced == DeviceSchedule::kPipelined;
  return comm_.tunables().gpu_offload &&
         device_ns(call, DeviceSchedule::kPipelined, shape, t) <
             device_ns(call, DeviceSchedule::kStaged, shape, t);
}

CollEngine::DevicePlan CollEngine::plan_device(const void* sendbuf,
                                               const void* recvbuf,
                                               const Datatype& dtype,
                                               const DeviceCall& call,
                                               const Topology& t,
                                               CollShape staged) const {
  if (!dtype.is_contiguous() ||
      (!device_buffer(sendbuf) && !device_buffer(recvbuf))) {
    return {staged, std::nullopt};
  }
  DevicePlan plan{staged, DeviceSchedule::kStaged};
  // Forcing the pipeline only asks whether the buffers and group admit it.
  if (!comm_.tunables().gpu_offload ||
      !use_device_pipeline(sendbuf, recvbuf, call, t, staged,
                           DeviceSchedule::kPipelined)) {
    return plan;
  }
  sim::SimTime best = device_ns(call, DeviceSchedule::kStaged, staged, t);
  for (CollShape shape : {CollShape::kFlat, CollShape::kTwoLevel}) {
    // Without a node holding two members both shapes run the same steps.
    if (shape == CollShape::kTwoLevel && !t.multi_rank_node) continue;
    const sim::SimTime piped =
        device_ns(call, DeviceSchedule::kPipelined, shape, t);
    if (piped < best) {
      best = piped;
      plan = {shape, DeviceSchedule::kPipelined};
    }
  }
  return plan;
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
                                         const Topology& t,
                                         const std::vector<int>& ranks,
                                         int me, double* dev, int count,
                                         bool take_max) {
  const int p = static_cast<int>(ranks.size());
  if (p <= 1 || count <= 0) return;
  ensure_coll_streams();
  cusim::CudaContext& ctx = comm_.cuda();
  sim::Engine& eng = comm_.engine();
  const std::size_t total = sizeof(double) * static_cast<std::size_t>(count);
  const std::size_t slice_bytes =
      pick_slice_bytes(total, kPrefetch, [&](std::size_t len) {
        return rabenseifner_ns(t, ranks, len);
      });
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
    device_sliced_allreduce(op, g, t, identity_ranks(g.size()), g.my_rank,
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
                              CollShape shape,
                              std::optional<DeviceSchedule> schedule) {
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

  if (!use_device_pipeline(buf, buf, {CollOp::kBcast, bytes, root}, t, shape,
                           schedule)) {
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
  const std::size_t slice_bytes =
      pick_slice_bytes(bytes, kMaxDevSlices, [&](std::size_t len) {
        return SliceLeg{bcast_tree_ns(t, shape, root, len), 0};
      });
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
                                  const Topology& t, CollShape shape,
                                  std::optional<DeviceSchedule> schedule) {
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
  if (!use_device_pipeline(sendbuf, recvbuf, {CollOp::kAllgather, block}, t,
                           shape, schedule)) {
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
