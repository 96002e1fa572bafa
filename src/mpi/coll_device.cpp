// Device-buffer collectives (docs/COLLECTIVES.md, "Device-resident
// buffers"): the CollEngine paths that engage when allreduce / allgather /
// bcast arguments live in registered device memory.
//
// Two schedules per operation. plan_device picks one per call, with the
// pipeline's shape and slice, by pricing the messages each schedule sends
// on the call's node map (device_ns); the plan depends on nothing a rank
// sees alone, so every rank runs the same schedule, and no body prices it
// again:
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
//              slice k-2's write-back drains on coll_h2d_. Each leg takes
//              the cheaper of two exchange shapes (slice_leg_ns); a
//              full-slice butterfly leaves its last fold on coll_h2d_,
//              ahead of the slice's write-back. The slice's D2H event
//              gates its first send's wire, so the RTS leaves while the
//              copy is still in flight; a launch_host_trigger behind each
//              D2H wakes the progress loop the moment the gate opens, the
//              write-back is enqueued once the wire leg lands, and a last
//              launch_host_trigger marks the drain of the pipeline.
//
// The pipelined allreduce is one slice loop in both shapes
// (device_sliced_allreduce). At rpn > 1 its two-level shape cuts every
// slice into one piece per node member and reduces it inside the node
// first: co-located ranks send each other their pieces as device pointers,
// which the IPC transport peer-copies (device_direct()) without a host
// bounce, the owner folds the arrivals on coll_d2h_ ahead of the piece's
// D2H, only the owned piece crosses PCIe and the fabric, and after its H2D
// the piece goes back to the co-members through sends gated on that copy.
// Slice k+1's folds and D2H, slice k+2's reduce-scatter and slice k-1's
// allgather run while the fiber drives slice k's fabric leg. The pipelined
// bcast runs the host bcast tree on each slice's staging slot.
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

void CollEngine::launch_fold(CollOpStats& op, cusim::Stream& stream,
                             double* acc, const double* in, int n,
                             bool take_max) {
  const std::size_t bytes = sizeof(double) * static_cast<std::size_t>(n);
  comm_.cuda().launch_device_reduce(stream, bytes, [acc, in, n, take_max] {
    reduce_into(acc, in, n, take_max);
  });
  ++op.reduce_kernels;
}

void CollEngine::stage_copy(CollOpStats& op, void* dst, const void* src,
                            std::size_t n) {
  if (device_buffer(dst) || device_buffer(src)) {
    comm_.cuda().memcpy(dst, src, n);
    op.bytes_staged += n;
  } else {
    std::memcpy(dst, src, n);
  }
}

void CollEngine::finish_serial(CollOpStats& op, sim::SimTime t0) {
  const sim::SimTime dt = comm_.engine().now() - t0;
  op.device_stage_ns += dt;
  op.device_elapsed_ns += dt;
}

// ---------------------------------------------------------------------------
// Schedule price
// ---------------------------------------------------------------------------

namespace {

// Flat allreduce: D2H slices posted ahead of the wire.
constexpr int kPrefetch = 2;
// Two-level allreduce: slices whose pieces are staged ahead of the wire.
// Each piece's reduce-scatter runs one slice ahead of its staging. Deeper
// measured slower: on 4 ranks at 2 per node, staging 3 slices ahead takes
// 442.19 us per 1 MB call and 1172.61 us per 4 MB call, against 376.22
// and 1093.42 us at 1. Giving the IPC port's control messages a transmit
// queue of their own moved none of those four times, so the port's one
// FIFO does not explain the limit.
constexpr int kPiecePrefetch = 1;
// Two-level slice size: the largest priced within this many percent of the
// cheapest (pick_slice_bytes).
constexpr sim::SimTime kSliceBand = 8;

// The rank's IPC port as the two-level slice loop loads it: one FIFO of
// payload copies in the order they queue (a rendezvous copy once its CTS
// is back and its data ready, an eager payload when posted). A rendezvous
// completes only after its SEND_DONE crossed the same FIFO, so behind
// every copy queued before that; the co-members' ports run the same
// schedule. Copies are placed once no later post can queue ahead of them.
class PortClock {
 public:
  /// Queues exchange `x`'s `copies` payloads of `dur` each at `q`, posted
  /// at fiber time `now` (q >= now). A rendezvous posts its SEND_DONE
  /// `lag` after its last copy and completes `after` later; an eager
  /// exchange completes `after` after its last copy.
  int post(sim::SimTime now, sim::SimTime q, int copies, sim::SimTime dur,
           bool rendezvous, sim::SimTime lag, sim::SimTime after) {
    place(now);
    const int x = static_cast<int>(ex_.size());
    ex_.push_back({copies, 0, 0, rendezvous, lag, after});
    auto it = std::upper_bound(
        open_.begin(), open_.end(), q,
        [](sim::SimTime v, const Copy& c) { return v < c.q; });
    open_.insert(it, static_cast<std::size_t>(copies), Copy{q, dur, x});
    return x;
  }
  /// Completion of exchange `x`, for a fiber that waits for it at `now`:
  /// nothing queues meanwhile.
  sim::SimTime done(int x, sim::SimTime now) {
    place(now);
    Ex& e = ex_[static_cast<std::size_t>(x)];
    while (!open_.empty() &&
           (e.remaining > 0 || (e.rendezvous && open_.front().q < e.sd))) {
      retire();
    }
    return e.sd + e.after;
  }
  /// The last completion of every exchange posted.
  sim::SimTime drain() {
    sim::SimTime last = 0;
    while (!open_.empty()) retire();
    for (const Ex& e : ex_) last = std::max(last, e.sd + e.after);
    return last;
  }

 private:
  struct Copy {
    sim::SimTime q;
    sim::SimTime dur;
    int x;
  };
  struct Ex {
    int remaining;     // copies not yet placed
    sim::SimTime end;  // its last copy's end
    sim::SimTime sd;   // SEND_DONE queued (eager: its last copy's end)
    bool rendezvous;
    sim::SimTime lag;
    sim::SimTime after;
  };

  // Places every copy that queued by `now`: later posts queue after it.
  void place(sim::SimTime now) {
    while (!open_.empty() && open_.front().q <= now) retire();
  }
  void retire() {
    const Copy c = open_.front();
    open_.erase(open_.begin());
    free_ = std::max(free_, c.q) + c.dur;
    for (int y : live_) {
      Ex& e = ex_[static_cast<std::size_t>(y)];
      if (c.q < e.sd) e.sd = std::max(e.sd, free_);
    }
    // Nothing queues before c.q any more: a SEND_DONE queued by then is
    // final.
    std::erase_if(live_, [&](int y) {
      return ex_[static_cast<std::size_t>(y)].sd <= c.q;
    });
    Ex& e = ex_[static_cast<std::size_t>(c.x)];
    e.end = std::max(e.end, free_);
    if (--e.remaining == 0) {
      e.sd = e.end + (e.rendezvous ? e.lag : 0);
      if (e.rendezvous) live_.push_back(c.x);
    }
  }

  sim::SimTime free_ = 0;
  std::vector<Copy> open_;  // queued, not yet placed, by queue time
  std::vector<Ex> ex_;
  std::vector<int> live_;
};

}  // namespace

sim::SimTime CollEngine::sliced_ns(std::size_t total, std::size_t slice,
                                   int prefetch, int members,
                                   const LegPrice& leg) const {
  if (total == 0) return 0;
  const gpu::GpuCostModel& gpu = hints_.gpu;
  const sim::SimTime submit = gpu.async_submit_ns;
  const std::size_t n = (total + slice - 1) / slice;
  const std::size_t m = static_cast<std::size_t>(members);
  const sim::SimTime others = members - 1;
  // The stages of one slice: of its whole length at members == 1, else of
  // one of its pieces, the larger or the smaller of the two lengths the
  // split leaves.
  struct Stage {
    sim::SimTime d2h = 0;
    SliceLeg wire;
    sim::SimTime h2d = 0;
    sim::SimTime fold = 0;  // one arrival's reduction kernel
    IntraSend intra;        // one piece to one co-member
  };
  auto stage = [&](std::size_t b, bool larger) {
    const std::size_t c = b / sizeof(double);
    const std::size_t piece =
        m == 1 ? b : sizeof(double) * (larger ? (c + m - 1) / m : c / m);
    Stage s;
    if (leg) {
      s.d2h = gpu.copy_time(piece, gpu::CopyDir::kDeviceToHost);
      s.wire = leg(piece);
      s.h2d = gpu.copy_time(piece, gpu::CopyDir::kHostToDevice);
    }
    if (members > 1) {
      s.fold = gpu.reduce_time(piece);
      s.intra = intra_send_ns(piece);
    }
    return s;
  };
  // One member's walk through the loop, every piece of the larger or the
  // smaller length.
  auto walk = [&](bool larger) {
    // Every slice but the short last one has the full length.
    const Stage full = stage(slice, larger);
    const Stage last = stage(total - (n - 1) * slice, larger);
    auto at = [&](std::size_t k) -> const Stage& {
      return k + 1 == n ? last : full;
    };
    sim::SimTime fiber = 0;
    sim::SimTime d2h_free = 0;  // the stream of the folds and D2H copies
    sim::SimTime h2d_free = 0;
    PortClock port;
    std::vector<int> reduce(n);           // a slice's reduce-scatter
    std::vector<sim::SimTime> landed(n);  // its D2H landed (or its folds)
    // One intra exchange of slice k: n - 1 sends of its piece, each copy
    // queued once its data is `ready` too. A rendezvous' SEND_DONE and its
    // ack take the two control legs its RTS and CTS took. Eager pieces
    // sent from device memory pay their blocking D2H first, queued on the
    // one D2H engine behind the stream's folds and copies (the
    // allgather's leave from the host slot when one holds them, once the
    // leg's deferred fold ended at `folded`), and land with a blocking H2D
    // on the receiving fiber: the reduce-scatter's while the fiber waits
    // for them, the allgather's on top of whatever it does next.
    auto exchange = [&](std::size_t k, sim::SimTime ready, bool gather,
                        sim::SimTime folded) {
      const IntraSend& x = at(k).intra;
      if (!x.eager) {
        fiber += others * x.post;
        return port.post(fiber, std::max(fiber + x.head, ready), members - 1,
                         x.data, true, x.tail - x.head, x.head);
      }
      if (!gather || !leg) {
        fiber = std::max({fiber, ready, d2h_free}) + others * x.stage;
        d2h_free = fiber;
      } else {
        fiber = std::max(fiber, folded);
      }
      fiber += others * x.post;
      const int id = port.post(fiber, fiber, members - 1, x.data, false, 0,
                               x.tail + others * x.land);
      if (gather) fiber += others * x.land;
      return id;
    };
    std::size_t reduced = 0;  // slices whose reduce-scatter is posted
    std::size_t staged = 0;   // slices whose folds and D2H are queued
    auto reduce_next = [&] {
      if (members > 1 && reduced < n) {
        reduce[reduced] = exchange(reduced, 0, false, 0);
        ++reduced;
      }
    };
    reduce_next();
    for (std::size_t k = 0; k < n; ++k) {
      while (staged < n && staged <= k + static_cast<std::size_t>(prefetch)) {
        const Stage& s = at(staged);
        if (members > 1) {
          fiber = std::max(fiber, port.done(reduce[staged], fiber));
          for (sim::SimTime f = 0; f < others; ++f) {
            fiber += submit;
            d2h_free = std::max(d2h_free, fiber) + s.fold;
          }
        }
        if (leg) {
          fiber += submit;
          d2h_free = std::max(d2h_free, fiber) + s.d2h;
        }
        // A host trigger behind the queued work wakes the progress loop
        // for the sends gated on it.
        if (members > 1) fiber += submit;
        landed[staged++] = d2h_free;
        reduce_next();
      }
      const Stage& s = at(k);
      sim::SimTime ready = landed[k];
      sim::SimTime folded = 0;
      if (leg) {
        fiber = std::max(fiber, landed[k] - s.wire.head) + s.wire.wire;
        // The leg's deferred fold, then the write-back, on the H2D stream.
        if (s.wire.fold > 0) {
          fiber += submit;
          folded = h2d_free = std::max(h2d_free, fiber) + s.wire.fold;
        }
        fiber += submit;
        h2d_free = std::max(h2d_free, fiber) + s.h2d;
        ready = h2d_free;
        if (members > 1) fiber += submit;
      }
      if (members > 1) exchange(k, ready, true, folded);
    }
    return std::max({fiber, h2d_free, members > 1 ? port.drain() : 0});
  };
  // Every member waits for its slowest co-member. Pieces one double apart
  // price alike unless the threshold between eager and rendezvous falls
  // between them, where the smaller, eager one is the slower.
  auto straddles = [&](std::size_t b) {
    const std::size_t c = b / sizeof(double);
    const std::size_t eager = comm_.tunables().eager_threshold;
    return m > 1 && sizeof(double) * (c / m) <= eager &&
           sizeof(double) * ((c + m - 1) / m) > eager;
  };
  const bool uneven = straddles(slice) || straddles(total - (n - 1) * slice);
  return uneven ? std::max(walk(true), walk(false)) : walk(true);
}

CollEngine::Priced CollEngine::pick_slice_bytes(std::size_t total,
                                                int prefetch, int members,
                                                const LegPrice& leg) const {
  // The power-of-two candidate with the least price. A two-level slice
  // adds the node's two exchanges to the fabric leg (at 2 ranks per node
  // about 100 simulator events per rank and slice), so there the largest
  // candidate priced within kSliceBand % of the least wins: where the
  // price barely moves, more slices buy the modeled system little and
  // cost the simulator's wall clock their events. The band never turns a
  // pipeline into one slice, whose legs all run back to back (4 ranks at
  // 2 per node, 64 KB: 79.21 us in two slices, 80.11 in one).
  constexpr std::size_t kMin = 16 * 1024;
  constexpr std::size_t kMax = std::size_t{4} << 20;
  std::vector<std::pair<std::size_t, sim::SimTime>> priced;
  sim::SimTime best = std::numeric_limits<sim::SimTime>::max();
  std::size_t s = 64 * 1024;
  for (std::size_t c = kMin; c <= kMax; c <<= 1) {
    const sim::SimTime cost = sliced_ns(total, c, prefetch, members, leg);
    priced.emplace_back(c, cost);
    if (cost < best) {
      best = cost;
      s = c;
    }
    if (c >= total) break;  // every larger candidate is the same one slice
  }
  if (members > 1) {
    const bool piped = s < total;
    for (const auto& [c, cost] : priced) {
      if (piped && c >= total) break;
      if (100 * cost <= (100 + kSliceBand) * best) s = c;
    }
  }
  // Per-slice tag offsets must stay inside one tag span.
  while ((total + s - 1) / s > static_cast<std::size_t>(kMaxDevSlices)) {
    s <<= 1;
  }
  for (const auto& [c, cost] : priced) {
    if (c == s) return {cost, s};
  }
  return {sliced_ns(total, s, prefetch, members, leg), s};
}

CollEngine::Priced CollEngine::device_ns(const DeviceCall& call,
                                         DeviceSchedule schedule,
                                         CollShape shape,
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
  const bool staged = schedule == DeviceSchedule::kStaged;
  switch (call.op) {
    case CollOp::kAllreduce: {
      const std::size_t count = b / sizeof(double);
      const bool striped = shape == CollShape::kTwoLevel && t.uniform >= 2 &&
                           count >= static_cast<std::size_t>(t.uniform);
      if (staged) {
        return {d2h(b) +
                (striped ? striped_ns(t, b)
                         : butterfly_ns(t, identity_ranks(p), b)) +
                h2d(b)};
      }
      // Seed the device accumulator, then the slice loop: over the whole
      // group, or per slice the node's exchanges around the stripe's leg
      // across nodes (none on one node).
      const std::vector<int> ranks = striped ? t.leaders : identity_ranks(p);
      LegPrice leg;
      if (ranks.size() > 1) {
        leg = [&](std::size_t len) { return slice_leg_ns(t, ranks, len); };
      }
      Priced piped = pick_slice_bytes(b, striped ? kPiecePrefetch : kPrefetch,
                                      striped ? t.uniform : 1, leg);
      piped.ns += gpu.async_submit_ns +
                  gpu.copy_time(b, gpu::CopyDir::kDeviceToDevice);
      return piped;
    }
    case CollOp::kBcast:
      if (staged) {
        return {d2h(b) + bcast_tree_ns(t, shape, call.root, b) + h2d(b)};
      }
      return pick_slice_bytes(b, kMaxDevSlices, 1, [&](std::size_t len) {
        return SliceLeg{bcast_tree_ns(t, shape, call.root, len), 0};
      });
    case CollOp::kAllgather: {
      if (staged) {
        return {d2h(b) + allgather_ns(t, shape, b, false) +
                h2d(b * static_cast<std::size_t>(p))};
      }
      if (shape == CollShape::kTwoLevel && t.uniform > 1) {
        return {allgather_ns(t, shape, b, true)};
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
      return {2 * gpu.async_submit_ns +
              gpu.copy_time(b, gpu::CopyDir::kDeviceToHost) +
              std::max(steps * step + h2d, step + steps * h2d)};
    }
    default:
      return {};
  }
}

CollEngine::DevicePlan CollEngine::plan_device(const void* sendbuf,
                                               const void* recvbuf,
                                               const Datatype& dtype,
                                               const DeviceCall& call,
                                               const Topology& t,
                                               const CollForce& force) const {
  // The staged schedule runs the host algorithm, in the host rule's shape.
  DevicePlan plan{force.shape ? *force.shape
                              : shape_for(call.op, t, call.bytes),
                  std::nullopt};
  const bool send_dev = device_buffer(sendbuf);
  const bool recv_dev = device_buffer(recvbuf);
  if (!dtype.is_contiguous() || (!send_dev && !recv_dev)) return plan;
  plan.schedule = DeviceSchedule::kStaged;
  if (!send_dev || !recv_dev || t.node_of.size() <= 1 || call.bytes == 0 ||
      force.schedule == DeviceSchedule::kStaged ||
      (!force.schedule && !comm_.tunables().gpu_offload)) {
    return plan;
  }
  // A forced pipeline runs whatever it prices; otherwise it has to beat
  // staged.
  sim::SimTime best =
      force.schedule
          ? std::numeric_limits<sim::SimTime>::max()
          : device_ns(call, DeviceSchedule::kStaged, plan.shape, t).ns;
  for (CollShape shape : {CollShape::kFlat, CollShape::kTwoLevel}) {
    // Without a node holding two members both shapes run the same steps.
    if (force.shape ? shape != *force.shape
                    : shape == CollShape::kTwoLevel && !t.multi_rank_node) {
      continue;
    }
    const Priced piped = device_ns(call, DeviceSchedule::kPipelined, shape, t);
    if (piped.ns < best) {
      best = piped.ns;
      plan = {shape, DeviceSchedule::kPipelined, piped.slice};
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Sliced allreduce pipeline
// ---------------------------------------------------------------------------

cusim::Event CollEngine::device_slice_wire(CollOpStats& op,
                                           const CommGroup& g,
                                           const std::vector<int>& ranks,
                                           int me, double* data, int count,
                                           bool take_max, int slice,
                                           bool halving, cusim::Event gate) {
  static const Datatype double_t = committed_double();
  const int p = static_cast<int>(ranks.size());
  if (p <= 1) return {};
  cusim::CudaContext& ctx = comm_.cuda();
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
    launch_fold(op, coll_red_, data + off, tmp + off, cnt, take_max);
    ctx.record_event(coll_red_).synchronize();
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
  cusim::Event folded;
  if (newrank >= 0 && !halving) {
    // Full-slice recursive doubling. Without post-pairing the last round's
    // fold ends the leg: it runs on the write-back stream, ahead of the
    // slice's H2D, while this fiber moves on.
    int round = 0;
    for (int mask = 1; mask < pof2; mask <<= 1, ++round) {
      const int dst = world_of(rd.index(newrank ^ mask));
      const int tag = kTagDevArRd - (slice * kDevStride + round);
      Request rr = irecv_track(tmp, count, double_t, dst, tag, g.context);
      Request sr = gated_send(data, count, dst, tag);
      cwait(sr);
      cwait(rr);
      if (rd.rem == 0 && 2 * mask == pof2) {
        launch_fold(op, coll_h2d_, data, tmp, count, take_max);
        folded = ctx.record_event(coll_h2d_);
      } else {
        fold_at(0, count);
      }
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
  return folded;
}

void CollEngine::device_sliced_allreduce(CollOpStats& op, const CommGroup& g,
                                         const Topology& t,
                                         const DevicePlan& plan, double* dev,
                                         int count, bool take_max) {
  static const Datatype double_t = committed_double();
  ensure_coll_streams();
  cusim::CudaContext& ctx = comm_.cuda();
  sim::Engine& eng = comm_.engine();
  const gpu::GpuCostModel& gpu = hints_.gpu;
  // The node's members cut each slice into one piece apiece (the flat
  // shape: this rank alone, the piece the whole slice). Member j of every
  // node owns piece j and runs its wire leg with its counterparts.
  const bool two_level = plan.shape == CollShape::kTwoLevel &&
                         t.uniform >= 2 && count >= t.uniform;
  const std::vector<int> mem =
      two_level ? t.members[static_cast<std::size_t>(t.my_node)]
                : std::vector<int>{g.my_rank};
  const int m = static_cast<int>(mem.size());
  const int me = index_of(mem, g.my_rank);
  std::vector<int> stripe = identity_ranks(g.size());
  if (two_level) {
    stripe.clear();
    for (const std::vector<int>& node_mem : t.members) {
      stripe.push_back(node_mem[static_cast<std::size_t>(me)]);
    }
  }
  const int me_stripe = two_level ? t.my_node : g.my_rank;
  const bool fabric = stripe.size() > 1;
  if (two_level) {
    ++op.hier_calls;
    op.intra_phases += 2;
    if (fabric) ++op.leader_phases;
  }
  const int prefetch = two_level ? kPiecePrefetch : kPrefetch;
  const int sc = static_cast<int>(plan.slice / sizeof(double));
  const int S = (count + sc - 1) / sc;
  op.device_slices += static_cast<std::uint64_t>(S);

  auto world_of = [&](int j) {
    return g.world[static_cast<std::size_t>(mem[static_cast<std::size_t>(j)])];
  };
  // Piece j of slice k: the split the host ring uses, so a slice shorter
  // than the member count leaves some pieces empty.
  struct Piece {
    int off = 0;
    int len = 0;
  };
  auto piece = [&](int k, int j) {
    const int off = k * sc;
    const int len = std::min(sc, count - off);
    return Piece{off + j * (len / m) + std::min(j, len % m),
                 len / m + (j < len % m ? 1 : 0)};
  };
  auto bytes_of = [](int len) {
    return sizeof(double) * static_cast<std::size_t>(len);
  };
  // Every request the loop leaves in flight, waited for at the end.
  std::vector<Request> pending;
  // One piece of `len` doubles at `buf` to co-located `dst`, its payload
  // held by `gate` when valid. A device-direct rendezvous counts as peer
  // bytes; anything else crosses PCIe on some end. Its stage is the
  // modeled peer copy.
  auto send_piece = [&](const void* buf, int len, int dst, int tag,
                        cusim::Event gate) {
    const std::size_t b = bytes_of(len);
    const bool direct = device_buffer(buf) &&
                        b > comm_.tunables().eager_threshold &&
                        comm_.net().device_direct(dst);
    (direct ? op.bytes_peer : op.bytes_staged) += b;
    op.bytes_sent += b;
    op.device_stage_ns += hints_.ipc.per_msg_overhead_ns +
                          hints_.ipc.copy_time(b, hints_.ipc.peer_d2d_bw);
    Request r = comm_.isend(buf, len, double_t, dst, tag, g.context,
                            std::move(gate));
    inflight_.push_back(r);
    pending.push_back(r);
  };
  auto wake = [this] { comm_.wake_progress(); };

  struct SliceState {
    Piece mine;
    double* in = nullptr;                // co-members' pieces, member order
    std::vector<Request> arrivals;       // their receives, member order
    core::detail::StagingSlot* slot = nullptr;
    cusim::Event d2h;     // the piece staged to the host
    cusim::Event folded;  // the wire leg's deferred fold, if any
    cusim::Event ready;   // its result on the device
  };
  std::vector<SliceState> sl(static_cast<std::size_t>(S));

  // Intra reduce-scatter of slice k: every co-member's contribution to
  // this rank's piece arrives in device scratch, and this rank sends each
  // co-member its piece, n - 1 concurrent device-direct sends.
  auto post_reduce = [&](int k) {
    SliceState& s = sl[static_cast<std::size_t>(k)];
    const int tag = kTagAllreduceRs - k;
    if (s.mine.len > 0) {
      s.in = device_scratch(static_cast<std::size_t>((m - 1) * s.mine.len));
      for (int j = 0, i = 0; j < m; ++j) {
        if (j == me) continue;
        s.arrivals.push_back(irecv_track(s.in + i++ * s.mine.len, s.mine.len,
                                         double_t, world_of(j), tag,
                                         g.context));
      }
    }
    for (int d = 1; d < m; ++d) {
      const int j = (me + d) % m;
      const Piece pj = piece(k, j);
      if (pj.len > 0) send_piece(dev + pj.off, pj.len, world_of(j), tag, {});
    }
  };
  // Fold the arrivals in member order, then stage the piece: both on the
  // D2H stream, so the copy waits for the folds and no fiber does.
  auto post_stage = [&](int k) {
    SliceState& s = sl[static_cast<std::size_t>(k)];
    if (s.mine.len == 0) return;
    double* acc = dev + s.mine.off;
    const std::size_t b = bytes_of(s.mine.len);
    for (int i = 0; i < m - 1; ++i) {
      cwait(s.arrivals[static_cast<std::size_t>(i)]);
      launch_fold(op, coll_d2h_, acc, s.in + i * s.mine.len, s.mine.len,
                  take_max);
      op.device_stage_ns += gpu.reduce_time(b);
    }
    if (fabric) {
      s.slot = slot_scratch(b);
      ctx.memcpy_async(s.slot->ptr, acc, b, cusim::MemcpyKind::kDeviceToHost,
                       coll_d2h_);
      s.d2h = ctx.record_event(coll_d2h_);
      op.bytes_staged += b;
      op.device_stage_ns += gpu.copy_time(b, gpu::CopyDir::kDeviceToHost);
    } else {
      s.ready = ctx.record_event(coll_d2h_);
    }
    // A send gated on an event is re-driven by the progress loop, not by
    // the event completing: wake the loop the moment the stream gets
    // there, or the gated send sleeps until its retry timer (and charges
    // a spurious timeout).
    ctx.launch_host_trigger(coll_d2h_, wake);
  };
  // The piece's wire leg across nodes in the shape slice_leg_ns prices
  // cheaper for its length, gated on its D2H, and its write-back on the
  // H2D stream, behind the leg's deferred fold when it left one.
  auto run_wire = [&](int k) {
    SliceState& s = sl[static_cast<std::size_t>(k)];
    if (!fabric || s.mine.len == 0) return;
    auto* host = reinterpret_cast<double*>(s.slot->ptr);
    const std::size_t b = bytes_of(s.mine.len);
    const sim::SimTime wire_t0 = eng.now();
    s.folded = device_slice_wire(op, g, stripe, me_stripe, host, s.mine.len,
                                 take_max, k,
                                 slice_leg_ns(t, stripe, b).halving, s.d2h);
    ctx.memcpy_async(dev + s.mine.off, host, b,
                     cusim::MemcpyKind::kHostToDevice, coll_h2d_);
    op.device_stage_ns += eng.now() - wire_t0;
    if (s.folded.valid()) op.device_stage_ns += gpu.reduce_time(b);
    op.device_stage_ns += gpu.copy_time(b, gpu::CopyDir::kHostToDevice);
    op.bytes_staged += b;
    if (m > 1) {
      s.ready = ctx.record_event(coll_h2d_);
      ctx.launch_host_trigger(coll_h2d_, wake);
    }
  };
  // Intra allgather of slice k: each co-member's piece lands in place, and
  // this rank's goes to each co-member once its result is on the device.
  // An eager piece leaves from the host slot instead (an eager send would
  // block on the gate), once the leg's deferred fold wrote it; without a
  // slot (one node) it waits for the gate.
  auto post_gather = [&](int k) {
    SliceState& s = sl[static_cast<std::size_t>(k)];
    const int tag = kTagAllreduceAg - k;
    for (int j = 0; j < m; ++j) {
      const Piece pj = piece(k, j);
      if (j == me || pj.len == 0) continue;
      pending.push_back(irecv_track(dev + pj.off, pj.len, double_t,
                                    world_of(j), tag, g.context));
    }
    if (s.mine.len == 0) return;
    const std::size_t b = bytes_of(s.mine.len);
    for (int d = 1; d < m; ++d) {
      const int dst = world_of((me + d) % m);
      if (b > comm_.tunables().eager_threshold &&
          comm_.net().device_direct(dst)) {
        send_piece(dev + s.mine.off, s.mine.len, dst, tag, s.ready);
      } else if (s.slot != nullptr) {
        send_piece(s.slot->ptr, s.mine.len, dst, tag, s.folded);
      } else {
        s.ready.synchronize();
        send_piece(dev + s.mine.off, s.mine.len, dst, tag, {});
      }
    }
  };

  for (int k = 0; k < S; ++k) {
    sl[static_cast<std::size_t>(k)].mine = piece(k, me);
  }
  // Staging runs `prefetch` slices ahead of the wire and each slice's
  // reduce-scatter one ahead of its staging: in the two-level shape slice
  // k+1's folds and D2H, slice k+2's reduce-scatter and slice k-1's
  // allgather run while this fiber drives slice k's wire leg.
  int reduced = 0;
  int staged = 0;
  auto reduce_next = [&] {
    if (m > 1 && reduced < S) post_reduce(reduced++);
  };
  reduce_next();
  for (int k = 0; k < S; ++k) {
    while (staged < S && staged <= k + prefetch) {
      post_stage(staged++);
      reduce_next();
    }
    run_wire(k);
    if (m > 1) post_gather(k);
  }
  for (Request& r : pending) cwait(r);
  // Drain the write-back leg: the host trigger fires in scheduler context
  // the instant the stream empties and releases the waiting fiber.
  sim::EventFlag drained(eng);
  ctx.launch_host_trigger(coll_h2d_, [&drained] { drained.trigger(); });
  drained.wait("coll_device_drain");
}

void CollEngine::device_allreduce(CollOpStats& op, const double* sendbuf,
                                  double* recvbuf, int count, bool take_max,
                                  const CommGroup& g, const Topology& t,
                                  const DevicePlan& plan) {
  cusim::CudaContext& ctx = comm_.cuda();
  sim::Engine& eng = comm_.engine();
  const sim::SimTime t0 = eng.now();
  const std::size_t bytes = sizeof(double) * static_cast<std::size_t>(count);
  ++op.device_calls;

  if (g.size() == 1 || count == 0) {
    if (count > 0 && sendbuf != recvbuf) ctx.memcpy(recvbuf, sendbuf, bytes);
    finish_serial(op, t0);
    return;
  }

  if (plan.schedule == DeviceSchedule::kStaged) {
    // Staged schedule: full-size D2H, host butterfly, full-size H2D, fully
    // serialized.
    double* host = scratch<double>(static_cast<std::size_t>(count));
    stage_copy(op, host, sendbuf, bytes);
    allreduce_wire(op, host, count, take_max, g, t, plan.shape);
    stage_copy(op, recvbuf, host, bytes);
    finish_serial(op, t0);
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
  device_sliced_allreduce(op, g, t, plan, recvbuf, count, take_max);
  op.device_elapsed_ns += eng.now() - t0;
}

// ---------------------------------------------------------------------------
// Bcast
// ---------------------------------------------------------------------------

void CollEngine::device_bcast(CollOpStats& op, void* buf, int count,
                              const Datatype& dtype, int root,
                              const CommGroup& g, const Topology& t,
                              const DevicePlan& plan) {
  cusim::CudaContext& ctx = comm_.cuda();
  sim::Engine& eng = comm_.engine();
  const sim::SimTime t0 = eng.now();
  ++op.device_calls;
  const std::size_t bytes = dtype.size() * static_cast<std::size_t>(count);
  if (g.size() == 1 || bytes == 0) {
    finish_serial(op, t0);
    return;
  }
  auto* dev = static_cast<std::byte*>(buf);

  if (plan.schedule == DeviceSchedule::kStaged) {
    std::byte* host = scratch<std::byte>(bytes);
    if (g.my_rank == root) stage_copy(op, host, dev, bytes);
    bcast_wire(op, host, count, dtype, root, g, t, plan.shape);
    if (g.my_rank != root) stage_copy(op, dev, host, bytes);
    finish_serial(op, t0);
    return;
  }

  // Pipelined: per slice, the root stages D2H and the host bcast tree
  // (flat binomial, or leaders then node members with the root leading its
  // node) runs over staging slots; receivers write each arriving slice
  // back on coll_h2d_ while later slices are still on the wire.
  ++op.device_pipelined;
  ensure_coll_streams();
  static const Datatype byte_t = committed_byte();
  const std::size_t slice_bytes = plan.slice;
  const int S = static_cast<int>((bytes + slice_bytes - 1) / slice_bytes);
  op.device_slices += static_cast<std::uint64_t>(S);
  Topology tree = t;
  const bool two_level = plan_bcast(op, g, root, plan.shape, tree);
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
          hints_.gpu.copy_time(slice_len(k), gpu::CopyDir::kDeviceToHost);
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
          hints_.gpu.copy_time(b, gpu::CopyDir::kHostToDevice);
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
                                  const Topology& t, const DevicePlan& plan) {
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
    finish_serial(op, t0);
    return;
  }

  if (plan.schedule == DeviceSchedule::kStaged) {
    const std::size_t total = block * static_cast<std::size_t>(p);
    std::byte* hin = scratch<std::byte>(block);
    std::byte* hout = scratch<std::byte>(total);
    stage_copy(op, hin, sendbuf, block);
    allgather_wire(op, hin, count, dtype, hout, g, t, plan.shape);
    stage_copy(op, out, hout, total);
    finish_serial(op, t0);
    return;
  }

  ++op.device_pipelined;
  ensure_coll_streams();
  if (plan.shape == CollShape::kTwoLevel && t.uniform > 1) {
    // Two-level pass-through with device pointers: the intra ring and
    // co-member forwards peer-copy device memory directly (device_direct),
    // and each fabric stripe leg rides the rendezvous' own chunked
    // pipeline. The byte split below attributes this rank's sends to the
    // peer path when its node's IPC channel is device-direct.
    const std::uint64_t sent0 = op.bytes_sent;
    allgather_wire(op, sendbuf, count, dtype, recvbuf, g, t, plan.shape);
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
    finish_serial(op, t0);
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
      hints_.gpu.copy_time(block, gpu::CopyDir::kDeviceToHost);
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
        hints_.gpu.copy_time(block, gpu::CopyDir::kHostToDevice);
  }
  ctx.record_event(coll_red_).synchronize();  // own-block D2D
  sim::EventFlag drained(eng);
  ctx.launch_host_trigger(coll_h2d_, [&drained] { drained.trigger(); });
  drained.wait("coll_device_ag_drain");
  op.device_elapsed_ns += eng.now() - t0;
}

}  // namespace mv2gnc::mpisim::detail
