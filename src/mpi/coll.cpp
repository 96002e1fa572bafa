#include "mpi/coll.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "mpi/coll_common.hpp"

namespace mv2gnc::mpisim::detail {

Request CollEngine::isend_counted(CollOpStats& op, const void* buf, int count,
                                  const Datatype& dtype, int dst_world,
                                  int tag, int context) {
  op.bytes_sent += dtype.size() * static_cast<std::size_t>(count);
  Request r = comm_.isend(buf, count, dtype, dst_world, tag, context);
  inflight_.push_back(r);
  return r;
}

Request CollEngine::irecv_track(void* buf, int count, const Datatype& dtype,
                                int src, int tag, int context) {
  Request r = comm_.irecv(buf, count, dtype, src, tag, context);
  inflight_.push_back(r);
  return r;
}

// ---------------------------------------------------------------------------
// Abort protocol (docs/RELIABILITY.md, "Collective abort")
// ---------------------------------------------------------------------------

sim::SimTime CollEngine::watchdog_budget() const {
  const core::Tunables& tun = comm_.tunables();
  // The p2p layer's worst case: a receiver watchdog spends twice the
  // sender's budget (see RndvRecv::handle_timeout), i.e. the backoff
  // series up to 2 * rndv_max_retries. Scale by coll_watchdog_factor so a
  // struggling-but-recovering transfer never trips the collective
  // watchdog before the p2p layer has resolved it one way or the other.
  // Saturate like backoff_deadline in rndv.cpp: generous retry configs
  // (large rndv_max_retries with exponential backoff) would overflow
  // SimTime; a ~11-virtual-day deadline is "never" for any simulation.
  constexpr double kCapNs = 1e15;
  double budget = 0.0;
  double step = static_cast<double>(tun.rndv_timeout_ns);
  for (std::size_t i = 0; i <= 2 * tun.rndv_max_retries; ++i) {
    budget += step;
    step *= tun.rndv_backoff_factor;
    if (!(budget < kCapNs)) break;
  }
  budget *= tun.coll_watchdog_factor;
  if (!(budget < kCapNs)) budget = kCapNs;
  return static_cast<sim::SimTime>(budget);
}

void CollEngine::cwait(Request& r) {
  comm_.coll_wait(r, nullptr, cur_context_, cur_seq_,
                  comm_.engine().now() + wait_budget_);
}

void CollEngine::abort_collective(const CommGroup& g, std::uint64_t seq,
                                  int origin) {
  // Order matters: park the scratch before the wave goes out, so even if
  // posting the wave itself threw, no freed buffer could back a still-
  // posted receive of the abandoned operation.
  comm_.park_scratch(std::move(scratch_));
  scratch_.clear();
  settle_coll_slots(/*aborted=*/true);
  comm_.coll_send_abort_wave(g, seq, origin);
  // Withdraw every still-open request of the abandoned operation. Receives
  // are local; sends retract their RTS from the peer (RndvSend::cancel).
  // Without this, an isend whose matching receive will never be posted —
  // its peer aborted the same collective — stays alive indefinitely and
  // strands finalize's drain_pending.
  for (Request& r : inflight_) comm_.cancel_request(r);
  inflight_.clear();
}

template <typename Fn>
void CollEngine::run_guarded(const CommGroup& g, Fn&& body) {
  // Throws RequestError immediately when the context is already poisoned
  // by an earlier abort — before any message goes out.
  const std::uint64_t seq = comm_.coll_begin(g.context);
  cur_context_ = g.context;
  cur_seq_ = seq;
  wait_budget_ = watchdog_budget();
  try {
    body(map_nodes(g));
    scratch_.clear();  // completed: nothing can deliver into scratch anymore
    settle_coll_slots(/*aborted=*/false);
    inflight_.clear();
  } catch (const RequestError& e) {
    // A p2p leg of this collective failed permanently: this rank is the
    // abort origin.
    abort_collective(g, seq, comm_.rank());
    throw RequestError("collective #" + std::to_string(seq) +
                       " on context " + std::to_string(g.context) +
                       " aborted (origin rank " + std::to_string(comm_.rank()) +
                       "): " + e.what());
  } catch (const CollAbortObserved& a) {
    // Another rank aborted (possibly an earlier collective whose wave
    // raced ahead); forward the wave — redundant receipts are idempotent,
    // and forwarding covers members whose copy was dropped.
    abort_collective(g, a.seq, a.origin);
    throw RequestError("collective #" + std::to_string(seq) +
                       " on context " + std::to_string(g.context) +
                       " aborted by COLL_ABORT wave from rank " +
                       std::to_string(a.origin));
  } catch (const CollWatchdogExpired&) {
    abort_collective(g, seq, comm_.rank());
    throw RequestError("collective #" + std::to_string(seq) +
                       " on context " + std::to_string(g.context) +
                       " aborted: liveness watchdog expired (origin rank " +
                       std::to_string(comm_.rank()) + ")");
  }
  // RankCrashed deliberately passes through untouched: a crashed rank
  // sends no wave — its peers detect the silence themselves.
}

void CollEngine::barrier(const CommGroup& g, const CollForce& force) {
  run_guarded(g, [&](const Topology& t) {
    barrier_impl(g, t,
                 force.shape ? *force.shape
                             : shape_for(CollOp::kBarrier, t, 0));
  });
}

void CollEngine::bcast(void* buf, int count, const Datatype& dtype, int root,
                       const CommGroup& g, const CollForce& force) {
  const std::size_t bytes = dtype.size() * static_cast<std::size_t>(count);
  run_guarded(g, [&](const Topology& t) {
    bcast_impl(buf, count, dtype, root, g, t,
               plan_device(buf, buf, dtype, {CollOp::kBcast, bytes, root}, t,
                           force));
  });
}

void CollEngine::allreduce_doubles(const double* sendbuf, double* recvbuf,
                                   int count, bool take_max,
                                   const CommGroup& g,
                                   const CollForce& force) {
  const std::size_t bytes = sizeof(double) * static_cast<std::size_t>(count);
  static const Datatype double_t = committed_double();
  run_guarded(g, [&](const Topology& t) {
    allreduce_impl(sendbuf, recvbuf, count, take_max, g, t,
                   plan_device(sendbuf, recvbuf, double_t,
                               {CollOp::kAllreduce, bytes}, t, force));
  });
}

void CollEngine::allgather(const void* sendbuf, int count,
                           const Datatype& dtype, void* recvbuf,
                           const CommGroup& g, const CollForce& force) {
  const std::size_t block = static_cast<std::size_t>(dtype.extent()) *
                            static_cast<std::size_t>(count);
  run_guarded(g, [&](const Topology& t) {
    allgather_impl(sendbuf, count, dtype, recvbuf, g, t,
                   plan_device(sendbuf, recvbuf, dtype,
                               {CollOp::kAllgather, block}, t, force));
  });
}

void CollEngine::alltoall(const void* sendbuf, void* recvbuf, int count,
                          const Datatype& dtype, const CommGroup& g,
                          const CollForce& force) {
  const std::size_t block = static_cast<std::size_t>(dtype.extent()) *
                            static_cast<std::size_t>(count);
  run_guarded(g, [&](const Topology& t) {
    alltoall_impl(sendbuf, recvbuf, count, dtype, g, t,
                  force.shape ? *force.shape
                              : shape_for(CollOp::kAlltoall, t, block));
  });
}

void CollEngine::gather(const void* sendbuf, int count, const Datatype& dtype,
                        void* recvbuf, int root, const CommGroup& g) {
  run_guarded(g, [&](const Topology&) {
    gather_impl(sendbuf, count, dtype, recvbuf, root, g);
  });
}

void CollEngine::scatter(const void* sendbuf, void* recvbuf, int count,
                         const Datatype& dtype, int root, const CommGroup& g) {
  run_guarded(g, [&](const Topology&) {
    scatter_impl(sendbuf, recvbuf, count, dtype, root, g);
  });
}

CollEngine::Topology CollEngine::map_nodes(const CommGroup& g) const {
  Topology t;
  // Tunables::validate() rejects ranks_per_node == 0, but a RankComm can be
  // handed tunables that never went through it (mutated in place by a test
  // or bench); clamp rather than divide by zero.
  const int rpn =
      std::max(1, static_cast<int>(comm_.tunables().ranks_per_node));
  const int p = g.size();
  t.node_of.resize(static_cast<std::size_t>(p));
  std::vector<int> phys;  // dense index -> physical node id
  for (int i = 0; i < p; ++i) {
    const int node = g.world[static_cast<std::size_t>(i)] / rpn;
    int dense = index_of(phys, node);
    if (dense < 0) {
      dense = static_cast<int>(phys.size());
      phys.push_back(node);
      t.members.emplace_back();
      t.leaders.push_back(i);
    }
    t.node_of[static_cast<std::size_t>(i)] = dense;
    t.members[static_cast<std::size_t>(dense)].push_back(i);
    if (t.members[static_cast<std::size_t>(dense)].size() > 1) {
      t.multi_rank_node = true;
    }
    if (i == g.my_rank) t.my_node = dense;
  }
  t.uniform = uniform_node_size(t.members);
  return t;
}

// ---------------------------------------------------------------------------
// Shape rule
// ---------------------------------------------------------------------------

namespace {

// Per-rank virtual clocks of one collective schedule, advanced message by
// message at the cost the simulator charges for a contiguous message on
// its link (net/fabric.cpp, net/ipc.cpp, core/rndv.cpp, mpi/rank_comm.cpp):
//   eager       the sender's CPU posts, its link's transmit queue
//               serializes descriptor + header + payload, and the message
//               lands one latency later; a device buffer's payload first
//               crosses PCIe into the pageable message (a blocking D2H,
//               stage_to_host_any) and lands with a blocking H2D
//               (deliver_eager);
//   rendezvous  once both ends are ready, the handshake's six one-way
//               control legs plus one more descriptor and one post fewer
//               on the critical path (measured), plus the payload at the
//               link's rate (host memory over IPC: shm below the channel's
//               CMA threshold, CMA at or above it; device memory over IPC:
//               one device-direct peer copy; device memory over the
//               fabric: the first chunk's D2H where it outlasts the RTS
//               and CTS legs, and the last chunk's H2D). In an exchange, a
//               partner that became ready a control leg or more earlier
//               already sent its RTS; its CTS then queues behind its own
//               payload, so the exchange moves the payload twice;
//   fold        a device reduction kernel, submitted and waited for.
class StepClock {
 public:
  StepClock(const CollCostHints& h, const core::Tunables& tun, int ranks)
      : h_(h),
        eager_(tun.eager_threshold),
        chunk_(tun.chunk_bytes),
        ready_(static_cast<std::size_t>(ranks), 0),
        tx_fabric_(static_cast<std::size_t>(ranks), 0),
        tx_ipc_(static_cast<std::size_t>(ranks), 0) {}

  /// a sends `bytes` of host or `device` memory to b (one way).
  void send(int a, int b, bool local, std::size_t bytes, bool device = false) {
    if (bytes <= eager_) {
      if (device) at(a) += d2h_pageable(bytes);
      const sim::SimTime arrival = post_eager(a, local, bytes);
      at(b) = std::max(at(b), arrival) + (device ? h2d_pageable(bytes) : 0);
    } else {
      rendezvous(a, b, local, bytes, device, /*exchange=*/false);
    }
  }
  /// a and b swap `bytes` each.
  void exchange(int a, int b, bool local, std::size_t bytes,
                bool device = false) {
    if (bytes <= eager_) {
      if (device) {
        at(a) += d2h_pageable(bytes);
        at(b) += d2h_pageable(bytes);
      }
      const sim::SimTime to_b = post_eager(a, local, bytes);
      const sim::SimTime to_a = post_eager(b, local, bytes);
      const sim::SimTime land = device ? h2d_pageable(bytes) : 0;
      at(a) = std::max(at(a), to_a) + land;
      at(b) = std::max(at(b), to_b) + land;
    } else {
      rendezvous(a, b, local, bytes, device, /*exchange=*/true);
    }
  }
  /// How long a send of `bytes` may run before its payload is ready: a
  /// rendezvous' RTS and CTS legs.
  sim::SimTime head_start(bool local, std::size_t bytes) const {
    return bytes > eager_ ? 2 * link(local).control_leg() : 0;
  }
  /// One send of `bytes` of device memory to a co-located rank, taken
  /// apart at its payload: an eager one at the payload's transmit slot, a
  /// rendezvous at its peer copy, which starts once its RTS and CTS
  /// crossed and leaves the rest of the handshake's measured total after
  /// it.
  IntraSend intra_send(std::size_t bytes) const {
    const Link l = link(true);
    if (bytes <= eager_) {
      return {true, d2h_pageable(bytes), l.post, 0,
              l.per_msg + l.at_rate(bytes + 64, l.ctrl_bw), l.latency,
              h2d_pageable(bytes)};
    }
    const sim::SimTime head = 2 * l.control_leg();
    return {false, 0, l.post, head, payload(true, bytes, true),
            6 * l.control_leg() + l.per_msg - l.post - head, 0};
  }
  /// a folds `bytes` into its accumulator with a reduction kernel.
  void fold(int a, std::size_t bytes) {
    at(a) += h_.gpu.async_submit_ns + h_.gpu.reduce_time(bytes);
  }
  sim::SimTime finish() const {
    return *std::max_element(ready_.begin(), ready_.end());
  }

 private:
  // One link's constants; both cost models charge bytes / rate, truncated.
  struct Link {
    sim::SimTime post, per_msg, latency;
    double ctrl_bw;  // headers and eager payloads
    sim::SimTime at_rate(std::size_t bytes, double bw) const {
      return static_cast<sim::SimTime>(static_cast<double>(bytes) / bw);
    }
    sim::SimTime control_leg() const {
      return post + per_msg + at_rate(64, ctrl_bw) + latency;
    }
  };
  Link link(bool local) const {
    return local ? Link{h_.ipc.post_overhead_ns, h_.ipc.per_msg_overhead_ns,
                        h_.ipc.latency_ns, h_.ipc.host_bw}
                 : Link{h_.fabric.post_overhead_ns,
                        h_.fabric.per_msg_overhead_ns, h_.fabric.latency_ns,
                        h_.fabric.bw};
  }

  sim::SimTime& at(int r) { return ready_[static_cast<std::size_t>(r)]; }

  sim::SimTime d2h_pageable(std::size_t bytes) const {
    return h_.gpu.copy_time(bytes, gpu::CopyDir::kDeviceToHost, false);
  }
  sim::SimTime h2d_pageable(std::size_t bytes) const {
    return h_.gpu.copy_time(bytes, gpu::CopyDir::kHostToDevice, false);
  }

  sim::SimTime post_eager(int a, bool local, std::size_t bytes) {
    const Link l = link(local);
    at(a) += l.post;
    sim::SimTime& tx =
        (local ? tx_ipc_ : tx_fabric_)[static_cast<std::size_t>(a)];
    tx = std::max(tx, at(a)) + l.per_msg + l.at_rate(bytes + 64, l.ctrl_bw);
    return tx + l.latency;
  }

  sim::SimTime payload(bool local, std::size_t bytes, bool device) const {
    const Link l = link(local);
    if (local) {
      return l.at_rate(bytes, device ? h_.ipc.peer_d2d_bw
                                     : h_.ipc.host_copy_bw(bytes));
    }
    sim::SimTime t = l.at_rate(bytes, h_.fabric.bw);
    if (device) {
      const std::size_t chunk = std::min(bytes, chunk_);
      t += std::max<sim::SimTime>(
               h_.gpu.copy_time(chunk, gpu::CopyDir::kDeviceToHost) -
                   2 * l.control_leg(),
               0) +
           h_.gpu.copy_time(chunk, gpu::CopyDir::kHostToDevice);
    }
    return t;
  }

  void rendezvous(int a, int b, bool local, std::size_t bytes, bool device,
                  bool exchange) {
    const Link l = link(local);
    const sim::SimTime data = payload(local, bytes, device);
    const sim::SimTime skew = at(a) > at(b) ? at(a) - at(b) : at(b) - at(a);
    const sim::SimTime done =
        std::max(at(a), at(b)) + 6 * l.control_leg() + l.per_msg - l.post +
        data + (exchange && skew >= l.control_leg() ? data : 0);
    at(a) = done;
    at(b) = done;
  }

  const CollCostHints& h_;
  std::size_t eager_;
  std::size_t chunk_;
  std::vector<sim::SimTime> ready_;
  std::vector<sim::SimTime> tx_fabric_;
  std::vector<sim::SimTime> tx_ipc_;
};

}  // namespace

sim::SimTime CollEngine::butterfly_ns(const Topology& t,
                                      const std::vector<int>& ranks,
                                      std::size_t bytes) const {
  StepClock clock(hints_, comm_.tunables(), static_cast<int>(ranks.size()));
  auto local = [&](int a, int b) {
    return t.same_node(ranks[static_cast<std::size_t>(a)],
                       ranks[static_cast<std::size_t>(b)]);
  };
  RdSchedule(static_cast<int>(ranks.size()))
      .for_each_step([&](const RdSchedule::Step& st) {
        if (st.kind == RdSchedule::kRound) {
          clock.exchange(st.a, st.b, local(st.a, st.b), bytes);
        } else {
          clock.send(st.a, st.b, local(st.a, st.b), bytes);
        }
      });
  return clock.finish();
}

sim::SimTime CollEngine::striped_ns(const Topology& t,
                                    std::size_t bytes) const {
  // Every member runs the same ring steps on the largest slice; the
  // stripe butterfly spans one member per node, all over the fabric.
  const std::size_t n = static_cast<std::size_t>(t.uniform);
  const std::size_t count = bytes / sizeof(double);
  const std::size_t slice = sizeof(double) * ((count + n - 1) / n);
  return 2 * static_cast<sim::SimTime>(n - 1) *
             ring_step_ns(/*local=*/true, slice, /*device=*/false) +
         butterfly_ns(t, t.leaders, slice);
}

sim::SimTime CollEngine::ring_step_ns(bool local, std::size_t bytes,
                                      bool device) const {
  StepClock ring(hints_, comm_.tunables(), 2);
  ring.exchange(0, 1, local, bytes, device);
  return ring.finish();
}

IntraSend CollEngine::intra_send_ns(std::size_t bytes) const {
  return StepClock(hints_, comm_.tunables(), 0).intra_send(bytes);
}

CollEngine::SliceLeg CollEngine::slice_leg_ns(const Topology& t,
                                              const std::vector<int>& ranks,
                                              std::size_t bytes) const {
  // The message order of device_slice_wire: pre-pairing, then the halving
  // reduce-scatter and the doubling allgather or the full-slice butterfly,
  // then post-pairing.
  const int p = static_cast<int>(ranks.size());
  auto local = [&](int a, int b) {
    return t.same_node(ranks[static_cast<std::size_t>(a)],
                       ranks[static_cast<std::size_t>(b)]);
  };
  const RdSchedule rd(p);
  const std::size_t count = bytes / sizeof(double);
  auto price = [&](bool halving) {
    StepClock clock(hints_, comm_.tunables(), p);
    // Every pair of butterfly members `dist` apart swaps `part` bytes and,
    // when `fold`, folds them.
    auto round = [&](int dist, std::size_t part, bool fold) {
      for (int nr = 0; nr < rd.pof2; ++nr) {
        if ((nr ^ dist) < nr) continue;
        const int a = rd.index(nr);
        const int b = rd.index(nr ^ dist);
        clock.exchange(a, b, local(a, b), part);
        if (fold) {
          clock.fold(a, part);
          clock.fold(b, part);
        }
      }
    };
    // The larger share of each split: one element more when it is uneven.
    auto part = [&](int dist) {
      if (!halving) return bytes;
      const std::size_t pof2 = static_cast<std::size_t>(rd.pof2);
      return sizeof(double) *
             ((count * static_cast<std::size_t>(dist) + pof2 - 1) / pof2);
    };
    // The first message on the critical path, the pre-pairing send or else
    // the first exchange, sends its RTS while the slice's D2H runs (the
    // gate holds only its payload).
    const int first = halving ? rd.pof2 / 2 : 1;
    const sim::SimTime head =
        rd.rem > 0 ? clock.head_start(local(0, 1), bytes)
                   : clock.head_start(local(rd.index(0), rd.index(first)),
                                      part(first));
    for (int i = 0; i < rd.rem; ++i) {
      clock.send(2 * i, 2 * i + 1, local(2 * i, 2 * i + 1), bytes);
      clock.fold(2 * i + 1, bytes);
    }
    // A butterfly without post-pairing ends in its last round's fold, which
    // leaves the leg for the write-back stream.
    const bool defer = !halving && rd.rem == 0;
    if (!halving) {
      for (int dist = 1; dist < rd.pof2; dist <<= 1) {
        round(dist, bytes, !defer || 2 * dist < rd.pof2);
      }
    } else {
      for (int dist = rd.pof2 / 2; dist >= 1; dist >>= 1) {
        round(dist, part(dist), true);
      }
      for (int dist = 1; dist < rd.pof2; dist <<= 1) {
        round(dist, part(dist), false);
      }
    }
    for (int i = 0; i < rd.rem; ++i) {
      clock.send(2 * i + 1, 2 * i, local(2 * i, 2 * i + 1), bytes);
    }
    return SliceLeg{clock.finish(), head,
                    defer ? hints_.gpu.reduce_time(bytes) : 0, halving};
  };
  // Halving splits the slice into pof2 shares of at least two elements.
  const SliceLeg doubling = price(false);
  if (count < 2 * static_cast<std::size_t>(rd.pof2)) return doubling;
  const SliceLeg halving = price(true);
  return halving.wire + halving.fold <= doubling.wire + doubling.fold
             ? halving
             : doubling;
}

sim::SimTime CollEngine::bcast_tree_ns(const Topology& t, CollShape shape,
                                       int root, std::size_t bytes) const {
  StepClock clock(hints_, comm_.tunables(),
                  static_cast<int>(t.node_of.size()));
  // binomial_bcast's sends, each rank's in its own order: relative rank
  // rel receives at its lowest set bit and then sends at every lower bit.
  auto binomial = [&](const std::vector<int>& ranks, int root_idx) {
    const int n = static_cast<int>(ranks.size());
    int top = 1;
    while (top < n) top <<= 1;
    for (int mask = top >> 1; mask >= 1; mask >>= 1) {
      for (int rel = 0; rel + mask < n; rel += 2 * mask) {
        const int a = ranks[static_cast<std::size_t>((rel + root_idx) % n)];
        const int b =
            ranks[static_cast<std::size_t>((rel + mask + root_idx) % n)];
        clock.send(a, b, t.same_node(a, b), bytes);
      }
    }
  };
  if (shape == CollShape::kFlat || !t.multi_rank_node) {
    binomial(identity_ranks(static_cast<int>(t.node_of.size())), root);
    return clock.finish();
  }
  // plan_bcast's tree: the root leads its node.
  const int root_node = t.node_of[static_cast<std::size_t>(root)];
  std::vector<int> leaders = t.leaders;
  leaders[static_cast<std::size_t>(root_node)] = root;
  if (t.num_nodes() > 1) binomial(leaders, root_node);
  for (int d = 0; d < t.num_nodes(); ++d) {
    const std::vector<int>& mem = t.members[static_cast<std::size_t>(d)];
    if (mem.size() > 1) {
      binomial(mem, index_of(mem, leaders[static_cast<std::size_t>(d)]));
    }
  }
  return clock.finish();
}

sim::SimTime CollEngine::ring_ns(const Topology& t,
                                 const std::vector<int>& ranks,
                                 std::size_t bytes, bool device) const {
  // Link i carries member i's sends to member i + 1.
  const std::size_t n = ranks.size();
  sim::SimTime all = 0;
  sim::SimTime slowest = 0;
  sim::SimTime cheapest = std::numeric_limits<sim::SimTime>::max();
  for (std::size_t i = 0; i < n; ++i) {
    const sim::SimTime link =
        ring_step_ns(t.same_node(ranks[i], ranks[(i + 1) % n]), bytes, device);
    all += link;
    slowest = std::max(slowest, link);
    cheapest = std::min(cheapest, link);
  }
  // Rendezvous steps run in lockstep at the pace of the slowest link. An
  // eager block hops on as soon as it lands, so the last block's n - 1
  // hops add up: every link but the one it never crosses.
  if (bytes > comm_.tunables().eager_threshold) {
    return static_cast<sim::SimTime>(n - 1) * slowest;
  }
  return all - cheapest;
}

sim::SimTime CollEngine::allgather_ns(const Topology& t, CollShape shape,
                                      std::size_t block, bool device) const {
  const int p = static_cast<int>(t.node_of.size());
  // The own block through the p2p self path (IPC at rpn > 1, else the
  // fabric's loopback).
  const sim::SimTime self = ring_step_ns(t.multi_rank_node, block, device);
  if (shape == CollShape::kFlat || t.uniform < 2) {
    return self + ring_ns(t, identity_ranks(p), block, device);
  }
  // Intra ring, then the stripe ring across nodes; each arriving block
  // goes on to the n - 1 co-members while the next fabric step runs, so
  // a step costs the slower of the two and the last fan-out stays exposed.
  const sim::SimTime n1 = t.uniform - 1;
  const sim::SimTime intra = ring_step_ns(true, block, device);
  const sim::SimTime fabric = ring_step_ns(false, block, device);
  const sim::SimTime fan = n1 * intra;
  const sim::SimTime l1 = t.num_nodes() - 1;
  return self + n1 * intra + (l1 > 0 ? l1 * std::max(fabric, fan) + fan : 0);
}

CollShape CollEngine::shape_for(CollOp op, const Topology& t,
                                std::size_t bytes) const {
  const core::Tunables& tun = comm_.tunables();
  // Without the IPC channel the "intra-node" leg rides the fabric too, so
  // the split only adds phases.
  if (tun.transport_select != core::TransportSelect::kAuto) {
    return CollShape::kFlat;
  }
  if (!t.multi_rank_node) return CollShape::kFlat;
  const bool striped =
      t.uniform > 1 &&
      bytes / sizeof(double) >= static_cast<std::size_t>(t.uniform);
  bool two_level = false;
  switch (op) {
    case CollOp::kBarrier:
      // On one node the leader's fan-in and fan-out serialize n - 1
      // messages each: 1.2-2x slower than the dissemination, measured.
      two_level = t.num_nodes() > 1;
      break;
    case CollOp::kBcast:
      two_level = true;
      break;
    case CollOp::kAllgather:
      two_level = t.uniform > 1;
      break;
    case CollOp::kAlltoall:
      // The co-located-first order pays off once each step is a
      // rendezvous; with eager steps it measured up to 24 % slower.
      two_level = t.uniform > 1 && bytes > tun.eager_threshold;
      break;
    case CollOp::kAllreduce: {
      const int p = static_cast<int>(t.node_of.size());
      two_level = striped && striped_ns(t, bytes) <
                                 butterfly_ns(t, identity_ranks(p), bytes);
      break;
    }
  }
  return two_level ? CollShape::kTwoLevel : CollShape::kFlat;
}

// ---------------------------------------------------------------------------
// Shared primitives
// ---------------------------------------------------------------------------

void CollEngine::dissemination(CollOpStats& op, const CommGroup& g,
                               const std::vector<int>& ranks, int me,
                               int tag_base) {
  static const Datatype byte_t = committed_byte();
  const int p = static_cast<int>(ranks.size());
  char* token = scratch<char>(1);
  int round = 0;
  for (int mask = 1; mask < p; mask <<= 1, ++round) {
    const int dst =
        g.world[static_cast<std::size_t>(ranks[static_cast<std::size_t>(
            (me + mask) % p)])];
    const int src =
        g.world[static_cast<std::size_t>(ranks[static_cast<std::size_t>(
            (me - mask + p) % p)])];
    Request sreq =
        isend_counted(op, token, 1, byte_t, dst, tag_base - round, g.context);
    Request rreq = irecv_track(token, 1, byte_t, src, tag_base - round,
                               g.context);
    cwait(sreq);
    cwait(rreq);
  }
}

void CollEngine::binomial_bcast(CollOpStats& op, const CommGroup& g,
                                const std::vector<int>& ranks, int me,
                                int root_idx, void* buf, int count,
                                const Datatype& dtype, int tag) {
  const int p = static_cast<int>(ranks.size());
  if (p <= 1) return;
  const int relative = (me - root_idx + p) % p;
  auto world_of = [&](int rel) {
    return g.world[static_cast<std::size_t>(
        ranks[static_cast<std::size_t>((rel + root_idx) % p)])];
  };
  int mask = 1;
  while (mask < p) {
    if (relative & mask) {
      Request r = irecv_track(buf, count, dtype, world_of(relative - mask),
                              tag, g.context);
      cwait(r);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < p) {
      Request sr = isend_counted(op, buf, count, dtype,
                                 world_of(relative + mask), tag, g.context);
      cwait(sr);
    }
    mask >>= 1;
  }
}

void CollEngine::rd_allreduce(CollOpStats& op, const CommGroup& g,
                              const std::vector<int>& ranks, int me,
                              double* recvbuf, int count, bool take_max) {
  static const Datatype double_t = committed_double();
  const int p = static_cast<int>(ranks.size());
  if (p <= 1) return;
  double* tmp = scratch<double>(static_cast<std::size_t>(count));
  RdSchedule(p).for_each_step([&](const RdSchedule::Step& st) {
    if (st.a != me && st.b != me) return;
    const int peer = g.world[static_cast<std::size_t>(
        ranks[static_cast<std::size_t>(st.a == me ? st.b : st.a)])];
    switch (st.kind) {
      case RdSchedule::kPairIn:  // the even member folds into the odd one
        if (me == st.a) {
          Request s = isend_counted(op, recvbuf, count, double_t, peer,
                                    kTagAllreducePair - 0, g.context);
          cwait(s);
        } else {
          Request r = irecv_track(tmp, count, double_t, peer,
                                  kTagAllreducePair - 0, g.context);
          cwait(r);
          reduce_into(recvbuf, tmp, count, take_max);
        }
        break;
      case RdSchedule::kRound: {
        Request rr = irecv_track(tmp, count, double_t, peer,
                                 kTagAllreduceRd - st.round, g.context);
        Request sr = isend_counted(op, recvbuf, count, double_t, peer,
                                   kTagAllreduceRd - st.round, g.context);
        cwait(sr);
        cwait(rr);
        reduce_into(recvbuf, tmp, count, take_max);
        break;
      }
      case RdSchedule::kPairOut:  // the odd member returns the result
        if (me == st.a) {
          Request s = isend_counted(op, recvbuf, count, double_t, peer,
                                    kTagAllreducePair - 1, g.context);
          cwait(s);
        } else {
          Request r = irecv_track(recvbuf, count, double_t, peer,
                                  kTagAllreducePair - 1, g.context);
          cwait(r);
        }
        break;
    }
  });
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

void CollEngine::barrier_impl(const CommGroup& g, const Topology& t,
                              CollShape shape) {
  CollOpStats& op = stats_.barrier;
  ++op.calls;
  if (shape == CollShape::kFlat || !t.multi_rank_node) {
    ++op.leader_phases;
    dissemination(op, g, identity_ranks(g.size()), g.my_rank, kTagBarrier);
    return;
  }
  ++op.hier_calls;
  static const Datatype byte_t = committed_byte();
  char* token = scratch<char>(1);
  const std::vector<int>& mem = t.members[static_cast<std::size_t>(t.my_node)];
  const int leader = t.leaders[static_cast<std::size_t>(t.my_node)];
  // Intra fan-in: every member reports to its node leader.
  if (mem.size() > 1) {
    ++op.intra_phases;
    if (g.my_rank == leader) {
      std::vector<Request> rs;
      for (int m : mem) {
        if (m == leader) continue;
        rs.push_back(irecv_track(token, 1, byte_t,
                                 g.world[static_cast<std::size_t>(m)],
                                 kTagBarrierFan - 0, g.context));
      }
      for (Request& r : rs) cwait(r);
    } else {
      Request s = isend_counted(op, token, 1, byte_t,
                                g.world[static_cast<std::size_t>(leader)],
                                kTagBarrierFan - 0, g.context);
      cwait(s);
    }
  }
  // Leader dissemination across nodes (the only fabric traffic).
  if (g.my_rank == leader && t.num_nodes() > 1) {
    ++op.leader_phases;
    dissemination(op, g, t.leaders, t.my_node, kTagBarrierLeader);
  }
  // Intra fan-out: the leader releases its members.
  if (mem.size() > 1) {
    ++op.intra_phases;
    if (g.my_rank == leader) {
      std::vector<Request> ss;
      for (int m : mem) {
        if (m == leader) continue;
        ss.push_back(isend_counted(op, token, 1, byte_t,
                                   g.world[static_cast<std::size_t>(m)],
                                   kTagBarrierFan - 1, g.context));
      }
      for (Request& s : ss) cwait(s);
    } else {
      Request r = irecv_track(token, 1, byte_t,
                              g.world[static_cast<std::size_t>(leader)],
                              kTagBarrierFan - 1, g.context);
      cwait(r);
    }
  }
}

// ---------------------------------------------------------------------------
// Bcast
// ---------------------------------------------------------------------------

void CollEngine::bcast_impl(void* buf, int count, const Datatype& dtype,
                            int root, const CommGroup& g, const Topology& t,
                            const DevicePlan& plan) {
  CollOpStats& op = stats_.bcast;
  ++op.calls;
  // Device-resident contiguous payloads take the staged/pipelined device
  // path; non-contiguous device types keep the legacy pass-through (the
  // rendezvous layer packs them per message).
  if (plan.schedule) {
    device_bcast(op, buf, count, dtype, root, g, t, plan);
    return;
  }
  bcast_wire(op, buf, count, dtype, root, g, t, plan.shape);
}

void CollEngine::bcast_wire(CollOpStats& op, void* buf, int count,
                            const Datatype& dtype, int root,
                            const CommGroup& g, const Topology& t,
                            CollShape shape) {
  if (g.size() == 1) return;
  Topology tree = t;
  const bool two_level = plan_bcast(op, g, root, shape, tree);
  bcast_tree(op, g, tree, two_level, root, buf, count, dtype, kTagBcast);
}

bool CollEngine::plan_bcast(CollOpStats& op, const CommGroup& g, int root,
                            CollShape shape, Topology& t) {
  if (shape == CollShape::kFlat || !t.multi_rank_node) {
    ++op.leader_phases;
    return false;
  }
  ++op.hier_calls;
  // The root leads its own node, so the payload enters both legs from it.
  const int root_node = t.node_of[static_cast<std::size_t>(root)];
  t.leaders[static_cast<std::size_t>(root_node)] = root;
  if (g.my_rank == t.leaders[static_cast<std::size_t>(t.my_node)] &&
      t.num_nodes() > 1) {
    ++op.leader_phases;
  }
  if (t.members[static_cast<std::size_t>(t.my_node)].size() > 1) {
    ++op.intra_phases;
  }
  return true;
}

void CollEngine::bcast_tree(CollOpStats& op, const CommGroup& g,
                            const Topology& t, bool two_level, int root,
                            void* buf, int count, const Datatype& dtype,
                            int tag) {
  if (!two_level) {
    binomial_bcast(op, g, identity_ranks(g.size()), g.my_rank, root, buf,
                   count, dtype, tag);
    return;
  }
  const std::vector<int>& mem = t.members[static_cast<std::size_t>(t.my_node)];
  const int leader = t.leaders[static_cast<std::size_t>(t.my_node)];
  if (g.my_rank == leader && t.num_nodes() > 1) {
    binomial_bcast(op, g, t.leaders, t.my_node,
                   t.node_of[static_cast<std::size_t>(root)], buf, count,
                   dtype, tag);
  }
  if (mem.size() > 1) {
    binomial_bcast(op, g, mem, index_of(mem, g.my_rank),
                   index_of(mem, leader), buf, count, dtype, tag);
  }
}

// ---------------------------------------------------------------------------
// Allreduce (doubles, sum/max)
// ---------------------------------------------------------------------------

void CollEngine::allreduce_impl(const double* sendbuf, double* recvbuf,
                                int count, bool take_max, const CommGroup& g,
                                const Topology& t, const DevicePlan& plan) {
  CollOpStats& op = stats_.allreduce;
  ++op.calls;
  if (plan.schedule) {
    device_allreduce(op, sendbuf, recvbuf, count, take_max, g, t, plan);
    return;
  }
  std::copy(sendbuf, sendbuf + count, recvbuf);
  if (g.size() == 1) return;
  allreduce_wire(op, recvbuf, count, take_max, g, t, plan.shape);
}

void CollEngine::allreduce_wire(CollOpStats& op, double* recvbuf, int count,
                                bool take_max, const CommGroup& g,
                                const Topology& t, CollShape shape) {
  // Two-level needs every node to hold the same n >= 2 members and at
  // least one element per member; ragged groups have no striped form.
  if (shape == CollShape::kFlat || t.uniform < 2 || count < t.uniform) {
    ++op.leader_phases;
    rd_allreduce(op, g, identity_ranks(g.size()), g.my_rank, recvbuf, count,
                 take_max);
    return;
  }
  striped_allreduce(op, recvbuf, count, take_max, g, t);
}

void CollEngine::striped_allreduce(CollOpStats& op, double* data, int count,
                                   bool take_max, const CommGroup& g,
                                   const Topology& t) {
  static const Datatype double_t = committed_double();
  ++op.hier_calls;
  const std::vector<int>& mem = t.members[static_cast<std::size_t>(t.my_node)];
  // Striped two-level allreduce: an intra-node ring reduce-scatter
  // leaves member j owning the node-reduced slice j; member j then runs
  // the recursive-doubling butterfly with its counterparts on the other
  // nodes (all n HCAs active in parallel, each on 1/n of the vector);
  // an intra-node ring allgather reassembles the full result. Versus
  // the flat butterfly this trades two cheap IPC phases for an n-fold
  // cut in per-round fabric bytes.
  const int n = t.uniform;
  const int me_local = index_of(mem, g.my_rank);
  const int q = count / n;
  const int r = count % n;
  auto slice_start = [&](int j) { return j * q + std::min(j, r); };
  auto slice_len = [&](int j) { return q + (j < r ? 1 : 0); };
  const int right = g.world[static_cast<std::size_t>(
      mem[static_cast<std::size_t>((me_local + 1) % n)])];
  const int left = g.world[static_cast<std::size_t>(
      mem[static_cast<std::size_t>((me_local - 1 + n) % n)])];
  double* tmp = scratch<double>(static_cast<std::size_t>(q + (r ? 1 : 0)));
  // One ring step: send slice sj right, receive slice rj from the left
  // into `into`.
  auto ring_step = [&](int sj, int rj, double* into, int tag) {
    Request rr = irecv_track(into, slice_len(rj), double_t, left, tag,
                             g.context);
    Request sr = isend_counted(op, data + slice_start(sj), slice_len(sj),
                               double_t, right, tag, g.context);
    cwait(sr);
    cwait(rr);
  };
  // Phase A: ring reduce-scatter. At step s member i forwards the
  // partial slice (i - s - 1) mod n and folds the arriving slice
  // (i - s - 2) mod n, so slice j circles the ring accumulating in a
  // fixed member order and lands fully reduced on member j.
  ++op.intra_phases;
  for (int s = 0; s < n - 1; ++s) {
    const int sj = ((me_local - s - 1) % n + n) % n;
    const int rj = ((me_local - s - 2) % n + n) % n;
    ring_step(sj, rj, tmp, kTagAllreduceRs - s);
    reduce_into(data + slice_start(rj), tmp, slice_len(rj), take_max);
  }
  // Phase B: per-stripe butterfly over the fabric. Counterpart members
  // (local index j on every node) allreduce slice j among themselves.
  if (t.num_nodes() > 1) {
    ++op.leader_phases;
    std::vector<int> stripe_group;
    stripe_group.reserve(t.members.size());
    for (const std::vector<int>& node_mem : t.members) {
      stripe_group.push_back(node_mem[static_cast<std::size_t>(me_local)]);
    }
    rd_allreduce(op, g, stripe_group, t.my_node, data + slice_start(me_local),
                 slice_len(me_local), take_max);
  }
  // Phase C: ring allgather of the reduced slices.
  ++op.intra_phases;
  for (int s = 0; s < n - 1; ++s) {
    const int sj = ((me_local - s) % n + n) % n;
    const int rj = ((me_local - s - 1) % n + n) % n;
    ring_step(sj, rj, data + slice_start(rj), kTagAllreduceAg - s);
  }
}

// ---------------------------------------------------------------------------
// Allgather
// ---------------------------------------------------------------------------

void CollEngine::allgather_impl(const void* sendbuf, int count,
                                const Datatype& dtype, void* recvbuf,
                                const CommGroup& g, const Topology& t,
                                const DevicePlan& plan) {
  CollOpStats& op = stats_.allgather;
  ++op.calls;
  if (plan.schedule) {
    device_allgather(op, sendbuf, count, dtype, recvbuf, g, t, plan);
    return;
  }
  allgather_wire(op, sendbuf, count, dtype, recvbuf, g, t, plan.shape);
}

void CollEngine::allgather_wire(CollOpStats& op, const void* sendbuf,
                                int count, const Datatype& dtype,
                                void* recvbuf, const CommGroup& g,
                                const Topology& t, CollShape shape) {
  const std::size_t block = static_cast<std::size_t>(dtype.extent()) *
                            static_cast<std::size_t>(count);
  const int p = g.size();
  const int my = g.my_rank;
  auto* out = static_cast<std::byte*>(recvbuf);
  // Own contribution through the p2p self path, so device buffers work
  // uniformly. Every transmission of rank r's block — in any phase — uses
  // tag kTagAgBlock - r; a given ordered pair carries a block at most once
  // per call, so the envelope (src, tag, context) stays unambiguous.
  {
    Request rr = irecv_track(out + static_cast<std::size_t>(my) * block,
                             count, dtype, g.world[static_cast<std::size_t>(my)],
                             kTagAgBlock - my, g.context);
    Request sr = isend_counted(op, sendbuf, count, dtype,
                               g.world[static_cast<std::size_t>(my)],
                               kTagAgBlock - my, g.context);
    cwait(sr);
    cwait(rr);
  }
  if (p == 1) return;
  // Two-level needs every node to hold the same n >= 2 members (the
  // striped rings pair member j of each node); ragged groups stay flat.
  if (shape == CollShape::kFlat || t.uniform < 2) {
    // Flat ring: direct block exchange, no root round-trip. Step s moves
    // block (my - s) right and receives block (my - s - 1) from the left.
    ++op.leader_phases;
    const int right = g.world[static_cast<std::size_t>((my + 1) % p)];
    const int left = g.world[static_cast<std::size_t>((my - 1 + p) % p)];
    for (int s = 0; s < p - 1; ++s) {
      const int sendb = (my - s + p) % p;
      const int recvb = (my - s - 1 + p) % p;
      Request rr = irecv_track(out + static_cast<std::size_t>(recvb) * block,
                               count, dtype, left, kTagAgBlock - recvb,
                               g.context);
      Request sr = isend_counted(op,
                                 out + static_cast<std::size_t>(sendb) * block,
                                 count, dtype, right, kTagAgBlock - sendb,
                                 g.context);
      cwait(sr);
      cwait(rr);
    }
    return;
  }
  ++op.hier_calls;
  const std::vector<int>& mem = t.members[static_cast<std::size_t>(t.my_node)];
  const int n = static_cast<int>(mem.size());
  const int me_local = index_of(mem, my);
  const int L = t.num_nodes();
  // Phase A: ring allgather among the node's members (IPC traffic), after
  // which everyone holds every co-located block.
  ++op.intra_phases;
  const int right = g.world[static_cast<std::size_t>(mem[
      static_cast<std::size_t>((me_local + 1) % n)])];
  const int left = g.world[static_cast<std::size_t>(mem[
      static_cast<std::size_t>((me_local - 1 + n) % n)])];
  for (int s = 0; s < n - 1; ++s) {
    const int sendb = mem[static_cast<std::size_t>((me_local - s + n) % n)];
    const int recvb =
        mem[static_cast<std::size_t>((me_local - s - 1 + n) % n)];
    Request rr = irecv_track(out + static_cast<std::size_t>(recvb) * block,
                             count, dtype, left, kTagAgBlock - recvb,
                             g.context);
    Request sr = isend_counted(op,
                               out + static_cast<std::size_t>(sendb) * block,
                               count, dtype, right, kTagAgBlock - sendb,
                               g.context);
    cwait(sr);
    cwait(rr);
  }
  if (L == 1) return;
  ++op.leader_phases;
  // Phase B, striped: member j of every node forms its own inter-node
  // ring carrying the j-th block of each node's superblock, so all n
  // HCAs move 1/n of the off-node volume in parallel (L-1 fabric steps
  // of one block each, versus L-1 steps of n blocks through a single
  // leader). Each arriving block is forwarded to the n-1 co-members
  // with non-blocking sends, so the in-node fan-out of step s overlaps
  // the fabric transfer of step s+1.
  const int d = t.my_node;
  const int rightc = g.world[static_cast<std::size_t>(
      t.members[static_cast<std::size_t>((d + 1) % L)]
               [static_cast<std::size_t>(me_local)])];
  const int leftc = g.world[static_cast<std::size_t>(
      t.members[static_cast<std::size_t>((d - 1 + L) % L)]
               [static_cast<std::size_t>(me_local)])];
  std::vector<Request> stripe;   // my ring's fabric receives, step order
  std::vector<Request> others;   // co-members' forwarded blocks
  for (int s = 0; s < L - 1; ++s) {
    const std::vector<int>& rnode =
        t.members[static_cast<std::size_t>((d - s - 1 + L) % L)];
    const int mb = rnode[static_cast<std::size_t>(me_local)];
    stripe.push_back(irecv_track(out + static_cast<std::size_t>(mb) * block,
                                 count, dtype, leftc, kTagAgBlock - mb,
                                 g.context));
    for (int v = 0; v < n; ++v) {
      if (v == me_local) continue;
      const int b = rnode[static_cast<std::size_t>(v)];
      others.push_back(irecv_track(
          out + static_cast<std::size_t>(b) * block, count, dtype,
          g.world[static_cast<std::size_t>(mem[static_cast<std::size_t>(v)])],
          kTagAgBlock - b, g.context));
    }
  }
  std::vector<Request> sends;
  for (int s = 0; s < L - 1; ++s) {
    const int sb = t.members[static_cast<std::size_t>((d - s + L) % L)]
                            [static_cast<std::size_t>(me_local)];
    sends.push_back(isend_counted(op,
                                  out + static_cast<std::size_t>(sb) * block,
                                  count, dtype, rightc, kTagAgBlock - sb,
                                  g.context));
    cwait(stripe[static_cast<std::size_t>(s)]);
    const int rb = t.members[static_cast<std::size_t>((d - s - 1 + L) % L)]
                            [static_cast<std::size_t>(me_local)];
    for (int v = 0; v < n; ++v) {
      if (v == me_local) continue;
      sends.push_back(isend_counted(
          op, out + static_cast<std::size_t>(rb) * block, count, dtype,
          g.world[static_cast<std::size_t>(mem[static_cast<std::size_t>(v)])],
          kTagAgBlock - rb, g.context));
    }
  }
  for (Request& qr : sends) cwait(qr);
  for (Request& qr : others) cwait(qr);
}

// ---------------------------------------------------------------------------
// Alltoall
// ---------------------------------------------------------------------------

void CollEngine::alltoall_impl(const void* sendbuf, void* recvbuf, int count,
                               const Datatype& dtype, const CommGroup& g,
                               const Topology& t, CollShape shape) {
  CollOpStats& op = stats_.alltoall;
  ++op.calls;
  const std::size_t block = static_cast<std::size_t>(dtype.extent()) *
                            static_cast<std::size_t>(count);
  const int p = g.size();
  const int my = g.my_rank;
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  // Diagonal block through the p2p self path.
  {
    Request rr = irecv_track(out + static_cast<std::size_t>(my) * block,
                             count, dtype, g.world[static_cast<std::size_t>(my)],
                             kTagAlltoall, g.context);
    Request sr = isend_counted(op, in + static_cast<std::size_t>(my) * block,
                               count, dtype,
                               g.world[static_cast<std::size_t>(my)],
                               kTagAlltoall, g.context);
    cwait(sr);
    cwait(rr);
  }
  if (p == 1) return;
  // Pairwise exchange: step s pairs every rank r with r+s (send) and r-s
  // (recv). All ranks run the steps in one global order, which keeps the
  // lockstep exchange deadlock-free; the hierarchical variant reorders
  // that global schedule so the steps with the most co-located pairs run
  // first (IPC) and the fabric steps spread across distinct peer nodes.
  std::vector<int> steps(static_cast<std::size_t>(p - 1));
  std::iota(steps.begin(), steps.end(), 1);
  if (shape == CollShape::kTwoLevel && t.multi_rank_node) {
    ++op.hier_calls;
    std::vector<int> colocated(static_cast<std::size_t>(p), 0);
    for (int s = 1; s < p; ++s) {
      int c = 0;
      for (int r = 0; r < p; ++r) {
        if (t.same_node(r, (r + s) % p)) {
          ++c;
        }
      }
      colocated[static_cast<std::size_t>(s)] = c;
    }
    std::stable_sort(steps.begin(), steps.end(), [&](int a, int b) {
      return colocated[static_cast<std::size_t>(a)] >
             colocated[static_cast<std::size_t>(b)];
    });
  }
  for (int s : steps) {
    const int dst = (my + s) % p;
    const int src = (my - s + p) % p;
    if (t.node_of[static_cast<std::size_t>(dst)] == t.my_node) {
      ++op.intra_phases;
    } else {
      ++op.leader_phases;
    }
    Request rr = irecv_track(out + static_cast<std::size_t>(src) * block,
                             count, dtype, g.world[static_cast<std::size_t>(src)],
                             kTagAlltoallStep - s, g.context);
    Request sr = isend_counted(op, in + static_cast<std::size_t>(dst) * block,
                               count, dtype,
                               g.world[static_cast<std::size_t>(dst)],
                               kTagAlltoallStep - s, g.context);
    cwait(sr);
    cwait(rr);
  }
}

// ---------------------------------------------------------------------------
// Gather / scatter (linear, root-rooted; no hierarchical variant)
// ---------------------------------------------------------------------------

void CollEngine::gather_impl(const void* sendbuf, int count,
                             const Datatype& dtype, void* recvbuf, int root,
                             const CommGroup& g) {
  CollOpStats& op = stats_.gather;
  ++op.calls;
  ++op.leader_phases;
  // Linear gather; self-delivery goes through the normal p2p path so
  // device buffers work uniformly.
  const std::size_t block = static_cast<std::size_t>(dtype.extent()) *
                            static_cast<std::size_t>(count);
  const int root_world = g.world[static_cast<std::size_t>(root)];
  Request sreq = isend_counted(op, sendbuf, count, dtype, root_world,
                               kTagGather, g.context);
  if (g.my_rank == root) {
    std::vector<Request> rreqs;
    rreqs.reserve(static_cast<std::size_t>(g.size()));
    for (int i = 0; i < g.size(); ++i) {
      rreqs.push_back(irecv_track(static_cast<std::byte*>(recvbuf) +
                                      static_cast<std::size_t>(i) * block,
                                  count, dtype,
                                  g.world[static_cast<std::size_t>(i)],
                                  kTagGather, g.context));
    }
    for (Request& r : rreqs) cwait(r);
  }
  cwait(sreq);
}

void CollEngine::scatter_impl(const void* sendbuf, void* recvbuf, int count,
                              const Datatype& dtype, int root,
                              const CommGroup& g) {
  CollOpStats& op = stats_.scatter;
  ++op.calls;
  ++op.leader_phases;
  const std::size_t block = static_cast<std::size_t>(dtype.extent()) *
                            static_cast<std::size_t>(count);
  const int root_world = g.world[static_cast<std::size_t>(root)];
  Request rreq = irecv_track(recvbuf, count, dtype, root_world, kTagScatter,
                             g.context);
  if (g.my_rank == root) {
    std::vector<Request> sreqs;
    sreqs.reserve(static_cast<std::size_t>(g.size()));
    for (int i = 0; i < g.size(); ++i) {
      sreqs.push_back(isend_counted(op,
                                    static_cast<const std::byte*>(sendbuf) +
                                        static_cast<std::size_t>(i) * block,
                                    count, dtype,
                                    g.world[static_cast<std::size_t>(i)],
                                    kTagScatter, g.context));
    }
    for (Request& sr : sreqs) cwait(sr);
  }
  cwait(rreq);
}

}  // namespace mv2gnc::mpisim::detail
