#include "net/fabric.hpp"

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace mv2gnc::netsim {

Endpoint::Endpoint(sim::Engine& engine, Fabric& fabric, int node)
    : engine_(engine),
      fabric_(fabric),
      node_(node),
      tx_(engine, "nic" + std::to_string(node) + ".tx") {}

void Endpoint::deliver(Completion c) {
  cq_.push_back(std::move(c));
  if (wakeup_ != nullptr) wakeup_->notify();
}

sim::SimTime Endpoint::draw_jitter(const FaultSpec& spec) {
  if (spec.jitter_ns <= 0) return 0;
  const sim::SimTime j = static_cast<sim::SimTime>(
      engine_.rand_below(static_cast<std::uint64_t>(spec.jitter_ns) + 1));
  if (j > 0) ++fault_counters_.deliveries_jittered;
  return j;
}

void Endpoint::deliver_remote(Endpoint* dst_ep,
                              std::unique_ptr<WireMessage> msg,
                              sim::SimTime extra_delay) {
  // The message is owned by the event itself (move-captured): one
  // allocation carries it from post to delivery, with none of the
  // control-block churn a shared_ptr chain would add per chunk.
  engine_.schedule_after(fabric_.cost().latency_ns + extra_delay,
                         [dst_ep, msg = std::move(msg)]() mutable {
                           const DeliveryReceipt* r =
                               dst_ep->fabric_.receipt_for(msg->kind);
                           if (r != nullptr) dst_ep->send_receipt(*r, *msg);
                           dst_ep->deliver(
                               Completion{CqType::kRecv, 0, std::move(*msg)});
                         });
}

void Endpoint::send_receipt(const DeliveryReceipt& r,
                            const WireMessage& m) {
  const int dst = m.src_node;
  if (dst < 0 || dst >= fabric_.nodes()) return;
  WireMessage ack;
  ack.src_node = node_;
  ack.kind = r.receipt_kind;
  ack.header[0] = m.header[r.echo_header];
  const NetCostModel& c = fabric_.cost();
  Endpoint* dst_ep = &fabric_.endpoint(dst);
  auto owned = std::make_unique<WireMessage>(std::move(ack));
  ++messages_sent_;
  // The HCA generates the receipt itself: no process posts a WR, so there
  // is no post overhead and no kSendComplete — only transmit occupancy,
  // plus the usual fault rolls on the (this -> dst, receipt_kind) edge. A
  // receipt kind has no receipt of its own, so this cannot recurse.
  tx_.submit(c.per_msg_overhead_ns + c.wire_time(64),
             [this, dst, dst_ep, msg = std::move(owned)]() mutable {
               sim::SimTime extra = 0;
               if (fabric_.faults().enabled()) {
                 const FaultSpec& spec =
                     fabric_.faults().resolve(node_, dst, msg->kind);
                 if (spec.drop_send > 0.0 &&
                     engine_.rand_uniform() < spec.drop_send) {
                   ++fault_counters_.sends_dropped;
                   return;
                 }
                 extra = draw_jitter(spec);
               }
               extra += fabric_.traverse(node_, dst, 64);
               deliver_remote(dst_ep, std::move(msg), extra);
             });
}

bool Endpoint::poll(Completion& out) {
  if (cq_.empty()) return false;
  out = std::move(cq_.front());
  cq_.pop_front();
  return true;
}

std::uint64_t Endpoint::post_send(int dst, WireMessage msg) {
  if (dst < 0 || dst >= fabric_.nodes()) {
    throw std::out_of_range("post_send: bad destination node " +
                            std::to_string(dst));
  }
  const NetCostModel& c = fabric_.cost();
  engine_.delay(c.post_overhead_ns);  // CPU cost of posting the WR
  const std::uint64_t wr = next_wr_++;
  msg.src_node = node_;
  ++messages_sent_;
  bytes_sent_ += msg.payload.size();
  const sim::SimTime duration =
      c.per_msg_overhead_ns + c.wire_time(msg.payload.size() + 64);
  Endpoint* dst_ep = &fabric_.endpoint(dst);
  auto owned_msg = std::make_unique<WireMessage>(std::move(msg));
  tx_.submit(duration, [this, wr, dst, dst_ep,
                        m = std::move(owned_msg)]() mutable {
    // The sender's NIC drained the WR either way; whether the network then
    // loses the message is decided here, at drain time, so the fault
    // sequence depends only on the deterministic event order.
    deliver(Completion{CqType::kSendComplete, wr, {}});
    sim::SimTime extra = 0;
    if (fabric_.faults().enabled()) {
      const FaultSpec& spec = fabric_.faults().resolve(node_, dst, m->kind);
      if (spec.drop_send > 0.0 && engine_.rand_uniform() < spec.drop_send) {
        ++fault_counters_.sends_dropped;
        return;
      }
      extra = draw_jitter(spec);
    }
    // Dropped messages never reach the switch fabric's shared links; a
    // delivered one queues behind whatever else its route is carrying —
    // and may pick up a congestion mark doing so.
    extra += fabric_.traverse(node_, dst, m->payload.size() + 64, &m->ecn);
    deliver_remote(dst_ep, std::move(m), extra);
  });
  return wr;
}

std::uint64_t Endpoint::post_rdma_write(int dst, const void* local,
                                        void* remote, std::size_t bytes,
                                        std::optional<WireMessage> imm) {
  if (dst < 0 || dst >= fabric_.nodes()) {
    throw std::out_of_range("post_rdma_write: bad destination node " +
                            std::to_string(dst));
  }
  if ((local == nullptr || remote == nullptr) && bytes > 0) {
    throw std::invalid_argument("post_rdma_write: null buffer");
  }
  const NetCostModel& c = fabric_.cost();
  engine_.delay(c.post_overhead_ns);
  const std::uint64_t wr = next_wr_++;
  ++rdma_writes_;
  bytes_sent_ += bytes;
  const sim::SimTime duration = c.per_msg_overhead_ns + c.wire_time(bytes);
  Endpoint* dst_ep = &fabric_.endpoint(dst);
  std::unique_ptr<WireMessage> owned_imm;
  if (imm) {
    imm->src_node = node_;
    owned_imm = std::make_unique<WireMessage>(std::move(*imm));
  }
  tx_.submit(duration, [this, wr, dst, dst_ep, local, remote, bytes,
                        imm_msg = std::move(owned_imm)]() mutable {
    const FaultSpec* spec = nullptr;
    if (fabric_.faults().enabled()) {
      const int kind = imm_msg ? imm_msg->kind : FaultModel::kNoKind;
      spec = &fabric_.faults().resolve(node_, dst, kind);
      if (spec->fail_write > 0.0 &&
          engine_.rand_uniform() < spec->fail_write) {
        // Transport error: nothing lands remotely, no immediate goes out,
        // and the poster learns via a synthetic error completion.
        ++fault_counters_.writes_failed;
        deliver(Completion{CqType::kError, wr, {}});
        return;
      }
    }
    // Data lands when the transmit drains; the remote notification follows
    // one wire latency later, so the receiver never observes the
    // notification before the payload (the RDMA ordering guarantee).
    if (bytes > 0) std::memcpy(remote, local, bytes);
    deliver(Completion{CqType::kRdmaComplete, wr, {}});
    // The written payload crosses the switch fabric whether or not an
    // immediate follows; its queuing delay pushes the notification back,
    // so a receiver never learns of data the shared links have not
    // carried yet.
    const sim::SimTime link_delay = fabric_.traverse(
        node_, dst, bytes + 64, imm_msg ? &imm_msg->ecn : nullptr);
    if (imm_msg) {
      sim::SimTime extra = link_delay;
      if (spec != nullptr) {
        if (spec->drop_imm > 0.0 &&
            engine_.rand_uniform() < spec->drop_imm) {
          ++fault_counters_.imms_dropped;
          return;
        }
        extra += draw_jitter(*spec);
      }
      deliver_remote(dst_ep, std::move(imm_msg), extra);
    }
  });
  return wr;
}

Fabric::Fabric(sim::Engine& engine, int nodes, NetCostModel cost,
               FabricTopology topology)
    : engine_(engine), cost_(cost), topology_(topology) {
  if (nodes <= 0) throw std::invalid_argument("Fabric: nodes must be > 0");
  topology_.validate();
  if (topology_.kind == FabricTopology::Kind::kFatTree) {
    uplinks_per_leaf_ = topology_.uplinks();
    const int leaves =
        (nodes + topology_.leaf_ports - 1) / topology_.leaf_ports;
    const std::size_t n_links =
        static_cast<std::size_t>(leaves) *
        static_cast<std::size_t>(uplinks_per_leaf_);
    up_.resize(n_links);
    down_.resize(n_links);
  } else if (topology_.kind == FabricTopology::Kind::kDragonfly) {
    groups_ = (nodes + topology_.leaf_ports - 1) / topology_.leaf_ports;
    global_.resize(static_cast<std::size_t>(groups_) *
                   static_cast<std::size_t>(groups_));
  }
  endpoints_.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    endpoints_.push_back(std::make_unique<Endpoint>(engine, *this, n));
  }
}

sim::SimTime Fabric::cross_link(Link& l, sim::SimTime arrival,
                                sim::SimTime wire, std::size_t bytes,
                                bool* ecn_mark) {
  const sim::SimTime start = arrival > l.busy_until ? arrival : l.busy_until;
  const sim::SimTime backlog = start - arrival;
  l.busy_until = start + wire;
  l.busy_total += wire;
  l.bytes += bytes;
  ++l.ops;
  if (backlog > 0) {
    ++l.contended_ops;
    l.wait_total += backlog;
    if (backlog > l.peak_backlog) l.peak_backlog = backlog;
    if (ecn_ns_ > 0 && backlog > ecn_ns_) {
      // Congestion experienced: this crossing queued behind more than the
      // armed threshold. The mark travels with the message; the protocol
      // layer echoes it back so the sender can back off (CONCURRENCY.md).
      ++l.ecn_marks;
      if (ecn_mark != nullptr) *ecn_mark = true;
    }
  }
  return start;
}

int Fabric::pick_uplink(int src_leaf, int dst_leaf, sim::SimTime now) const {
  // Least-backlogged path at injection time, counting both the shared
  // links the message will cross (the down-link into the destination leaf
  // is where incast piles up; the up-link is where an oversubscribed
  // alltoall does). Strict index order breaks ties, so an idle fabric
  // routes exactly like spine 0 every time.
  const Link* up =
      &up_[static_cast<std::size_t>(src_leaf * uplinks_per_leaf_)];
  const Link* down =
      &down_[static_cast<std::size_t>(dst_leaf * uplinks_per_leaf_)];
  int best = 0;
  sim::SimTime best_backlog = 0;
  for (int u = 0; u < uplinks_per_leaf_; ++u) {
    const sim::SimTime b = backlog_of(up[u], now) + backlog_of(down[u], now);
    if (u == 0 || b < best_backlog) {
      best = u;
      best_backlog = b;
    }
  }
  return best;
}

sim::SimTime Fabric::traverse_fat_tree(int src, int dst, std::size_t bytes,
                                       bool* ecn_mark) {
  const int src_leaf = src / topology_.leaf_ports;
  const int dst_leaf = dst / topology_.leaf_ports;
  if (src_leaf == dst_leaf) return 0;  // same edge switch, dedicated path
  const sim::SimTime now = engine_.now();
  const int u = pick_uplink(src_leaf, dst_leaf, now);
  const sim::SimTime wire = cost_.wire_time(bytes);
  // Cut-through accounting: serialization on the switch links overlaps the
  // sender's own transmit serialization, so an idle path adds zero delay
  // (single-flow fat tree == crossbar, which keeps the calibrated
  // baselines meaningful). Only queuing behind *other* flows on a shared
  // link delays delivery.
  sim::SimTime t = now;
  t = cross_link(
      up_[static_cast<std::size_t>(src_leaf * uplinks_per_leaf_ + u)], t,
      wire, bytes, ecn_mark);
  t = cross_link(
      down_[static_cast<std::size_t>(dst_leaf * uplinks_per_leaf_ + u)], t,
      wire, bytes, ecn_mark);
  return t - now;
}

sim::SimTime Fabric::traverse_dragonfly(int src, int dst, std::size_t bytes,
                                        bool* ecn_mark) {
  const int gs = src / topology_.leaf_ports;
  const int gd = dst / topology_.leaf_ports;
  if (gs == gd) return 0;  // same group: router-local, dedicated path
  const sim::SimTime now = engine_.now();
  const sim::SimTime wire = cost_.wire_time(bytes);
  // UGAL-style global route: the direct link gs -> gd unless some two-hop
  // detour through group h is cheaper. A detour crosses two links, each
  // one serialization of this message, so its summed backlog counts
  // twice: it wins only when 2 * (backlog(gs->h) + backlog(h->gd)) <
  // backlog(gs->gd). Strictly less: at equal cost the direct route or the
  // lower intermediate index wins, keeping ties deterministic.
  int via = gd;
  sim::SimTime best = backlog_of(global_link(gs, gd), now);
  for (int h = 0; best > 0 && h < groups_; ++h) {
    if (h == gs || h == gd) continue;
    const sim::SimTime b = 2 * (backlog_of(global_link(gs, h), now) +
                                backlog_of(global_link(h, gd), now));
    if (b < best) {
      best = b;
      via = h;
    }
  }
  sim::SimTime t = now;
  t = cross_link(global_link(gs, via), t, wire, bytes, ecn_mark);
  if (via != gd) t = cross_link(global_link(via, gd), t, wire, bytes, ecn_mark);
  return t - now;
}

sim::SimTime Fabric::traverse(int src, int dst, std::size_t bytes,
                              bool* ecn_mark) {
  if (!up_.empty()) return traverse_fat_tree(src, dst, bytes, ecn_mark);
  if (!global_.empty()) return traverse_dragonfly(src, dst, bytes, ecn_mark);
  return 0;  // crossbar: no shared links
}

std::vector<LinkStats> Fabric::link_stats() const {
  std::vector<LinkStats> out;
  const auto fill = [](LinkStats& s, const Link& l) {
    s.ops = l.ops;
    s.contended_ops = l.contended_ops;
    s.bytes = l.bytes;
    s.ecn_marks = l.ecn_marks;
    s.busy_total = l.busy_total;
    s.wait_total = l.wait_total;
    s.peak_backlog = l.peak_backlog;
  };
  if (topology_.kind == FabricTopology::Kind::kDragonfly) {
    out.reserve(global_.size());
    for (std::size_t i = 0; i < global_.size(); ++i) {
      LinkStats s;
      s.leaf = static_cast<int>(i) / groups_;   // source group
      s.index = static_cast<int>(i) % groups_;  // destination group
      s.up = true;
      fill(s, global_[i]);
      out.push_back(s);
    }
    return out;
  }
  out.reserve(up_.size() + down_.size());
  const auto snap = [&](const std::vector<Link>& links, bool is_up) {
    for (std::size_t i = 0; i < links.size(); ++i) {
      LinkStats s;
      s.leaf = static_cast<int>(i) / uplinks_per_leaf_;
      s.index = static_cast<int>(i) % uplinks_per_leaf_;
      s.up = is_up;
      fill(s, links[i]);
      out.push_back(s);
    }
  };
  snap(up_, true);
  snap(down_, false);
  return out;
}

Endpoint& Fabric::endpoint(int node) {
  return *endpoints_.at(static_cast<std::size_t>(node));
}

}  // namespace mv2gnc::netsim
