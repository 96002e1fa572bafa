// netsim: a verbs-shaped RDMA fabric model.
//
// Each node owns an Endpoint with a transmit pipeline (FIFO resource) and a
// completion queue. Two operations exist, mirroring what MVAPICH2's channel
// uses on InfiniBand:
//   * post_send    — two-sided SEND of a small control/eager message,
//                    matched by the remote side reading its CQ;
//   * post_rdma_write — one-sided WRITE into remote memory, optionally
//                    carrying an immediate control message (the paper's
//                    "RDMA write finish" notification).
//
// Because all simulated nodes live in one OS process, remote memory is
// directly addressable: the write lands as a real memcpy at the moment the
// transmit drains, and the remote notification arrives one wire latency
// later — so a receiver that reads the buffer after seeing the notification
// always sees the payload bytes, exactly like real RDMA.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "net/fault.hpp"
#include "net/topology.hpp"
#include "net/wire.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace mv2gnc::netsim {

/// Link/NIC timing constants. Defaults model Mellanox QDR ConnectX-2
/// (MT26428), the paper's HCA.
struct NetCostModel {
  double bw = 3.2;                         // effective GB/s (QDR 4x)
  sim::SimTime latency_ns = 1'500;         // end-to-end wire + switch
  sim::SimTime per_msg_overhead_ns = 600;  // NIC descriptor processing
  sim::SimTime post_overhead_ns = 200;     // CPU cost of posting a WR

  /// Serialization time of `bytes` on the link.
  sim::SimTime wire_time(std::size_t bytes) const {
    return static_cast<sim::SimTime>(static_cast<double>(bytes) / bw);
  }

  /// The paper's testbed fabric.
  static NetCostModel qdr_ib() { return NetCostModel{}; }
};

// WireMessage / CqType / Completion live in net/wire.hpp (shared by every
// transport implementation).

class Fabric;

/// NIC-generated delivery receipt, modelling the transport-level
/// acknowledgement of a reliable-connection HCA: whenever a message of
/// `kind` is delivered into a destination CQ, the destination NIC
/// immediately transmits a message of `receipt_kind` back to the origin,
/// with header[0] echoing the original's header[echo_header]. It fires
/// whether or not the receiving process ever polls its CQ — that is the
/// point: it distinguishes "delivered but not yet consumed" from "lost".
/// The receipt traverses the fabric like any send (fault rolls included)
/// and never generates a receipt of its own.
struct DeliveryReceipt {
  int kind = 0;
  int receipt_kind = 0;
  std::size_t echo_header = 0;
};

/// Per-node NIC endpoint: transmit queue + completion queue.
class Endpoint {
 public:
  Endpoint(sim::Engine& engine, Fabric& fabric, int node);
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Post a two-sided SEND. Returns the work-request id; a kSendComplete
  /// completion appears on this CQ when the transmit drains, and the
  /// message lands in `dst`'s CQ one wire latency later.
  std::uint64_t post_send(int dst, WireMessage msg);

  /// Post a one-sided RDMA WRITE of `bytes` from `local` into `remote`
  /// (an address on node `dst`). The payload memcpy happens when the
  /// transmit drains (kRdmaComplete locally); if `imm` is given it arrives
  /// at the destination CQ one wire latency after the data lands.
  std::uint64_t post_rdma_write(int dst, const void* local, void* remote,
                                std::size_t bytes,
                                std::optional<WireMessage> imm = std::nullopt);

  /// Drain one completion; false if the CQ is empty.
  bool poll(Completion& out);

  /// Install the notifier poked whenever a completion is enqueued.
  void set_wakeup(sim::Notifier* n) { wakeup_ = n; }

  int node() const { return node_; }

  // -- statistics ------------------------------------------------------
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t rdma_writes() const { return rdma_writes_; }
  sim::SimTime tx_busy_time() const { return tx_.total_busy_time(); }

  /// Faults injected on operations *posted by this endpoint*.
  const FaultCounters& fault_counters() const { return fault_counters_; }

 private:
  friend class Fabric;
  void deliver(Completion c);  // push to CQ + wake
  // Schedule delivery of `msg` into dst's CQ after wire latency plus any
  // fault-injected jitter.
  void deliver_remote(Endpoint* dst_ep, std::unique_ptr<WireMessage> msg,
                      sim::SimTime extra_delay);
  // NIC-side half of DeliveryReceipt: fired at delivery time for a
  // receipt-enabled kind, from scheduler context (no process needed).
  void send_receipt(const DeliveryReceipt& r, const WireMessage& m);
  // Draw the jitter for `spec` (0 if none), counting jittered deliveries.
  sim::SimTime draw_jitter(const FaultSpec& spec);

  sim::Engine& engine_;
  Fabric& fabric_;
  int node_;
  sim::FifoResource tx_;
  std::deque<Completion> cq_;
  sim::Notifier* wakeup_ = nullptr;
  std::uint64_t next_wr_ = 1;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t rdma_writes_ = 0;
  FaultCounters fault_counters_;
};

/// The cluster interconnect: `nodes` endpoints, by default on a full
/// crossbar (no shared links); see FabricTopology for the fat-tree model.
class Fabric {
 public:
  Fabric(sim::Engine& engine, int nodes, NetCostModel cost,
         FabricTopology topology = {});

  Endpoint& endpoint(int node);
  int nodes() const { return static_cast<int>(endpoints_.size()); }
  const NetCostModel& cost() const { return cost_; }
  const FabricTopology& topology() const { return topology_; }
  sim::Engine& engine() { return engine_; }

  /// Charge one message's path through the switch fabric at the current
  /// virtual time and return the extra delivery delay it queued for
  /// (cut-through: an uncontended traversal costs nothing on top of the
  /// wire latency; contention on a shared up/down link delays delivery by
  /// the backlog in front of it). Crossbar: always 0, touches nothing.
  /// Deterministic — the route is the least-backlogged path, read from
  /// the clock and the link state the simulation already determined.
  ///
  /// When `ecn_mark` is non-null and the traversal queued behind more
  /// than the armed ECN backlog threshold on any link, *ecn_mark is set
  /// (never cleared) — the congestion-experienced bit of
  /// docs/CONCURRENCY.md.
  sim::SimTime traverse(int src, int dst, std::size_t bytes,
                        bool* ecn_mark = nullptr);

  /// Arm ECN-style marking: a crossing that queues behind more than
  /// `backlog_ns` of earlier traffic on one shared link counts an
  /// ecn_mark on that link and marks the message (see traverse). 0 (the
  /// default) disables marking entirely — no state, no comparisons.
  void set_ecn_threshold(sim::SimTime backlog_ns) { ecn_ns_ = backlog_ns; }

  /// Snapshot of every inter-switch link's counters, up-links first
  /// (empty on a crossbar; dragonfly: every used ordered group pair).
  std::vector<LinkStats> link_stats() const;

  /// Arm a DeliveryReceipt (see the struct doc above) for one message kind.
  void enable_delivery_receipt(DeliveryReceipt r) {
    if (r.kind < 0 || r.echo_header >= 6 ||
        receipt_for(r.receipt_kind) != nullptr) {
      throw std::invalid_argument("enable_delivery_receipt: bad config");
    }
    if (receipt_index_.size() <= static_cast<std::size_t>(r.kind)) {
      receipt_index_.resize(static_cast<std::size_t>(r.kind) + 1, -1);
    }
    receipt_index_[static_cast<std::size_t>(r.kind)] =
        static_cast<std::int16_t>(receipts_.size());
    receipts_.push_back(r);
  }
  /// O(1) kind-indexed lookup — this runs on every message delivery.
  const DeliveryReceipt* receipt_for(int kind) const {
    if (static_cast<unsigned>(kind) >= receipt_index_.size()) return nullptr;
    const std::int16_t i = receipt_index_[static_cast<std::size_t>(kind)];
    return i >= 0 ? &receipts_[static_cast<std::size_t>(i)] : nullptr;
  }

  /// Fault-injection rules shared by every endpoint. Mutate before (or
  /// between) transfers; decisions are drawn from the engine RNG at
  /// transmit-drain time, so a fixed Engine::seed_rng seed reproduces the
  /// identical fault sequence.
  FaultModel& faults() { return faults_; }
  const FaultModel& faults() const { return faults_; }

 private:
  // One shared serialization resource inside the switch fabric. Same
  // busy-until arithmetic as sim::FifoResource, but a plain struct — a
  // 256-rank fat tree has hundreds of these and they sit on the
  // per-transmit fast path.
  struct Link {
    sim::SimTime busy_until = 0;
    sim::SimTime busy_total = 0;
    sim::SimTime wait_total = 0;
    sim::SimTime peak_backlog = 0;
    std::uint64_t ops = 0;
    std::uint64_t contended_ops = 0;
    std::uint64_t bytes = 0;
    std::uint64_t ecn_marks = 0;
  };
  // Serialize `wire` time on `l` for a message arriving at `arrival`;
  // returns the instant the message starts crossing (== arrival when the
  // link is idle). Counts an ECN mark on the link (and sets *ecn_mark)
  // when the queuing exceeded the armed threshold.
  sim::SimTime cross_link(Link& l, sim::SimTime arrival, sim::SimTime wire,
                          std::size_t bytes, bool* ecn_mark);
  // Backlog a message injected now would queue behind on `l` — the
  // quantity adaptive routing minimizes.
  sim::SimTime backlog_of(const Link& l, sim::SimTime now) const {
    return l.busy_until > now ? l.busy_until - now : 0;
  }
  // Fat-tree uplink (== spine) with the least up + down backlog from
  // src_leaf to dst_leaf now.
  int pick_uplink(int src_leaf, int dst_leaf, sim::SimTime now) const;
  sim::SimTime traverse_fat_tree(int src, int dst, std::size_t bytes,
                                 bool* ecn_mark);
  sim::SimTime traverse_dragonfly(int src, int dst, std::size_t bytes,
                                  bool* ecn_mark);
  Link& global_link(int g_from, int g_to) {
    return global_[static_cast<std::size_t>(g_from) *
                       static_cast<std::size_t>(groups_) +
                   static_cast<std::size_t>(g_to)];
  }

  sim::Engine& engine_;
  NetCostModel cost_;
  FabricTopology topology_;
  int uplinks_per_leaf_ = 0;
  int groups_ = 0;          // dragonfly: number of groups
  sim::SimTime ecn_ns_ = 0;  // ECN backlog threshold; 0 = marking off
  std::vector<Link> up_;    // [leaf * uplinks + u]: leaf -> spine u
  std::vector<Link> down_;  // [leaf * uplinks + u]: spine u -> leaf
  std::vector<Link> global_;  // dragonfly: [g_from * groups + g_to]
  FaultModel faults_;
  std::vector<DeliveryReceipt> receipts_;
  std::vector<std::int16_t> receipt_index_;  // kind -> receipts_ index, -1
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

}  // namespace mv2gnc::netsim
