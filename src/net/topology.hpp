// netsim: interconnect topology descriptions.
//
// The default fabric is a full crossbar — every pair of endpoints gets a
// dedicated path and the only serialization point is the sender's transmit
// FIFO (the model the paper's 8-node testbed justifies, and the
// byte-identical baseline every regression md5 is pinned to). The fat-tree
// model adds the thing real clusters pay for at scale: a two-level
// leaf/spine fabric whose inter-switch links are *shared* serialization
// resources, so incast hot-spots and oversubscribed alltoalls slow down
// while nearest-neighbour traffic inside a leaf does not. The dragonfly
// model keeps the same shared-link primitive but wires it as groups joined
// by direct point-to-point global links (fully connected group graph), the
// geometry where adaptive (UGAL-style) routing decisions matter most.
//
// Routing is adaptive and always deterministic: a message takes the
// least-backlogged of its parallel paths at injection time, index order
// breaking ties, so equal-backlog runs stay exactly reproducible. It reads
// only link state the simulation already determines — no RNG anywhere in
// routing. On the dragonfly a two-hop detour counts both of its hops.
// See docs/SIMULATION.md, "Switch topology and link contention".
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/time.hpp"

namespace mv2gnc::netsim {

/// Shape of the inter-node interconnect.
struct FabricTopology {
  enum class Kind {
    kCrossbar,   // dedicated path per pair; no shared links (default)
    kFatTree,    // two-level leaf/spine with shared up/down links
    kDragonfly,  // groups with direct all-to-all global links
  };

  Kind kind = Kind::kCrossbar;

  /// Fat tree: endpoints attached to each edge ("leaf") switch.
  /// Dragonfly: endpoints per group. Traffic between two endpoints on the
  /// same leaf/group never touches a shared link.
  int leaf_ports = 8;

  /// Fat tree: down-bandwidth : up-bandwidth ratio at each edge switch.
  /// 1.0 is fully provisioned (one uplink per port); 2.0 is the classic
  /// cost-reduced 2:1 fabric with half the uplinks.
  double oversubscription = 1.0;

  /// Uplinks per leaf switch implied by the oversubscription ratio
  /// (rounded, floored at 1). Each uplink u leads to spine switch u.
  int uplinks() const {
    const double ratio = oversubscription > 0.0 ? oversubscription : 1.0;
    const int u =
        static_cast<int>(static_cast<double>(leaf_ports) / ratio + 0.5);
    return u < 1 ? 1 : u;
  }

  void validate() const {
    if (kind == Kind::kCrossbar) return;
    if (leaf_ports < 1) {
      throw std::invalid_argument("FabricTopology: leaf_ports must be >= 1");
    }
    if (oversubscription <= 0.0) {
      throw std::invalid_argument(
          "FabricTopology: oversubscription must be > 0");
    }
  }

  static FabricTopology crossbar() { return {}; }
  static FabricTopology fat_tree(int leaf_ports, double oversubscription = 1.0) {
    FabricTopology t;
    t.kind = Kind::kFatTree;
    t.leaf_ports = leaf_ports;
    t.oversubscription = oversubscription;
    return t;
  }
  /// Dragonfly: `group_size` endpoints per group, every ordered group pair
  /// joined by one direct global link (the canonical fully connected
  /// inter-group graph). Oversubscription does not apply — the global
  /// links ARE the scarce resource; adaptive routing decides how traffic
  /// spreads over them.
  static FabricTopology dragonfly(int group_size) {
    FabricTopology t;
    t.kind = Kind::kDragonfly;
    t.leaf_ports = group_size;
    return t;
  }
};

/// Counters of one shared inter-switch link, snapshot via
/// Fabric::link_stats(). Fat tree: an edge switch's up- or down-link to
/// one spine (`leaf` = edge switch, `index` = uplink == spine, `up` =
/// direction). Dragonfly: the direct global link from group `leaf` to
/// group `index` (`up` always true — global links are unidirectional
/// resources per ordered pair). A link is a shared serialization resource:
/// `busy_total` is serialization time consumed, `wait_total` /
/// `peak_backlog` measure queuing behind earlier messages (the contention
/// the crossbar cannot express), `contended_ops` counts crossings that had
/// to wait at all, and `ecn_marks` counts crossings whose queuing exceeded
/// the fabric's ECN threshold and therefore marked their message
/// (docs/CONCURRENCY.md, "ECN-style congestion feedback").
struct LinkStats {
  int leaf = 0;        // fat tree: edge switch; dragonfly: source group
  int index = 0;       // fat tree: uplink/spine; dragonfly: destination group
  bool up = true;      // fat tree: leaf -> spine direction; dragonfly: true
  std::uint64_t ops = 0;
  std::uint64_t contended_ops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t ecn_marks = 0;
  sim::SimTime busy_total = 0;
  sim::SimTime wait_total = 0;
  sim::SimTime peak_backlog = 0;
};

}  // namespace mv2gnc::netsim
