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
// Routing is selectable per fabric (RouteSelect) and always deterministic:
//   * kDmodK    — dst-indexed static choice (the classic D-mod-k route; on
//                 a dragonfly this is the minimal/direct route). Same
//                 inputs => same link crossings => bit-reproducible runs,
//                 and the byte-identical default.
//   * kHash     — a seedless mix of (src, dst, flow) spreads flows across
//                 the parallel paths, breaking D-mod-k's dst-index
//                 pathologies (incast funneling) the way ECMP hashing does
//                 on real fabrics. Still a pure function of its inputs.
//   * kAdaptive — least-backlogged path at injection time, tie-broken by
//                 index order, so equal-backlog runs stay exactly
//                 reproducible. Reads only link state the simulation
//                 already determines — no RNG anywhere in routing.
// See docs/SIMULATION.md, "Switch topology, routing and link contention".
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/time.hpp"

namespace mv2gnc::netsim {

/// How a message picks among the parallel shared links of its route.
/// Ignored by the crossbar (which has no shared links, hence no choice):
/// selecting adaptive routing there is a no-op, not an error.
enum class RouteSelect {
  kDmodK,     // static dst-indexed choice (default; byte-identical baseline)
  kHash,      // deterministic (src, dst, flow) hash across parallel paths
  kAdaptive,  // least-backlogged path now, index order breaks ties
};

/// The `route_select` config-file spelling of `r`.
inline const char* route_select_name(RouteSelect r) {
  switch (r) {
    case RouteSelect::kDmodK: return "dmodk";
    case RouteSelect::kHash: return "hash";
    case RouteSelect::kAdaptive: return "adaptive";
  }
  return "dmodk";
}

/// Inverse of route_select_name; throws std::invalid_argument on any other
/// spelling.
inline RouteSelect parse_route_select(const std::string& v) {
  for (RouteSelect r :
       {RouteSelect::kDmodK, RouteSelect::kHash, RouteSelect::kAdaptive}) {
    if (v == route_select_name(r)) return r;
  }
  throw std::invalid_argument(
      "route_select must be 'dmodk', 'hash' or 'adaptive', got: " + v);
}

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

  /// Link-selection policy (see RouteSelect). On the fat tree it picks the
  /// uplink (== spine); on the dragonfly it decides minimal vs Valiant
  /// (kHash) vs UGAL-style (kAdaptive) global routes.
  RouteSelect route = RouteSelect::kDmodK;

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
  /// links ARE the scarce resource; routing policy decides how traffic
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
