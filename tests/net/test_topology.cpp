// Fat-tree and dragonfly topology semantics: deterministic routing
// (D-mod-k, flow hashing, least-backlogged adaptive), shared-link queuing,
// cut-through equivalence with the crossbar on uncontended paths, ECN
// backlog marking, and the per-link stats surfaced through
// Cluster::print_stats.
#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include "mpi/cluster.hpp"
#include "net/fabric.hpp"

namespace mpisim = mv2gnc::mpisim;
namespace netsim = mv2gnc::netsim;
namespace sim = mv2gnc::sim;

namespace {

netsim::WireMessage make_msg(int kind, std::vector<std::byte> payload = {}) {
  netsim::WireMessage m;
  m.kind = kind;
  m.payload = std::move(payload);
  return m;
}

// Runs one sender per (src, dst) pair, all posting simultaneously, and
// records the virtual arrival time of each dst's first kRecv.
std::vector<sim::SimTime> arrival_times(
    netsim::Fabric& fab, sim::Engine& eng,
    const std::vector<std::pair<int, int>>& flows, std::size_t bytes) {
  std::vector<sim::SimTime> arrivals(flows.size(), 0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto [src, dst] = flows[i];
    eng.spawn("s" + std::to_string(src), [&fab, src, dst, bytes] {
      fab.endpoint(src).post_send(dst,
                                  make_msg(1, std::vector<std::byte>(bytes)));
    });
    eng.spawn("r" + std::to_string(dst), [&fab, &eng, &arrivals, i, dst] {
      sim::Notifier n(eng);
      fab.endpoint(dst).set_wakeup(&n);
      netsim::Completion c;
      for (;;) {
        if (fab.endpoint(dst).poll(c)) {
          if (c.type == netsim::CqType::kRecv) break;
        } else {
          n.wait();
        }
      }
      arrivals[i] = eng.now();
      fab.endpoint(dst).set_wakeup(nullptr);
    });
  }
  eng.run();
  return arrivals;
}

}  // namespace

TEST(FabricTopology, UplinksFollowOversubscription) {
  EXPECT_EQ(netsim::FabricTopology::fat_tree(8, 1.0).uplinks(), 8);
  EXPECT_EQ(netsim::FabricTopology::fat_tree(8, 2.0).uplinks(), 4);
  EXPECT_EQ(netsim::FabricTopology::fat_tree(8, 4.0).uplinks(), 2);
  // Floors at one uplink no matter how harsh the ratio.
  EXPECT_EQ(netsim::FabricTopology::fat_tree(2, 16.0).uplinks(), 1);
}

TEST(FabricTopology, ValidateRejectsBadFatTrees) {
  EXPECT_NO_THROW(netsim::FabricTopology::crossbar().validate());
  EXPECT_NO_THROW(netsim::FabricTopology::fat_tree(8, 2.0).validate());
  EXPECT_THROW(netsim::FabricTopology::fat_tree(0, 2.0).validate(),
               std::invalid_argument);
  EXPECT_THROW(netsim::FabricTopology::fat_tree(8, 0.0).validate(),
               std::invalid_argument);
  EXPECT_THROW(netsim::FabricTopology::fat_tree(8, -1.0).validate(),
               std::invalid_argument);
}

TEST(FabricTopology, CrossbarHasNoSharedLinks) {
  sim::Engine eng;
  netsim::Fabric fab(eng, 4, netsim::NetCostModel::qdr_ib());
  EXPECT_EQ(fab.topology().kind, netsim::FabricTopology::Kind::kCrossbar);
  EXPECT_TRUE(fab.link_stats().empty());
  // traverse is a no-op: no delay, no state.
  EXPECT_EQ(fab.traverse(0, 3, 1 << 20), 0);
  EXPECT_TRUE(fab.link_stats().empty());
}

TEST(FabricTopology, SameLeafTrafficNeverTouchesSharedLinks) {
  sim::Engine eng;
  netsim::Fabric fab(eng, 8, netsim::NetCostModel::qdr_ib(),
                     netsim::FabricTopology::fat_tree(4, 2.0));
  EXPECT_EQ(fab.traverse(0, 3, 1 << 20), 0);  // both on leaf 0
  for (const netsim::LinkStats& l : fab.link_stats()) EXPECT_EQ(l.ops, 0u);
}

TEST(FabricTopology, SingleFlowCrossLeafMatchesCrossbarTiming) {
  // Cut-through accounting: an uncontended fat-tree path adds zero delay,
  // so a lone cross-leaf message lands at exactly the crossbar instant.
  const std::size_t kBytes = 64 * 1024;
  sim::SimTime crossbar_at = 0;
  {
    sim::Engine eng;
    netsim::Fabric fab(eng, 16, netsim::NetCostModel::qdr_ib());
    crossbar_at = arrival_times(fab, eng, {{0, 9}}, kBytes)[0];
  }
  sim::SimTime fat_at = 0;
  {
    sim::Engine eng;
    netsim::Fabric fab(eng, 16, netsim::NetCostModel::qdr_ib(),
                       netsim::FabricTopology::fat_tree(8, 2.0));
    fat_at = arrival_times(fab, eng, {{0, 9}}, kBytes)[0];
    // The flow did cross a leaf boundary: both links saw it.
    std::uint64_t ops = 0;
    for (const netsim::LinkStats& l : fab.link_stats()) ops += l.ops;
    EXPECT_EQ(ops, 2u);  // one up-link crossing + one down-link crossing
  }
  EXPECT_GT(crossbar_at, 0);
  EXPECT_EQ(fat_at, crossbar_at);
}

TEST(FabricTopology, TwoFlowsSharingAnUplinkQueueBehindEachOther) {
  // leaf_ports=2, 2:1 oversubscription => exactly one uplink per leaf.
  // Flows 0->2 and 1->3 both cross from leaf 0 to leaf 1 through it; the
  // later drain queues for exactly one wire time of the earlier one.
  const std::size_t kBytes = 64 * 1024;
  const netsim::NetCostModel cost = netsim::NetCostModel::qdr_ib();
  const std::vector<std::pair<int, int>> flows = {{0, 2}, {1, 3}};
  std::vector<sim::SimTime> xbar;
  {
    sim::Engine eng;
    netsim::Fabric fab(eng, 4, cost);
    xbar = arrival_times(fab, eng, flows, kBytes);
  }
  std::vector<sim::SimTime> fat;
  sim::SimTime wait_total = 0;
  std::uint64_t contended = 0;
  {
    sim::Engine eng;
    netsim::Fabric fab(eng, 4, cost,
                       netsim::FabricTopology::fat_tree(2, 2.0));
    fat = arrival_times(fab, eng, flows, kBytes);
    for (const netsim::LinkStats& l : fab.link_stats()) {
      wait_total += l.wait_total;
      contended += l.contended_ops;
    }
  }
  // Both flows drain their (independent) NICs at the same instant on the
  // crossbar and arrive together; on the fat tree the first is untouched
  // and the second waits one serialization of the first on the uplink.
  EXPECT_EQ(xbar[0], xbar[1]);
  EXPECT_EQ(fat[0], xbar[0]);
  EXPECT_EQ(fat[1], xbar[1] + cost.wire_time(kBytes + 64));
  EXPECT_EQ(contended, 1u);
  EXPECT_EQ(wait_total, cost.wire_time(kBytes + 64));
}

TEST(FabricTopology, IncastFunnelsThroughOneUplinkDeterministically) {
  // Every rank of leaf 1 fires at node 0: D-mod-k sends all of it through
  // spine 0 — the classic hot-spot. The queuing accumulates on leaf 1's
  // up-link; by the time flows reach the down-link they are already spaced
  // one serialization apart, so it stays busy but never backs up.
  const std::size_t kBytes = 32 * 1024;
  const netsim::NetCostModel cost = netsim::NetCostModel::qdr_ib();
  const std::vector<std::pair<int, int>> flows = {
      {4, 0}, {5, 0}, {6, 0}, {7, 0}};
  auto run_once = [&](std::vector<netsim::LinkStats>& stats_out) {
    sim::Engine eng;
    netsim::Fabric fab(eng, 8, cost,
                       netsim::FabricTopology::fat_tree(4, 2.0));
    std::vector<sim::SimTime> arrivals(1, 0);
    for (const auto& [src, dst] : flows) {
      eng.spawn("s" + std::to_string(src), [&fab, src, dst, kBytes] {
        fab.endpoint(src).post_send(
            dst, make_msg(1, std::vector<std::byte>(kBytes)));
      });
    }
    eng.spawn("sink", [&] {
      sim::Notifier n(eng);
      fab.endpoint(0).set_wakeup(&n);
      netsim::Completion c;
      int got = 0;
      while (got < 4) {
        if (fab.endpoint(0).poll(c)) {
          if (c.type == netsim::CqType::kRecv) ++got;
        } else {
          n.wait();
        }
      }
      arrivals[0] = eng.now();
    });
    eng.run();
    stats_out = fab.link_stats();
    return arrivals[0];
  };
  std::vector<netsim::LinkStats> s1;
  std::vector<netsim::LinkStats> s2;
  const sim::SimTime t1 = run_once(s1);
  const sim::SimTime t2 = run_once(s2);
  EXPECT_EQ(t1, t2);  // bit-reproducible, link state included
  ASSERT_EQ(s1.size(), s2.size());
  const sim::SimTime wire = cost.wire_time(kBytes + 64);
  bool saw_hot_uplink = false;
  bool saw_spaced_downlink = false;
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].ops, s2[i].ops);
    EXPECT_EQ(s1[i].bytes, s2[i].bytes);
    EXPECT_EQ(s1[i].wait_total, s2[i].wait_total);
    if (s1[i].up && s1[i].leaf == 1 && s1[i].index == 0) {
      saw_hot_uplink = true;
      EXPECT_EQ(s1[i].ops, 4u);
      EXPECT_EQ(s1[i].busy_total, 4 * wire);
      // Three of the four crossings queued; the deepest behind all three
      // predecessors.
      EXPECT_EQ(s1[i].contended_ops, 3u);
      EXPECT_EQ(s1[i].wait_total, 6 * wire);
      EXPECT_EQ(s1[i].peak_backlog, 3 * wire);
    }
    if (!s1[i].up && s1[i].leaf == 0 && s1[i].index == 0) {
      saw_spaced_downlink = true;
      EXPECT_EQ(s1[i].ops, 4u);
      EXPECT_EQ(s1[i].busy_total, 4 * wire);
      EXPECT_EQ(s1[i].contended_ops, 0u);  // up-link already spaced them
    }
  }
  EXPECT_TRUE(saw_hot_uplink);
  EXPECT_TRUE(saw_spaced_downlink);
}

TEST(FabricTopology, ClusterPrintStatsShowsFabricLinksOnlyForFatTree) {
  auto run_cluster = [](bool fat_tree) {
    mpisim::ClusterConfig cfg;
    cfg.ranks = 16;
    if (fat_tree) cfg.topology = netsim::FabricTopology::fat_tree(8, 2.0);
    mpisim::Cluster cluster(cfg);
    cluster.run([](mpisim::Context& ctx) {
      // Every rank sends one rendezvous-sized message across the leaf
      // boundary (rank XOR 8 lives on the other leaf of an 8-port tree).
      auto dt = mpisim::Datatype::byte();
      dt.commit();
      std::vector<std::byte> tx(32 * 1024, std::byte{0x11});
      std::vector<std::byte> rx(32 * 1024);
      const int peer = ctx.rank ^ 8;
      ctx.comm.sendrecv(tx.data(), static_cast<int>(tx.size()), dt, peer, 3,
                        rx.data(), static_cast<int>(rx.size()), dt, peer, 3);
    });
    std::ostringstream os;
    cluster.print_stats(os);
    return os.str();
  };
  const std::string fat = run_cluster(true);
  EXPECT_NE(fat.find("fabric links"), std::string::npos);
  EXPECT_NE(fat.find("oversubscription 2.0:1"), std::string::npos);
  EXPECT_NE(fat.find("up"), std::string::npos);
  const std::string xbar = run_cluster(false);
  EXPECT_EQ(xbar.find("fabric links"), std::string::npos);
}

namespace {

// Total virtual time for `flows` incast senders to land at their dst under
// one routing policy, plus the resulting link snapshot.
sim::SimTime run_routed(const netsim::FabricTopology& topo, int nodes,
                        const std::vector<std::pair<int, int>>& flows,
                        std::size_t bytes,
                        std::vector<netsim::LinkStats>* stats_out = nullptr,
                        sim::SimTime ecn_ns = 0) {
  sim::Engine eng;
  netsim::Fabric fab(eng, nodes, netsim::NetCostModel::qdr_ib(), topo);
  if (ecn_ns > 0) fab.set_ecn_threshold(ecn_ns);
  // Unlike arrival_times above, incast flows share a destination, so each
  // distinct dst gets ONE receiver that drains all of its messages (an
  // endpoint holds a single wakeup notifier — per-flow receivers on the
  // same endpoint would overwrite each other's and deadlock).
  std::map<int, int> expected;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto [src, dst] = flows[i];
    ++expected[dst];
    // Distinct flow labels so hashed routing can spread them.
    const std::uint64_t flow = i + 1;
    eng.spawn("s" + std::to_string(src), [&fab, src, dst, bytes, flow] {
      netsim::WireMessage m = make_msg(1, std::vector<std::byte>(bytes));
      m.flow = flow;
      fab.endpoint(src).post_send(dst, std::move(m));
    });
  }
  sim::SimTime last = 0;
  for (const auto& [dst, count] : expected) {
    eng.spawn("r" + std::to_string(dst), [&fab, &eng, &last, dst, count] {
      sim::Notifier n(eng);
      fab.endpoint(dst).set_wakeup(&n);
      netsim::Completion c;
      int seen = 0;
      while (seen < count) {
        if (fab.endpoint(dst).poll(c)) {
          if (c.type == netsim::CqType::kRecv) ++seen;
        } else {
          n.wait();
        }
      }
      last = std::max(last, eng.now());
      fab.endpoint(dst).set_wakeup(nullptr);
    });
  }
  eng.run();
  if (stats_out != nullptr) *stats_out = fab.link_stats();
  return last;
}

void expect_same_links(const std::vector<netsim::LinkStats>& a,
                       const std::vector<netsim::LinkStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ops, b[i].ops) << "link " << i;
    EXPECT_EQ(a[i].contended_ops, b[i].contended_ops) << "link " << i;
    EXPECT_EQ(a[i].bytes, b[i].bytes) << "link " << i;
    EXPECT_EQ(a[i].ecn_marks, b[i].ecn_marks) << "link " << i;
    EXPECT_EQ(a[i].busy_total, b[i].busy_total) << "link " << i;
    EXPECT_EQ(a[i].wait_total, b[i].wait_total) << "link " << i;
    EXPECT_EQ(a[i].peak_backlog, b[i].peak_backlog) << "link " << i;
  }
}

// Incast that D-mod-k must funnel: four distinct sources on other leaves
// all firing at node 0 (dst % uplinks == 0 for every flow).
const std::vector<std::pair<int, int>> kIncast = {
    {4, 0}, {5, 0}, {8, 0}, {9, 0}};

}  // namespace

TEST(RouteSelect, HashAndAdaptiveBeatDmodKOnIncast) {
  const std::size_t kBytes = 64 * 1024;
  auto topo = [](netsim::RouteSelect r) {
    netsim::FabricTopology t = netsim::FabricTopology::fat_tree(4, 2.0);
    t.route = r;
    return t;
  };
  const sim::SimTime dmodk =
      run_routed(topo(netsim::RouteSelect::kDmodK), 16, kIncast, kBytes);
  const sim::SimTime hash =
      run_routed(topo(netsim::RouteSelect::kHash), 16, kIncast, kBytes);
  const sim::SimTime adaptive =
      run_routed(topo(netsim::RouteSelect::kAdaptive), 16, kIncast, kBytes);
  // D-mod-k sends every flow through spine 0; the other policies spread
  // them over both spines, so the last flow lands strictly earlier.
  EXPECT_LT(hash, dmodk);
  EXPECT_LT(adaptive, dmodk);
}

TEST(RouteSelect, AdaptiveSpreadsIncastAcrossUplinks) {
  netsim::FabricTopology t = netsim::FabricTopology::fat_tree(4, 2.0);
  t.route = netsim::RouteSelect::kAdaptive;
  std::vector<netsim::LinkStats> links;
  run_routed(t, 16, kIncast, 64 * 1024, &links);
  // Each source leaf (1 and 2) pushes one flow up each of its two uplinks.
  for (const netsim::LinkStats& l : links) {
    if (l.up && (l.leaf == 1 || l.leaf == 2)) {
      EXPECT_EQ(l.ops, 1u) << "leaf " << l.leaf << " uplink " << l.index;
    }
  }
}

TEST(RouteSelect, HashAndAdaptiveAreSeededDeterministic) {
  for (const netsim::RouteSelect r :
       {netsim::RouteSelect::kHash, netsim::RouteSelect::kAdaptive}) {
    netsim::FabricTopology t = netsim::FabricTopology::fat_tree(4, 2.0);
    t.route = r;
    std::vector<netsim::LinkStats> a;
    std::vector<netsim::LinkStats> b;
    const sim::SimTime t1 = run_routed(t, 16, kIncast, 64 * 1024, &a);
    const sim::SimTime t2 = run_routed(t, 16, kIncast, 64 * 1024, &b);
    EXPECT_EQ(t1, t2);
    expect_same_links(a, b);
  }
}

TEST(RouteSelect, DefaultRouteIsByteIdenticalWithExplicitDmodK) {
  // A topology that never mentions route and one that sets kDmodK must
  // produce identical timing AND identical link state — the regression
  // gate for the whole routing feature being off by default.
  const netsim::FabricTopology implicit =
      netsim::FabricTopology::fat_tree(4, 2.0);
  netsim::FabricTopology explicit_dmodk =
      netsim::FabricTopology::fat_tree(4, 2.0);
  explicit_dmodk.route = netsim::RouteSelect::kDmodK;
  std::vector<netsim::LinkStats> a;
  std::vector<netsim::LinkStats> b;
  const sim::SimTime t1 = run_routed(implicit, 16, kIncast, 64 * 1024, &a);
  const sim::SimTime t2 =
      run_routed(explicit_dmodk, 16, kIncast, 64 * 1024, &b);
  EXPECT_EQ(t1, t2);
  expect_same_links(a, b);
}

TEST(RouteSelect, AdaptiveOnCrossbarIsANoOp) {
  netsim::FabricTopology t;  // crossbar
  t.route = netsim::RouteSelect::kAdaptive;
  EXPECT_NO_THROW(t.validate());
  sim::Engine eng;
  netsim::Fabric fab(eng, 4, netsim::NetCostModel::qdr_ib(), t);
  EXPECT_EQ(fab.traverse(0, 3, 1 << 20), 0);
  EXPECT_TRUE(fab.link_stats().empty());
}

TEST(RouteSelect, FabricMarksEcnAboveBacklogThreshold) {
  // With a tiny threshold the funneled incast must mark; without one it
  // must not, and timings stay identical — marking observes, not perturbs.
  netsim::FabricTopology t = netsim::FabricTopology::fat_tree(4, 2.0);
  std::vector<netsim::LinkStats> marked;
  std::vector<netsim::LinkStats> unmarked;
  const sim::SimTime with_ecn =
      run_routed(t, 16, kIncast, 64 * 1024, &marked, /*ecn_ns=*/1000);
  const sim::SimTime without =
      run_routed(t, 16, kIncast, 64 * 1024, &unmarked);
  EXPECT_EQ(with_ecn, without);
  std::uint64_t marks = 0;
  for (const netsim::LinkStats& l : marked) marks += l.ecn_marks;
  EXPECT_GT(marks, 0u);
  for (const netsim::LinkStats& l : unmarked) EXPECT_EQ(l.ecn_marks, 0u);
}

TEST(Dragonfly, SameGroupTrafficTouchesNoGlobalLink) {
  sim::Engine eng;
  netsim::Fabric fab(eng, 8, netsim::NetCostModel::qdr_ib(),
                     netsim::FabricTopology::dragonfly(4));
  EXPECT_EQ(fab.traverse(0, 3, 1 << 20), 0);  // both in group 0
  for (const netsim::LinkStats& l : fab.link_stats()) EXPECT_EQ(l.ops, 0u);
}

TEST(Dragonfly, MinimalRouteUsesTheDirectGlobalLink) {
  sim::Engine eng;
  netsim::Fabric fab(eng, 8, netsim::NetCostModel::qdr_ib(),
                     netsim::FabricTopology::dragonfly(4));
  fab.traverse(0, 5, 1 << 16);  // group 0 -> group 1, default dmodk
  for (const netsim::LinkStats& l : fab.link_stats()) {
    const bool direct = l.leaf == 0 && l.index == 1;
    EXPECT_EQ(l.ops, direct ? 1u : 0u)
        << "grp" << l.leaf << "->grp" << l.index;
  }
}

TEST(Dragonfly, AdaptiveValiantDetourBeatsMinimalOnIncast) {
  // Three groups; group 1 fires two flows at group 0 while group 2 stays
  // idle. The minimal route serializes both on the one direct 1->0 link;
  // UGAL-style adaptive sees the backlog and bounces the second flow
  // through the idle group 2 (1->2, 2->0), landing it strictly earlier.
  // (If group 2 ALSO fired at group 0 the detour's second hop would be as
  // backed up as the direct link and UGAL would correctly stay minimal —
  // the detour needs somewhere idle to go.)
  const std::vector<std::pair<int, int>> flows = {{4, 0}, {5, 1}};
  const std::size_t kBytes = 256 * 1024;
  netsim::FabricTopology direct = netsim::FabricTopology::dragonfly(4);
  netsim::FabricTopology ugal = netsim::FabricTopology::dragonfly(4);
  ugal.route = netsim::RouteSelect::kAdaptive;
  std::vector<netsim::LinkStats> links;
  const sim::SimTime t_min = run_routed(direct, 12, flows, kBytes);
  const sim::SimTime t_ugal = run_routed(ugal, 12, flows, kBytes, &links);
  EXPECT_LT(t_ugal, t_min);
  // The detour actually happened: the 1->2 leg carried traffic.
  std::uint64_t detour_ops = 0;
  for (const netsim::LinkStats& l : links) {
    if (l.leaf == 1 && l.index == 2) detour_ops += l.ops;
  }
  EXPECT_GT(detour_ops, 0u);
}

TEST(Dragonfly, RoutedRunsAreSeededDeterministic) {
  const std::vector<std::pair<int, int>> flows = {
      {4, 0}, {5, 1}, {8, 0}, {9, 1}};
  for (const netsim::RouteSelect r :
       {netsim::RouteSelect::kHash, netsim::RouteSelect::kAdaptive}) {
    netsim::FabricTopology t = netsim::FabricTopology::dragonfly(4);
    t.route = r;
    std::vector<netsim::LinkStats> a;
    std::vector<netsim::LinkStats> b;
    const sim::SimTime t1 = run_routed(t, 12, flows, 128 * 1024, &a);
    const sim::SimTime t2 = run_routed(t, 12, flows, 128 * 1024, &b);
    EXPECT_EQ(t1, t2);
    expect_same_links(a, b);
  }
}

TEST(RouteSelect, ClusterMapsTunableOntoTopologyAndPrintsRouteMode) {
  mpisim::ClusterConfig cfg;
  cfg.ranks = 16;
  cfg.topology = netsim::FabricTopology::fat_tree(8, 2.0);
  cfg.tunables.route_select = netsim::RouteSelect::kAdaptive;
  mpisim::Cluster cluster(cfg);
  cluster.run([](mpisim::Context& ctx) {
    auto dt = mpisim::Datatype::byte();
    dt.commit();
    std::vector<std::byte> tx(32 * 1024, std::byte{0x22});
    std::vector<std::byte> rx(32 * 1024);
    const int peer = ctx.rank ^ 8;
    ctx.comm.sendrecv(tx.data(), static_cast<int>(tx.size()), dt, peer, 3,
                      rx.data(), static_cast<int>(rx.size()), dt, peer, 3);
  });
  std::ostringstream os;
  cluster.print_stats(os);
  EXPECT_NE(os.str().find("route adaptive"), std::string::npos);
  // The raw accessor mirrors what the table rendered.
  std::uint64_t ops = 0;
  for (const netsim::LinkStats& l : cluster.link_stats()) ops += l.ops;
  EXPECT_GT(ops, 0u);
}
