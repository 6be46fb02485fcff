// FabricBuilder: router-subgraph wiring, route compilation against the
// topology's shortest paths, and link-failure invalidation.

#include "scenario/fabric_builder.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "netsim/paths.hpp"
#include "scenario/topologies.hpp"

namespace hp::scenario {
namespace {

using netsim::NodeIndex;

TEST(BuiltFabric, WiringMirrorsRouterSubgraph) {
  const auto topo = make_leaf_spine(2, 3, 2);  // hosts must not get ports
  BuiltFabric built(topo);
  EXPECT_EQ(built.router_count(), 5u);
  EXPECT_EQ(built.fabric().node_count(), 5u);

  for (const NodeIndex r : built.routers()) {
    const std::size_t f = built.fabric_index(r);
    EXPECT_EQ(built.topo_index(f), r);
    EXPECT_EQ(built.fabric().node(f).name, built.topology().node(r).name);
    // One port per distinct router neighbour plus the egress port.
    std::size_t router_neighbours = 0;
    for (const auto l : topo.outgoing(r)) {
      if (topo.node(topo.link(l).to).kind == netsim::NodeKind::kRouter) {
        ++router_neighbours;
      }
    }
    EXPECT_EQ(built.fabric().node(f).port_count, router_neighbours + 1);
    EXPECT_EQ(built.egress_port(f), router_neighbours);
    // The egress port is unwired; the rest reach the right neighbours.
    EXPECT_FALSE(
        built.fabric().neighbour(f, built.egress_port(f)).has_value());
  }
  // Leaf0 <-> spine1 wired both ways through some port.
  const std::size_t leaf0 = built.fabric_index(topo.index_of("leaf0"));
  const std::size_t spine1 = built.fabric_index(topo.index_of("spine1"));
  EXPECT_TRUE(built.fabric().port_between(leaf0, spine1).has_value());
  EXPECT_TRUE(built.fabric().port_between(spine1, leaf0).has_value());

  EXPECT_THROW((void)built.fabric_index(topo.index_of("leaf0h0")),
               std::invalid_argument);
}

TEST(BuiltFabric, RoutesFollowShortestPathsAndAreCached) {
  const auto topo = make_ring(8);
  BuiltFabric built(topo);
  const NodeIndex src = topo.index_of("r0");
  const NodeIndex dst = topo.index_of("r3");
  const CompiledRoute* route = built.route(src, dst);
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route, built.route(src, dst));  // cached pointer
  EXPECT_EQ(route->path.size(), 3u);        // r0-r1-r2-r3
  EXPECT_EQ(route->expected.hops, 4u);
  EXPECT_EQ(route->expected.egress_node, built.fabric_index(dst));
  EXPECT_TRUE(route->segments.single_label());
  EXPECT_THROW((void)built.route(src, src), std::invalid_argument);
}

TEST(BuiltFabric, FailLinkInvalidatesExactlyTheCrossingRoutes) {
  const auto topo = make_ring(6);
  BuiltFabric built(topo);
  const NodeIndex r0 = topo.index_of("r0");
  const NodeIndex r1 = topo.index_of("r1");
  const NodeIndex r2 = topo.index_of("r2");
  const NodeIndex r5 = topo.index_of("r5");

  const CompiledRoute* forward = built.route(r0, r2);  // via r1
  const CompiledRoute* backward = built.route(r0, r5); // the other way
  ASSERT_NE(forward, nullptr);
  ASSERT_NE(backward, nullptr);
  const auto backward_hops = backward->expected.hops;

  const auto affected = built.apply_failure(r0, r1).affected;
  ASSERT_EQ(affected.size(), 1u);
  EXPECT_EQ(affected[0].first, r0);
  EXPECT_EQ(affected[0].second, r2);
  EXPECT_EQ(built.failed_links().size(), 2u);  // both directions

  // The surviving route recompiles identically; the severed pair now
  // detours the long way round (4 links instead of 2).
  EXPECT_EQ(built.route(r0, r5)->expected.hops, backward_hops);
  const CompiledRoute* detour = built.route(r0, r2);
  ASSERT_NE(detour, nullptr);
  EXPECT_EQ(detour->path.size(), 4u);
  EXPECT_EQ(detour->expected.egress_node, built.fabric_index(r2));

  EXPECT_THROW((void)built.apply_failure(r0, r2), std::invalid_argument);
}

TEST(BuiltFabric, DisconnectionYieldsNullRoute) {
  const auto topo = make_ring(4);
  BuiltFabric built(topo);
  const NodeIndex r0 = topo.index_of("r0");
  const NodeIndex r1 = topo.index_of("r1");
  const NodeIndex r2 = topo.index_of("r2");
  const NodeIndex r3 = topo.index_of("r3");
  (void)built.apply_failure(r0, r1);
  (void)built.apply_failure(r2, r3);  // ring cut twice: {r0, r3} vs {r1, r2}
  EXPECT_EQ(built.route(r0, r1), nullptr);
  EXPECT_EQ(built.route(r0, r2), nullptr);
  ASSERT_NE(built.route(r0, r3), nullptr);
  ASSERT_NE(built.route(r1, r2), nullptr);
}

TEST(BuiltFabric, SingleRouterHasNoPairs) {
  netsim::Topology topo;
  topo.add_node("solo");
  BuiltFabric built(topo);
  EXPECT_EQ(built.router_count(), 1u);
  EXPECT_EQ(built.egress_port(0), 0u);  // the lone port faces the hosts
  EXPECT_EQ(built.compile_all_pairs(), 0u);
  EXPECT_EQ(built.enable_protection(1), 0u);
  EXPECT_EQ(built.cached_route(0, 0), nullptr);
  EXPECT_THROW((void)built.route(0, 0), std::invalid_argument);
}

TEST(BuiltFabric, DisjointRingsStayApart) {
  // Two 4-rings with no link between them: r0-r3 and r4-r7.
  netsim::Topology topo;
  for (int i = 0; i < 8; ++i) topo.add_node("r" + std::to_string(i));
  for (NodeIndex i = 0; i < 4; ++i) {
    topo.add_duplex_link(i, (i + 1) % 4, 100.0, 1.0);
    topo.add_duplex_link(4 + i, 4 + (i + 1) % 4, 100.0, 1.0);
  }
  const auto ring_of = [](NodeIndex n) { return n / 4; };
  BuiltFabric built(topo);
  EXPECT_EQ(built.compile_all_pairs(), 24u);  // 2 rings x 4 x 3 pairs
  for (NodeIndex src = 0; src < 8; ++src) {
    for (NodeIndex dst = 0; dst < 8; ++dst) {
      if (src == dst) continue;
      EXPECT_EQ(built.cached_route(src, dst) != nullptr,
                ring_of(src) == ring_of(dst))
          << src << "->" << dst;
    }
  }
  EXPECT_EQ(built.route(0, 4), nullptr);
  EXPECT_EQ(built.route(6, 1), nullptr);

  // Every pair's backup is its ring's other arc.
  EXPECT_EQ(built.enable_protection(1), 24u);
  std::vector<const CompiledRoute*> ring_b;
  std::vector<CompiledRoute> ring_b_before;
  for (NodeIndex src = 4; src < 8; ++src) {
    for (NodeIndex dst = 4; dst < 8; ++dst) {
      if (src == dst) continue;
      ring_b.push_back(built.cached_route(src, dst));
      ring_b_before.push_back(*ring_b.back());
    }
  }
  const FailoverReport report = built.apply_failure(0, 1);
  EXPECT_FALSE(report.affected.empty());
  for (const auto& [src, dst] : report.affected) {
    EXPECT_EQ(ring_of(src), 0u) << src << "->" << dst;
    EXPECT_EQ(ring_of(dst), 0u) << src << "->" << dst;
  }
  EXPECT_EQ(report.swapped, report.affected);
  EXPECT_TRUE(report.pending.empty());
  EXPECT_TRUE(report.unroutable.empty());
  EXPECT_EQ(report.window_recompiles, 0u);

  std::size_t i = 0;
  for (NodeIndex src = 4; src < 8; ++src) {
    for (NodeIndex dst = 4; dst < 8; ++dst) {
      if (src == dst) continue;
      const CompiledRoute* now = built.cached_route(src, dst);
      EXPECT_EQ(now, ring_b[i]) << src << "->" << dst;
      ASSERT_NE(now, nullptr);
      EXPECT_EQ(now->path, ring_b_before[i].path);
      EXPECT_EQ(now->segments, ring_b_before[i].segments);
      ++i;
    }
  }
  EXPECT_EQ(built.route(0, 4), nullptr);
  EXPECT_EQ(built.repair_pending().affected.size(), 0u);
}

}  // namespace
}  // namespace hp::scenario
