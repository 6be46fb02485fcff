// Multi-segment routes end to end: every registry family forwards
// bit-identically via single-label vs segmented walks, deep ring/torus
// topologies compile to <= 64-bit segments with tree/per-path parity,
// apply_failure repairs a route whose waypoint node died, and ring-1024 /
// torus-32x32 replay entirely on the uint64 fast path -- every pair
// routed, zero wrong egress, zero hop-cap kills.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "netsim/paths.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/topologies.hpp"
#include "scenario/traffic.hpp"

namespace hp::scenario {
namespace {

using netsim::NodeIndex;

/// Step the compiled fold engine by hand -- port_of plus the waypoint
/// re-label rule -- recording the fabric nodes visited.  This is the
/// hop-sequence oracle the segmented fast path must reproduce.
std::vector<std::size_t> fold_walk_nodes(const BuiltFabric& built,
                                         const polka::SegmentedRoute& route,
                                         std::size_t first) {
  const polka::CompiledFabric& fast = built.compiled();
  std::vector<std::size_t> nodes;
  std::size_t seg = 0;
  std::size_t current = first;
  for (std::size_t hop = 0; hop < 8192; ++hop) {
    if (seg < route.waypoints.size() && current == route.waypoints[seg]) ++seg;
    nodes.push_back(current);
    const std::uint32_t port = fast.port_of(route.labels[seg], current);
    const auto peer = built.fabric().neighbour(current, port);
    if (!peer) break;
    current = *peer;
  }
  return nodes;
}

/// The fabric-index node sequence a compiled route's topology path
/// prescribes (source included).
std::vector<std::size_t> path_fabric_nodes(const BuiltFabric& built,
                                           NodeIndex src,
                                           const netsim::Path& path) {
  std::vector<std::size_t> nodes{built.fabric_index(src)};
  for (const netsim::LinkIndex l : path) {
    nodes.push_back(built.fabric_index(built.topology().link(l).to));
  }
  return nodes;
}

/// Full per-route invariants: segments exist, the segmented fast-path
/// walk delivers the expected result, and its hop sequence is exactly
/// the compiled topology path.
void expect_segmented_route_exact(BuiltFabric& built, NodeIndex src,
                                  const CompiledRoute& route,
                                  std::size_t max_hops) {
  ASSERT_FALSE(route.segments.labels.empty());
  ASSERT_EQ(route.segments.waypoints.size(),
            route.segments.labels.size() - 1);
  const polka::CompiledFabric& fast = built.compiled();
  const polka::PacketResult got = fast.forward_segmented(
      route.segments.labels, route.segments.waypoints, route.ingress,
      max_hops);
  EXPECT_FALSE(got.ttl_expired);
  EXPECT_EQ(got, route.expected);
  if (route.segments.single_label()) {
    // Where the single-label path exists the two walks must agree
    // bit for bit, packet for packet.
    EXPECT_EQ(fast.forward_one(route.segments.labels.front(), route.ingress,
                               max_hops),
              got);
  }
  EXPECT_EQ(fold_walk_nodes(built, route.segments, route.ingress),
            path_fabric_nodes(built, src, route.path));
}

TEST(SegmentedRoutes, EveryRegistryFamilyForwardsIdenticallyBothWays) {
  std::set<std::string> seen_topologies;
  for (const ScenarioSpec& spec : builtin_scenarios()) {
    const std::string topo_name = spec.name.substr(0, spec.name.find('/'));
    if (!seen_topologies.insert(topo_name).second) continue;
    SCOPED_TRACE(topo_name);
    BuiltFabric built(build_topology(spec));
    built.compile_all_pairs();
    for (const NodeIndex src : built.routers()) {
      for (const NodeIndex dst : built.routers()) {
        if (src == dst) continue;
        const CompiledRoute* route = built.route(src, dst);
        ASSERT_NE(route, nullptr);
        expect_segmented_route_exact(built, src, *route, 64);
      }
    }
  }
}

/// Deep families: tree-incremental compilation and the per-path
/// baseline must cut identical segments, and every route -- now far
/// past the 64-bit single-label bound -- replays exactly.
TEST(SegmentedRoutes, DeepRingTreeAndPerPathCutIdenticalSegments) {
  const auto topo = make_ring(128);
  BuiltFabric tree_compiled(topo);
  BuiltFabric baseline(topo);
  const std::size_t n = tree_compiled.router_count();
  ASSERT_EQ(tree_compiled.compile_all_pairs(), n * (n - 1));

  std::size_t multi_segment = 0;
  for (const NodeIndex src : tree_compiled.routers()) {
    for (const NodeIndex dst : tree_compiled.routers()) {
      if (src == dst) continue;
      const CompiledRoute* t = tree_compiled.route(src, dst);
      const CompiledRoute* b = baseline.route(src, dst);
      ASSERT_NE(t, nullptr);
      ASSERT_NE(b, nullptr);
      EXPECT_EQ(t->segments, b->segments);
      EXPECT_EQ(t->path, b->path);
      multi_segment += !t->segments.single_label();
    }
  }
  // A 128-ring's diameter paths accumulate far more than 64 modulus
  // bits: segmentation must actually engage.
  EXPECT_GT(multi_segment, 0u);

  // Spot-check the longest route end to end.
  const NodeIndex r0 = topo.index_of("r0");
  const NodeIndex r64 = topo.index_of("r64");
  const CompiledRoute* longest = tree_compiled.route(r0, r64);
  ASSERT_NE(longest, nullptr);
  EXPECT_GE(longest->segments.labels.size(), 2u);
  expect_segmented_route_exact(tree_compiled, r0, *longest, 256);
}

TEST(SegmentedRoutes, FailLinkRepairsRouteWhoseWaypointDied) {
  const auto topo = make_ring(128);
  BuiltFabric built(topo);
  built.compile_all_pairs();

  const NodeIndex r0 = topo.index_of("r0");
  const NodeIndex r64 = topo.index_of("r64");
  const CompiledRoute* route = built.route(r0, r64);
  ASSERT_NE(route, nullptr);
  ASSERT_GE(route->segments.waypoints.size(), 1u);

  // Kill the path link *into* the route's first waypoint, so the node
  // the packet would have re-labelled at is no longer on any shortest
  // path for this pair.
  const NodeIndex waypoint =
      built.topo_index(route->segments.waypoints.front());
  netsim::LinkIndex into_waypoint = netsim::kInvalidIndex;
  for (const netsim::LinkIndex l : route->path) {
    if (topo.link(l).to == waypoint) {
      into_waypoint = l;
      break;
    }
  }
  ASSERT_NE(into_waypoint, netsim::kInvalidIndex);
  const NodeIndex from = topo.link(into_waypoint).from;
  const auto affected = built.apply_failure(from, waypoint).affected;
  EXPECT_FALSE(affected.empty());

  // The repaired route detours (the ring stays connected), is still
  // segmented, avoids the dead link, and replays exactly.  It matches
  // a from-scratch compile of the degraded topology bit for bit.
  const CompiledRoute* repaired = built.route(r0, r64);
  ASSERT_NE(repaired, nullptr);
  ASSERT_GE(repaired->segments.labels.size(), 2u);
  for (const netsim::LinkIndex l : repaired->path) {
    EXPECT_NE(l, into_waypoint);
  }
  expect_segmented_route_exact(built, r0, *repaired, 256);

  BuiltFabric fresh(topo);
  (void)fresh.apply_failure(from, waypoint);
  const CompiledRoute* want = fresh.route(r0, r64);
  ASSERT_NE(want, nullptr);
  EXPECT_EQ(repaired->segments, want->segments);
  EXPECT_EQ(repaired->path, want->path);
}

/// The acceptance scenarios: ring-1024 and torus-32x32 streams compile
/// to segmented routes (every label 64-bit by construction) and replay
/// entirely on the uint64 fast path -- no pair is skipped, nothing
/// mis-egresses, nothing hits the hop cap.
class DeepTopologyReplay : public ::testing::TestWithParam<const char*> {};

TEST_P(DeepTopologyReplay, StreamsSegmentedTrafficOnTheFastPath) {
  const std::string which = GetParam();
  netsim::Topology topo =
      which == "ring1024" ? make_ring(1024) : make_torus(32, 32);
  BuiltFabric built(std::move(topo));

  TrafficParams params;
  params.pattern = TrafficPattern::kUniformRandom;
  params.packets = 8192;
  params.max_pairs = 64;
  params.seed = 1234;
  PacketStream stream = generate_traffic(built, params);
  ASSERT_EQ(stream.size(), params.packets);
  EXPECT_EQ(stream.unreachable_pairs, 0u);

  std::size_t multi_segment_pairs = 0;
  for (const TrafficPair& pair : stream.pairs) {
    multi_segment_pairs += pair.ref.label_count > 1;
  }
  EXPECT_GT(multi_segment_pairs, 0u) << which;

  RunnerOptions options;
  options.threads = 2;
  options.max_hops = 2048;
  const ScenarioReport report = ScenarioRunner(options).run(built, stream);
  EXPECT_EQ(report.packets, params.packets);
  EXPECT_EQ(report.wrong_egress, 0u);
  EXPECT_EQ(report.dropped_packets, 0u);
  EXPECT_EQ(report.ttl_expired, 0u);
  EXPECT_GT(report.segmented_packets, 0u);
  EXPECT_GT(report.segment_swaps, 0u);
}

INSTANTIATE_TEST_SUITE_P(Acceptance, DeepTopologyReplay,
                         ::testing::Values("ring1024", "torus32x32"));

TEST(SegmentedRoutes, RunnerRepairsSegmentedPairsMidRun) {
  // A mid-run failure on a deep ring forces segmented pairs onto (still
  // segmented) detours; everything keeps delivering.
  BuiltFabric built(make_ring(192));
  TrafficParams params;
  params.pattern = TrafficPattern::kPermutation;
  params.packets = 4096;
  params.seed = 5;
  PacketStream stream = generate_traffic(built, params);

  // Fail a link on the first pair's path so at least one compiled
  // route is affected.
  const CompiledRoute* first =
      built.route(stream.pairs.front().src, stream.pairs.front().dst);
  ASSERT_NE(first, nullptr);
  const auto& link = built.topology().link(first->path.front());

  RunnerOptions options;
  options.threads = 2;
  options.max_hops = 512;
  options.failures.push_back(LinkFailure{0.5, link.from, link.to});
  const ScenarioReport report = ScenarioRunner(options).run(built, stream);
  EXPECT_EQ(report.packets + report.dropped_packets, params.packets);
  EXPECT_EQ(report.dropped_packets, 0u);  // a ring survives one cut
  EXPECT_EQ(report.wrong_egress, 0u);
  EXPECT_EQ(report.ttl_expired, 0u);
  EXPECT_GE(report.rerouted_pairs, 1u);
  EXPECT_GT(report.segmented_packets, 0u);
}

TEST(SegmentedRoutes, HopCapKillsAreCountedAsTtlNotDeliveries) {
  // max_hops = 1 cannot deliver any multi-node route: every packet must
  // land in ttl_expired, never in wrong_egress or packets lost.
  BuiltFabric built(make_ring(8));
  TrafficParams params;
  params.pattern = TrafficPattern::kPermutation;
  params.packets = 256;
  params.seed = 2;
  PacketStream stream = generate_traffic(built, params);

  RunnerOptions options;
  options.max_hops = 1;
  const ScenarioReport report = ScenarioRunner(options).run(built, stream);
  EXPECT_EQ(report.packets, params.packets);
  EXPECT_EQ(report.ttl_expired, params.packets);
  EXPECT_EQ(report.wrong_egress, 0u);
}

}  // namespace
}  // namespace hp::scenario
