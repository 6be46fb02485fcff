// ScenarioRunner end-to-end: every topology family x traffic pattern
// replays with zero egress divergence, batched results match the scalar
// reference walk packet for packet, thread count never changes the
// counters, and link-failure schedules reroute or drop exactly as the
// degraded topology dictates.

#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "scenario/registry.hpp"

namespace hp::scenario {
namespace {

/// families x patterns; every builtin scenario appears here.
class ScenarioMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>> {};

TEST_P(ScenarioMatrix, ReplaysWithIntendedEgressAndScalarParity) {
  const auto& [name, threads] = GetParam();
  const ScenarioSpec* spec = find_scenario(name);
  ASSERT_NE(spec, nullptr) << name;

  BuiltFabric fabric(build_topology(*spec));
  TrafficParams traffic = spec->traffic;
  traffic.packets = 4096;  // matrix-sized, CI-friendly
  PacketStream stream = generate_traffic(fabric, traffic);
  ASSERT_EQ(stream.size(), 4096u);
  EXPECT_EQ(stream.unreachable_pairs, 0u);

  // Scalar reference: every pair's routeID walks the plain PolkaFabric
  // to the planned egress -- the batched path must agree with this.
  for (const TrafficPair& pair : stream.pairs) {
    const CompiledRoute* route = fabric.route(pair.src, pair.dst);
    ASSERT_NE(route, nullptr);
    const auto trace = fabric.fabric().forward(
        polka::unpack_label(route->segments.labels.front()), route->ingress);
    ASSERT_FALSE(trace.nodes.empty());
    EXPECT_EQ(trace.nodes.back(), pair.expected.egress_node);
    EXPECT_EQ(trace.ports.back(), pair.expected.egress_port);
    EXPECT_EQ(trace.nodes.size(), pair.expected.hops);
    // The intended destination, by construction of the pair.
    EXPECT_EQ(pair.expected.egress_node, fabric.fabric_index(pair.dst));
    EXPECT_EQ(pair.expected.egress_port,
              fabric.egress_port(fabric.fabric_index(pair.dst)));
  }

  RunnerOptions options;
  options.threads = threads;
  options.batch_size = 256;
  const ScenarioReport report = ScenarioRunner(options).run(fabric, stream);
  EXPECT_EQ(report.packets, stream.size());
  EXPECT_EQ(report.wrong_egress, 0u);
  EXPECT_EQ(report.dropped_packets, 0u);
  EXPECT_GT(report.mod_operations, report.packets);  // multi-hop routes
}

std::vector<std::tuple<std::string, unsigned>> matrix_params() {
  std::vector<std::tuple<std::string, unsigned>> params;
  for (const ScenarioSpec& spec : builtin_scenarios()) {
    params.emplace_back(spec.name, 1u);
    params.emplace_back(spec.name, 4u);
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ScenarioMatrix,
                         ::testing::ValuesIn(matrix_params()),
                         [](const auto& param_info) {
                           auto name = std::get<0>(param_info.param);
                           for (char& c : name) {
                             if (c == '/' || c == '-') c = '_';
                           }
                           return name + "_t" +
                                  std::to_string(std::get<1>(param_info.param));
                         });

TEST(ScenarioRunner, ThreadCountDoesNotChangeCounters) {
  const ScenarioSpec* spec = find_scenario("torus4x4/uniform");
  ASSERT_NE(spec, nullptr);
  ScenarioReport reference;
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    BuiltFabric fabric(build_topology(*spec));
    PacketStream stream = generate_traffic(fabric, spec->traffic);
    RunnerOptions options;
    options.threads = threads;
    const ScenarioReport report = ScenarioRunner(options).run(fabric, stream);
    if (threads == 1) {
      reference = report;
    } else {
      EXPECT_EQ(report.packets, reference.packets) << threads;
      EXPECT_EQ(report.mod_operations, reference.mod_operations) << threads;
      EXPECT_EQ(report.wrong_egress, reference.wrong_egress) << threads;
    }
    EXPECT_EQ(report.wrong_egress, 0u);
  }
}

TEST(ScenarioRunner, LinkFailureReroutesMidRun) {
  // Ring: failing one link forces every pair that crossed it onto the
  // long way round; all packets still reach their destination.
  BuiltFabric fabric(make_ring(8));
  TrafficParams traffic;
  traffic.pattern = TrafficPattern::kPermutation;
  traffic.packets = 4000;
  traffic.seed = 3;
  PacketStream stream = generate_traffic(fabric, traffic);

  RunnerOptions options;
  options.threads = 2;
  options.failures.push_back(
      LinkFailure{0.5, fabric.topology().index_of("r0"),
                  fabric.topology().index_of("r1")});
  const ScenarioReport report = ScenarioRunner(options).run(fabric, stream);
  EXPECT_EQ(report.packets, 4000u);
  EXPECT_EQ(report.wrong_egress, 0u);
  EXPECT_EQ(report.dropped_packets, 0u);
  // The permutation includes neighbours on both sides of the cut, so at
  // least one pair crossed r0-r1 and was recompiled.
  EXPECT_GE(report.rerouted_pairs, 1u);
  // Rerouted packets walk farther than before the failure.
  EXPECT_GT(report.mod_operations, 0u);
}

TEST(ScenarioRunner, DisconnectionDropsRemainingPackets) {
  // Cutting a 4-ring twice isolates {r1, r2} from {r3, r0}: pairs that
  // straddle the cut become unroutable and their remaining packets are
  // dropped, not misdelivered.
  BuiltFabric fabric(make_ring(4));
  TrafficParams traffic;
  traffic.pattern = TrafficPattern::kUniformRandom;
  traffic.packets = 4000;
  traffic.seed = 9;
  PacketStream stream = generate_traffic(fabric, traffic);

  RunnerOptions options;
  const auto r = [&](const char* name) {
    return fabric.topology().index_of(name);
  };
  options.failures.push_back(LinkFailure{0.25, r("r0"), r("r1")});
  options.failures.push_back(LinkFailure{0.25, r("r2"), r("r3")});
  const ScenarioReport report = ScenarioRunner(options).run(fabric, stream);
  EXPECT_EQ(report.wrong_egress, 0u);
  EXPECT_GT(report.dropped_packets, 0u);
  EXPECT_EQ(report.packets + report.dropped_packets, 4000u);
  // Severed pairs are reported explicitly, not just as silent drops.
  EXPECT_GT(report.unroutable_pairs, 0u);
  EXPECT_EQ(report.failover_packets_lost, report.dropped_packets);
  // The pre-failure quarter ran in full, and pairs inside each island
  // kept flowing afterwards.
  EXPECT_GT(report.packets, 1000u);
  EXPECT_LT(report.packets, 4000u);
}

TEST(ScenarioRunner, RegistryRunScenarioOneCall) {
  const ScenarioSpec* spec = find_scenario("fat_tree_k4/hotspot");
  ASSERT_NE(spec, nullptr);
  RunnerOptions options;
  options.threads = 2;
  const ScenarioReport report = run_scenario(*spec, options);
  EXPECT_EQ(report.packets, spec->traffic.packets);
  EXPECT_EQ(report.wrong_egress, 0u);
  EXPECT_GT(report.packets_per_sec(), 0.0);
}

TEST(ScenarioRegistry, CoversEveryFamilyAndPattern) {
  std::set<TopologyFamily> families;
  std::set<TrafficPattern> patterns;
  for (const ScenarioSpec& spec : builtin_scenarios()) {
    families.insert(spec.family);
    patterns.insert(spec.traffic.pattern);
    EXPECT_EQ(find_scenario(spec.name), &spec);
  }
  EXPECT_EQ(families.size(), 5u);
  EXPECT_EQ(patterns.size(), 4u);
  EXPECT_EQ(find_scenario("no_such_scenario"), nullptr);
}

TEST(ReplayShards, ValidatesArguments) {
  BuiltFabric fabric(make_ring(4));
  const auto& fast = fabric.compiled();
  const std::vector<TrafficPair> lanes(2);
  std::vector<std::uint32_t> index(4, 0);
  EXPECT_THROW((void)replay_shards(fast, lanes, index, {}, {}, 1, 0),
               std::invalid_argument);
  // A packet naming a lane past the table is refused, not read.
  index[3] = 2;
  EXPECT_THROW((void)replay_shards(fast, lanes, index, {}, {}, 1, 16),
               std::invalid_argument);
  EXPECT_THROW((void)replay_shards(fast, lanes, index, {}, {}, 4, 16),
               std::invalid_argument);
  // A nonempty alive mask must have one entry per lane.
  index[3] = 1;
  const std::vector<std::uint8_t> short_alive(1, 1);
  EXPECT_THROW((void)replay_shards(fast, lanes, index, short_alive, {}, 1, 16),
               std::invalid_argument);
  const std::vector<std::uint8_t> alive(2, 0);
  const ScenarioReport dead =
      replay_shards(fast, lanes, index, alive, {}, 2, 16);
  EXPECT_EQ(dead.dropped_packets, index.size());
  EXPECT_EQ(dead.packets, 0u);
}

}  // namespace
}  // namespace hp::scenario
