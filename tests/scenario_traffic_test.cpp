// Traffic-matrix generators: stream shape, pattern properties and the
// zero-skip guarantee on the built-in topology sizes.

#include "scenario/traffic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "scenario/topologies.hpp"

namespace hp::scenario {
namespace {

TrafficParams params_for(TrafficPattern pattern, std::size_t packets = 2000) {
  TrafficParams params;
  params.pattern = pattern;
  params.packets = packets;
  params.seed = 5;
  return params;
}

class TrafficPatterns : public ::testing::TestWithParam<TrafficPattern> {};

TEST_P(TrafficPatterns, StreamShapeIsConsistent) {
  BuiltFabric fabric(make_torus(4, 4));
  const PacketStream stream =
      generate_traffic(fabric, params_for(GetParam()));
  EXPECT_EQ(stream.size(), 2000u);
  EXPECT_EQ(stream.unreachable_pairs, 0u);
  ASSERT_FALSE(stream.pairs.empty());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_LT(stream.pair[i], stream.pairs.size());
  }
  for (const TrafficPair& pair : stream.pairs) {
    EXPECT_NE(pair.src, pair.dst);
    // The lane is injected at its source router and carries its
    // route's first label; a segmented route pools the rest.
    EXPECT_EQ(pair.ingress, fabric.fabric_index(pair.src));
    const CompiledRoute* route = fabric.route(pair.src, pair.dst);
    ASSERT_NE(route, nullptr);
    EXPECT_EQ(pair.label, route->segments.labels.front());
    EXPECT_EQ(pair.expected, route->expected);
    ASSERT_EQ(pair.ref.label_count, route->segments.labels.size());
    if (pair.ref.label_count > 1) {
      EXPECT_EQ(stream.seg_labels[pair.ref.first_label], pair.label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, TrafficPatterns,
    ::testing::Values(TrafficPattern::kUniformRandom,
                      TrafficPattern::kPermutation, TrafficPattern::kHotspot,
                      TrafficPattern::kElephantMice),
    [](const auto& param_info) {
      return std::string(to_string(param_info.param));
    });

TEST(Traffic, PermutationGivesEachRouterOnePartner) {
  BuiltFabric fabric(make_ring(10));
  const PacketStream stream =
      generate_traffic(fabric, params_for(TrafficPattern::kPermutation));
  EXPECT_EQ(stream.pairs.size(), 10u);  // one pair per router
  std::set<netsim::NodeIndex> sources;
  std::set<netsim::NodeIndex> destinations;
  for (const TrafficPair& pair : stream.pairs) {
    EXPECT_TRUE(sources.insert(pair.src).second) << "duplicate source";
    EXPECT_TRUE(destinations.insert(pair.dst).second) << "duplicate dest";
  }
}

TEST(Traffic, HotspotConcentratesOnOneDestination) {
  BuiltFabric fabric(make_leaf_spine(3, 6));
  TrafficParams params = params_for(TrafficPattern::kHotspot, 4000);
  params.hotspot_weight = 0.7;
  const PacketStream stream = generate_traffic(fabric, params);
  std::map<netsim::NodeIndex, std::size_t> per_dst;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    per_dst[stream.pairs[stream.pair[i]].dst] += 1;
  }
  std::size_t hottest = 0;
  for (const auto& [dst, count] : per_dst) hottest = std::max(hottest, count);
  // The hot destination should carry roughly hotspot_weight of traffic.
  EXPECT_GT(hottest, stream.size() / 2);
  EXPECT_LT(hottest, stream.size());  // but not all of it
}

TEST(Traffic, ElephantMiceMixesFlowSizes) {
  BuiltFabric fabric(make_fat_tree(4));
  TrafficParams params = params_for(TrafficPattern::kElephantMice, 5000);
  params.workload.duration_s = 60.0;
  params.workload.arrival_rate_per_s = 2.0;
  // Small mice (median ~50 KB => tens of packets) against elephants
  // that hit the per-flow cap, so run lengths spread widely.
  params.workload.mice_log_mean = -3.0;
  const PacketStream stream = generate_traffic(fabric, params);
  EXPECT_EQ(stream.size(), 5000u);  // budget filled exactly
  // Flow structure shows as runs of identical pairs with very different
  // lengths (mice ~ a few packets, elephants hit the per-flow cap).
  std::vector<std::size_t> run_lengths;
  std::size_t run = 1;
  for (std::size_t i = 1; i < stream.size(); ++i) {
    if (stream.pair[i] == stream.pair[i - 1]) {
      ++run;
    } else {
      run_lengths.push_back(run);
      run = 1;
    }
  }
  run_lengths.push_back(run);
  ASSERT_GT(run_lengths.size(), 1u);
  const auto [min_it, max_it] =
      std::minmax_element(run_lengths.begin(), run_lengths.end());
  EXPECT_GT(*max_it, 4u * *min_it);  // heavy-tailed mix
}

TEST(Traffic, DeterministicInSeed) {
  BuiltFabric fabric_a(make_random_regular(16, 4, 3));
  BuiltFabric fabric_b(make_random_regular(16, 4, 3));
  const auto params = params_for(TrafficPattern::kUniformRandom, 500);
  const PacketStream a = generate_traffic(fabric_a, params);
  const PacketStream b = generate_traffic(fabric_b, params);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.pair, b.pair);
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (std::size_t lane = 0; lane < a.pairs.size(); ++lane) {
    EXPECT_EQ(a.pairs[lane].label, b.pairs[lane].label);
    EXPECT_EQ(a.pairs[lane].ingress, b.pairs[lane].ingress);
  }
}

TEST(Traffic, ValidatesParameters) {
  BuiltFabric fabric(make_ring(4));
  TrafficParams params;
  params.packets = 0;
  EXPECT_THROW((void)generate_traffic(fabric, params), std::invalid_argument);
  BuiltFabric lonely(make_leaf_spine(1, 1));  // 2 routers is the minimum
  params.packets = 10;
  EXPECT_NO_THROW((void)generate_traffic(lonely, params));
}

}  // namespace
}  // namespace hp::scenario
