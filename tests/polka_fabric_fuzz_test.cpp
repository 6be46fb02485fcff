// Randomized property testing of PolKA fabric forwarding: on random
// connected fabrics, every simple path's routeID must steer a packet
// exactly along that path, the label must stay within its CRT bit
// bound, and the CRC engines, the exact remainder and the compiled fast
// path must agree on every hop.

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "polka/crc.hpp"
#include "polka/fastpath.hpp"
#include "polka/forwarding.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/registry.hpp"

namespace hp::polka {
namespace {

struct RandomFabric {
  PolkaFabric fabric;
  std::vector<std::vector<std::size_t>> adjacency;  // node -> neighbours
};

/// Ring of n nodes plus random chords; every node gets an extra unwired
/// host port (the last port index).
RandomFabric make_random_fabric(std::size_t n, std::mt19937_64& rng) {
  // First decide the neighbour sets, then size the ports.
  std::vector<std::set<std::size_t>> neighbours(n);
  for (std::size_t i = 0; i < n; ++i) {
    neighbours[i].insert((i + 1) % n);
    neighbours[(i + 1) % n].insert(i);
  }
  for (std::size_t c = 0; c < n; ++c) {
    const std::size_t a = rng() % n;
    const std::size_t b = rng() % n;
    if (a == b) continue;
    neighbours[a].insert(b);
    neighbours[b].insert(a);
  }
  RandomFabric out;
  for (std::size_t i = 0; i < n; ++i) {
    out.fabric.add_node("n" + std::to_string(i),
                        static_cast<unsigned>(neighbours[i].size()) + 1);
  }
  out.adjacency.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    unsigned port = 0;
    for (const std::size_t peer : neighbours[i]) {
      out.fabric.connect(i, port++, peer);
      out.adjacency[i].push_back(peer);
    }
  }
  return out;
}

/// Random simple path by loop-erased random walk.
std::vector<std::size_t> random_simple_path(const RandomFabric& rf,
                                            std::mt19937_64& rng,
                                            std::size_t max_len) {
  const std::size_t n = rf.adjacency.size();
  std::vector<std::size_t> path{rng() % n};
  std::set<std::size_t> seen{path[0]};
  while (path.size() < max_len) {
    const auto& next_options = rf.adjacency[path.back()];
    std::vector<std::size_t> fresh;
    for (const std::size_t peer : next_options) {
      if (!seen.contains(peer)) fresh.push_back(peer);
    }
    if (fresh.empty()) break;
    const std::size_t next = fresh[rng() % fresh.size()];
    path.push_back(next);
    seen.insert(next);
  }
  return path;
}

class FabricFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FabricFuzz, RandomPathsForwardExactly) {
  const int seed = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 2654435761u + 1);
  const std::size_t n = 6 + rng() % 20;
  const RandomFabric rf = make_random_fabric(n, rng);

  for (int trial = 0; trial < 15; ++trial) {
    const auto path = random_simple_path(rf, rng, 2 + rng() % 10);
    if (path.size() < 2) continue;
    // Egress on the host port (always the last, unwired port).
    const unsigned egress = static_cast<unsigned>(
        rf.adjacency[path.back()].size());
    const RouteId route = rf.fabric.route_for_path(path, egress);

    // Bit bound: deg(routeID) < sum of nodeID degrees along the path.
    int degree_sum = 0;
    for (const std::size_t node : path) {
      degree_sum += rf.fabric.node(node).poly.degree();
    }
    EXPECT_LT(route.value.degree(), degree_sum);

    const auto trace = rf.fabric.forward(route, path.front());
    ASSERT_EQ(trace.nodes, path) << "seed=" << seed;
    EXPECT_EQ(trace.ports.back(), egress);
    EXPECT_EQ(trace.mod_operations, path.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FabricFuzz, ::testing::Range(0, 10));

/// The CRC engines a switch would hold for each random nodeID, the
/// exact polynomial remainder, and the compiled fast path must compute
/// identical ports on randomized fabrics.
class EngineParityFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EngineParityFuzz, ScalarEnginesAndBatchAgree) {
  const int seed = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 0x9E3779B97F4A7C15ull +
                      3);
  const std::size_t n = 6 + rng() % 20;
  const RandomFabric rf = make_random_fabric(n, rng);
  std::vector<BitSerialCrc> bit_serial;
  std::vector<TableCrc> table;
  for (std::size_t i = 0; i < n; ++i) {
    bit_serial.emplace_back(rf.fabric.node(i).poly);
    table.emplace_back(rf.fabric.node(i).poly);
  }
  const CompiledFabric& fast = rf.fabric.compiled();

  std::vector<RouteId> routes;
  std::vector<RouteLabel> labels;
  for (int trial = 0; trial < 15; ++trial) {
    const auto path = random_simple_path(rf, rng, 2 + rng() % 10);
    if (path.size() < 2) continue;
    const unsigned egress =
        static_cast<unsigned>(rf.adjacency[path.back()].size());
    const RouteId route = rf.fabric.route_for_path(path, egress);
    const auto trace = rf.fabric.forward(route, path.front());
    ASSERT_EQ(trace.nodes, path) << "seed=" << seed;
    const auto label = pack_label(route);
    ASSERT_TRUE(label.has_value()) << "seed=" << seed;

    // Every hop: both CRC engines reproduce the exact remainder, and
    // the compiled fold lands on the port the scalar walk took.
    for (std::size_t i = 0; i < trace.nodes.size(); ++i) {
      const std::size_t node = trace.nodes[i];
      const gf2::Poly want = route.value % rf.fabric.node(node).poly;
      EXPECT_EQ(bit_serial[node].remainder(route.value), want)
          << "seed=" << seed << " hop=" << i;
      EXPECT_EQ(table[node].remainder(route.value), want)
          << "seed=" << seed << " hop=" << i;
      EXPECT_EQ(polynomial_port(want), trace.ports[i])
          << "seed=" << seed << " hop=" << i;
      EXPECT_EQ(fast.port_of(*label, node), trace.ports[i])
          << "seed=" << seed << " hop=" << i;
    }
    PacketResult want;
    want.egress_node = static_cast<std::uint32_t>(trace.nodes.back());
    want.egress_port = trace.ports.back();
    want.hops = static_cast<std::uint32_t>(trace.nodes.size());
    EXPECT_EQ(fast.forward_one(*label, path.front()), want)
        << "seed=" << seed;

    routes.push_back(route);
    labels.push_back(*label);
  }

  // Batch entry point: inject every collected label at node 0 (walks
  // may be "wrong" routes for that ingress -- parity must hold anyway)
  // and compare against the scalar walk packet by packet.
  std::vector<PacketResult> got(labels.size());
  const std::size_t mods =
      fast.forward_batch(labels, /*first=*/0, std::span<PacketResult>(got));
  std::size_t want_mods = 0;
  for (std::size_t i = 0; i < routes.size(); ++i) {
    const auto trace = rf.fabric.forward(routes[i], 0);
    ASSERT_FALSE(trace.nodes.empty());
    EXPECT_EQ(got[i].egress_node, trace.nodes.back()) << "seed=" << seed;
    EXPECT_EQ(got[i].egress_port, trace.ports.back()) << "seed=" << seed;
    EXPECT_EQ(got[i].hops, trace.nodes.size()) << "seed=" << seed;
    EXPECT_EQ(got[i].ttl_expired, trace.ttl_expired) << "seed=" << seed;
    want_mods += trace.mod_operations;
  }
  EXPECT_EQ(mods, want_mods) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineParityFuzz, ::testing::Range(0, 10));

/// Scenario-generated topologies: on every family, random router pairs'
/// compiled routes must walk identically through the scalar fabric and
/// the batched fast path, ending at the intended destination's egress
/// port.
class GeneratedTopologyParityFuzz
    : public ::testing::TestWithParam<std::string> {};

TEST_P(GeneratedTopologyParityFuzz, CompiledRoutesAgreeWithScalarWalks) {
  const hp::scenario::ScenarioSpec* spec =
      hp::scenario::find_scenario(GetParam());
  ASSERT_NE(spec, nullptr);
  hp::scenario::BuiltFabric built(hp::scenario::build_topology(*spec));
  const CompiledFabric& fast = built.compiled();
  const auto& routers = built.routers();
  ASSERT_GE(routers.size(), 2u);

  std::mt19937_64 rng(0xC0FFEEull + routers.size());
  std::vector<RouteLabel> labels;
  std::vector<std::uint32_t> firsts;
  std::vector<PacketResult> expected;
  for (int trial = 0; trial < 40; ++trial) {
    const auto src = routers[rng() % routers.size()];
    const auto dst = routers[rng() % routers.size()];
    if (src == dst) continue;
    const hp::scenario::CompiledRoute* route = built.route(src, dst);
    ASSERT_NE(route, nullptr);  // generated families are connected
    ASSERT_TRUE(route->label.has_value());

    // Scalar reference walk agrees with the planned egress...
    const auto trace = built.fabric().forward(route->id, route->ingress);
    ASSERT_FALSE(trace.nodes.empty());
    EXPECT_EQ(trace.nodes.back(), route->expected.egress_node);
    EXPECT_EQ(trace.ports.back(), route->expected.egress_port);
    EXPECT_EQ(trace.nodes.size(), route->expected.hops);
    EXPECT_EQ(trace.nodes.back(), built.fabric_index(dst));
    EXPECT_EQ(trace.ports.back(),
              built.egress_port(built.fabric_index(dst)));

    // ...and so does the compiled walk.
    EXPECT_EQ(fast.forward_one(*route->label, route->ingress),
              route->expected);

    labels.push_back(*route->label);
    firsts.push_back(route->ingress);
    expected.push_back(route->expected);
  }
  ASSERT_FALSE(labels.empty());
  std::vector<PacketResult> got(labels.size());
  (void)fast.forward_batch(labels,
                           std::span<const std::uint32_t>(firsts),
                           std::span<PacketResult>(got));
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Families, GeneratedTopologyParityFuzz,
    ::testing::Values("fat_tree_k4/uniform", "leaf_spine_4x8/uniform",
                      "ring12/uniform", "torus4x4/uniform", "rr16d4/uniform"),
    [](const auto& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (c == '/' || c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace hp::polka
