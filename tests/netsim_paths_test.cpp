// Tests for shortest paths, Yen's k-shortest paths and disjoint path
// sets over the topology.

#include "netsim/paths.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "scenario/topologies.hpp"

namespace hp::netsim {
namespace {

TEST(ShortestPath, PicksLowDelayRoute) {
  const Topology topo = make_global_p4_lab();
  const auto path = shortest_path(topo, topo.index_of("MIA"),
                                  topo.index_of("AMS"), PathMetric::kDelay);
  ASSERT_TRUE(path.has_value());
  // MIA-CHI-AMS (4 ms) beats MIA-SAO-AMS (22 ms).
  const auto nodes = path_nodes(topo, *path);
  ASSERT_EQ(nodes.size(), 3U);
  EXPECT_EQ(topo.node(nodes[1]).name, "CHI");
  EXPECT_DOUBLE_EQ(path_weight(topo, *path, PathMetric::kDelay), 4.0);
}

TEST(ShortestPath, MetricChangesTheWinner) {
  const Topology topo = make_global_p4_lab();
  const auto by_capacity =
      shortest_path(topo, topo.index_of("MIA"), topo.index_of("AMS"),
                    PathMetric::kInverseCapacity);
  ASSERT_TRUE(by_capacity.has_value());
  // Inverse capacity prefers the fat 20 Mbps MIA-SAO-AMS pair
  // (1/20 + 1/20) over MIA-CHI-AMS (1/10 + 1/20).
  EXPECT_EQ(topo.node(path_nodes(topo, *by_capacity)[1]).name, "SAO");
}

TEST(ShortestPath, HostsDoNotTransit) {
  // host1 connects only to MIA; a path MIA -> host1 -> ... must never
  // appear.  Build a topology where transiting a host would be the
  // geometric shortcut.
  Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const auto h = topo.add_node("h", NodeKind::kHost);
  topo.add_duplex_link(a, h, 100.0, 0.1);
  topo.add_duplex_link(h, b, 100.0, 0.1);
  topo.add_duplex_link(a, b, 100.0, 50.0);  // slow direct link
  const auto path = shortest_path(topo, a, b);
  ASSERT_TRUE(path.has_value());
  // Must take the slow direct link, not the 0.2 ms host shortcut.
  EXPECT_EQ(path->size(), 1U);
  EXPECT_DOUBLE_EQ(path_weight(topo, *path, PathMetric::kDelay), 50.0);
}

TEST(ShortestPath, UnreachableReturnsNullopt) {
  Topology topo;
  topo.add_node("a");
  topo.add_node("b");
  EXPECT_EQ(shortest_path(topo, 0, 1), std::nullopt);
  EXPECT_THROW((void)shortest_path(topo, 0, 9), std::out_of_range);
}

TEST(KShortest, FindsTheThreePaperTunnels) {
  const Topology topo = make_global_p4_lab();
  const auto paths = k_shortest_paths(topo, topo.index_of("MIA"),
                                      topo.index_of("AMS"), 3,
                                      PathMetric::kDelay);
  ASSERT_EQ(paths.size(), 3U);
  // Delay order: MIA-CHI-AMS (4), MIA-CAL-CHI-AMS (6), MIA-SAO-AMS (22).
  EXPECT_EQ(topo.node(path_nodes(topo, paths[0])[1]).name, "CHI");
  EXPECT_EQ(topo.node(path_nodes(topo, paths[1])[1]).name, "CAL");
  EXPECT_EQ(topo.node(path_nodes(topo, paths[2])[1]).name, "SAO");
  // Weights are non-decreasing.
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(path_weight(topo, paths[i], PathMetric::kDelay),
              path_weight(topo, paths[i - 1], PathMetric::kDelay));
  }
}

TEST(KShortest, PathsAreLooplessAndDistinct) {
  const Topology topo = make_global_p4_lab();
  const auto paths = k_shortest_paths(topo, topo.index_of("host1"),
                                      topo.index_of("host2"), 5);
  EXPECT_GE(paths.size(), 3U);
  std::set<Path> unique(paths.begin(), paths.end());
  EXPECT_EQ(unique.size(), paths.size());
  for (const Path& path : paths) {
    const auto nodes = path_nodes(topo, path);
    std::set<NodeIndex> seen(nodes.begin(), nodes.end());
    EXPECT_EQ(seen.size(), nodes.size()) << "loop in path";
    EXPECT_TRUE(topo.is_connected_path(path));
  }
}

// Undirected identity of a directed link, for disjointness checks.
std::pair<NodeIndex, NodeIndex> undirected(const Topology& topo,
                                           LinkIndex idx) {
  const Link& link = topo.link(idx);
  return {std::min(link.from, link.to), std::max(link.from, link.to)};
}

TEST(KDisjoint, FirstPathIsTheShortest) {
  // The same path, not just the same length: on a torus and a fat-tree
  // almost every pair has tied shortest paths, so this pins that both
  // queries break ties identically.
  const std::vector<std::pair<const char*, Topology>> topologies{
      {"global_p4_lab", make_global_p4_lab()},
      {"torus5x6", scenario::make_torus(5, 6)},
      {"fat_tree_k4", scenario::make_fat_tree(4)}};
  for (const auto& [name, topo] : topologies) {
    for (const PathMetric metric :
         {PathMetric::kHopCount, PathMetric::kDelay}) {
      for (NodeIndex src = 0; src < topo.node_count(); ++src) {
        for (NodeIndex dst = 0; dst < topo.node_count(); ++dst) {
          if (src == dst) continue;
          const auto paths = k_disjoint_paths(topo, src, dst, 3, metric);
          ASSERT_FALSE(paths.empty()) << name << " " << src << "->" << dst;
          const auto shortest = shortest_path(topo, src, dst, metric);
          ASSERT_TRUE(shortest.has_value());
          EXPECT_EQ(paths.front(), *shortest)
              << name << " " << src << "->" << dst;
        }
      }
    }
  }
}

TEST(KDisjoint, PathsShareNoDuplexLink) {
  const Topology topo = make_global_p4_lab();
  const auto paths = k_disjoint_paths(topo, topo.index_of("MIA"),
                                      topo.index_of("AMS"), 4);
  ASSERT_GE(paths.size(), 2U);
  std::set<std::pair<NodeIndex, NodeIndex>> used;
  for (const Path& path : paths) {
    EXPECT_TRUE(topo.is_connected_path(path));
    for (const LinkIndex idx : path) {
      // Duplex disjointness: neither direction of a link may recur.
      EXPECT_TRUE(used.insert(undirected(topo, idx)).second)
          << "link reused across supposedly disjoint paths";
    }
  }
}

TEST(KDisjoint, RingYieldsExactlyTheTwoArcs) {
  // A 6-ring has exactly two link-disjoint routes between any pair:
  // clockwise and anticlockwise.  Asking for more must not invent a
  // third.
  Topology topo;
  for (int i = 0; i < 6; ++i) topo.add_node("r" + std::to_string(i));
  for (NodeIndex i = 0; i < 6; ++i) {
    topo.add_duplex_link(i, (i + 1) % 6, 100.0, 1.0);
  }
  const auto paths = k_disjoint_paths(topo, 0, 3, 5, PathMetric::kHopCount);
  ASSERT_EQ(paths.size(), 2U);
  EXPECT_EQ(paths[0].size(), 3U);
  EXPECT_EQ(paths[1].size(), 3U);
}

TEST(KDisjoint, BannedLinksExcludedFromEveryPath) {
  // Ban one arc of a 4-ring: only the other arc remains, and it must be
  // the single path returned.
  Topology topo;
  for (int i = 0; i < 4; ++i) topo.add_node("r" + std::to_string(i));
  std::vector<LinkIndex> ring_links;
  for (NodeIndex i = 0; i < 4; ++i) {
    ring_links.push_back(topo.add_duplex_link(i, (i + 1) % 4, 100.0, 1.0));
  }
  // Kill r0->r1 in both directions; the 0 -> 2 route must go via r3.
  const std::vector<LinkIndex> banned{ring_links[0], ring_links[0] + 1};
  const auto paths =
      k_disjoint_paths(topo, 0, 2, 3, PathMetric::kHopCount, banned);
  ASSERT_EQ(paths.size(), 1U);
  for (const LinkIndex idx : paths[0]) {
    EXPECT_NE(undirected(topo, idx), undirected(topo, ring_links[0]));
  }
  EXPECT_TRUE(k_disjoint_paths(topo, 0, 2, 0).empty());
}

TEST(KShortest, ExhaustsFiniteGraphs) {
  // A triangle a-b, b-c, a-c has exactly two simple a->c paths.
  Topology topo;
  topo.add_node("a");
  topo.add_node("b");
  topo.add_node("c");
  topo.add_duplex_link(0, 1, 1.0, 1.0);
  topo.add_duplex_link(1, 2, 1.0, 1.0);
  topo.add_duplex_link(0, 2, 1.0, 5.0);
  const auto paths = k_shortest_paths(topo, 0, 2, 10);
  EXPECT_EQ(paths.size(), 2U);
  EXPECT_TRUE(k_shortest_paths(topo, 0, 2, 0).empty());
}

// --- level-order search against unit-weight Dijkstra -----------------
//
// kHopCount runs a level-order search; kDelay runs the heap Dijkstra.
// With every delay set to 1.0 the two metrics weigh every link alike,
// so the heap is a reference the level-order search must match exactly:
// same dist, same via (same tie-breaks), same path sets.

constexpr scenario::LinkProfile kUnitDelay{.core_capacity_mbps = 100.0,
                                           .core_delay_ms = 1.0,
                                           .host_capacity_mbps = 1000.0,
                                           .host_delay_ms = 1.0};

std::vector<std::pair<std::string, Topology>> unit_delay_topologies() {
  std::vector<std::pair<std::string, Topology>> out;
  out.emplace_back("ring9", scenario::make_ring(9, kUnitDelay));
  out.emplace_back("torus6x7", scenario::make_torus(6, 7, kUnitDelay));
  out.emplace_back("fat_tree_k4_hosts",
                   scenario::make_fat_tree(4, true, kUnitDelay));
  out.emplace_back("leaf_spine_3x5_hosts",
                   scenario::make_leaf_spine(3, 5, 2, kUnitDelay));
  for (const std::uint64_t seed : {1U, 2U, 3U}) {
    out.emplace_back("random_regular_24x3_s" + std::to_string(seed),
                     scenario::make_random_regular(24, 3, seed, kUnitDelay));
  }
  return out;
}

/// Each directed link banned with probability 1/6.
std::vector<LinkIndex> random_bans(const Topology& topo,
                                   std::mt19937_64& rng) {
  std::vector<LinkIndex> banned;
  for (LinkIndex l = 0; l < topo.link_count(); ++l) {
    if (rng() % 6 == 0) banned.push_back(l);
  }
  return banned;
}

TEST(LevelOrderSearch, TreesMatchUnitWeightDijkstra) {
  for (const auto& [name, topo] : unit_delay_topologies()) {
    std::mt19937_64 rng(topo.link_count());
    for (int round = 0; round < 4; ++round) {
      const std::vector<LinkIndex> banned =
          round == 0 ? std::vector<LinkIndex>{} : random_bans(topo, rng);
      for (NodeIndex src = 0; src < topo.node_count(); ++src) {
        const PathTree levels =
            shortest_path_tree(topo, src, PathMetric::kHopCount, banned);
        const PathTree heap =
            shortest_path_tree(topo, src, PathMetric::kDelay, banned);
        ASSERT_EQ(levels.via, heap.via)
            << name << " round " << round << " src " << src;
        ASSERT_EQ(levels.dist, heap.dist)
            << name << " round " << round << " src " << src;
      }
    }
  }
}

TEST(LevelOrderSearch, PathSetsMatchUnitWeightDijkstra) {
  for (const auto& [name, topo] : unit_delay_topologies()) {
    std::mt19937_64 rng(topo.node_count());
    for (int round = 0; round < 4; ++round) {
      const std::vector<LinkIndex> banned =
          round == 0 ? std::vector<LinkIndex>{} : random_bans(topo, rng);
      for (int sample = 0; sample < 12; ++sample) {
        const NodeIndex src = rng() % topo.node_count();
        const NodeIndex dst = rng() % topo.node_count();
        const auto where = [&] {
          return name + " round " + std::to_string(round) + " " +
                 std::to_string(src) + "->" + std::to_string(dst);
        };
        ASSERT_EQ(shortest_path(topo, src, dst, PathMetric::kHopCount),
                  shortest_path(topo, src, dst, PathMetric::kDelay))
            << where();
        ASSERT_EQ(
            k_disjoint_paths(topo, src, dst, 3, PathMetric::kHopCount, banned),
            k_disjoint_paths(topo, src, dst, 3, PathMetric::kDelay, banned))
            << where();
        ASSERT_EQ(k_shortest_paths(topo, src, dst, 4, PathMetric::kHopCount),
                  k_shortest_paths(topo, src, dst, 4, PathMetric::kDelay))
            << where();
      }
    }
  }
}

// --- one search, reused -------------------------------------------------

TEST(PathSearchReuse, RunsMatchFreshSearchesWhateverRanBefore) {
  // A run resets only what the previous run wrote: interleaving full
  // trees, early-exit runs and disjoint plans on one search must give
  // exactly the answers of a fresh search per query.
  for (const auto& [name, topo] : unit_delay_topologies()) {
    for (const PathMetric metric :
         {PathMetric::kHopCount, PathMetric::kDelay}) {
      PathSearch search(topo, metric);
      std::mt19937_64 rng(topo.link_count() + 7);
      for (int sample = 0; sample < 40; ++sample) {
        const NodeIndex src = rng() % topo.node_count();
        const NodeIndex dst = rng() % topo.node_count();
        const auto where = [&] {
          return name + " sample " + std::to_string(sample) + " " +
                 std::to_string(src) + "->" + std::to_string(dst);
        };
        switch (sample % 3) {
          case 0: {
            search.run(src);
            const PathTree tree = search.tree();
            const PathTree fresh = shortest_path_tree(topo, src, metric);
            ASSERT_EQ(tree.via, fresh.via) << where();
            ASSERT_EQ(tree.dist, fresh.dist) << where();
            break;
          }
          case 1:
            search.run(src, dst);
            ASSERT_EQ(search.path_to(dst),
                      shortest_path(topo, src, dst, metric))
                << where();
            break;
          default: {
            std::vector<Path> paths;
            const std::size_t found = search.disjoint_paths(src, dst, 3, paths);
            ASSERT_EQ(found, paths.size()) << where();
            ASSERT_EQ(paths, k_disjoint_paths(topo, src, dst, 3, metric))
                << where();
          }
        }
      }
    }
  }
}

TEST(PathSearchReuse, BansStackAndDuplexBansNameTheReverse) {
  // ring 0-1-2-3: the short way 0 -> 1 is the direct link.
  const Topology topo = scenario::make_ring(4);
  PathSearch search(topo, PathMetric::kHopCount);
  const LinkIndex direct = *topo.link_between(0, 1);
  search.ban_link(direct);
  search.ban_link(direct);
  search.unban_link(direct);
  search.run(0, 1);
  EXPECT_EQ(search.path_to(1)->size(), 3U) << "one unban lifted two bans";
  search.unban_link(direct);
  search.run(0, 1);
  EXPECT_EQ(search.path_to(1), Path{direct});

  // A duplex ban takes the way back too; lifting it restores both.
  search.ban_duplex(direct);
  search.run(1, 0);
  EXPECT_EQ(search.path_to(0)->size(), 3U);
  search.unban_duplex(direct);
  search.run(1, 0);
  EXPECT_EQ(search.path_to(0), Path{*topo.link_between(1, 0)});

  // disjoint_paths leaves the bans as it found them.
  std::vector<Path> paths;
  search.ban_node(2);
  EXPECT_EQ(search.disjoint_paths(0, 1, 2, paths), 1U);
  search.run(0, 1);
  EXPECT_EQ(search.path_to(1), Path{direct});
  search.run(0, 3);
  EXPECT_EQ(search.path_to(3), Path{*topo.link_between(0, 3)});
  search.unban_node(2);
  EXPECT_EQ(search.disjoint_paths(0, 1, 2, paths), 2U);
  EXPECT_EQ(search.disjoint_paths(0, 1, 2, paths), 2U);
  EXPECT_EQ(paths.size(), 5U) << "disjoint_paths appends";

  // A lift without a ban would wrap the count and ban the link for good.
  EXPECT_THROW(search.unban_link(direct), core::ContractViolation);
  EXPECT_THROW(search.unban_node(2), core::ContractViolation);
}

// --- degenerate topologies ---------------------------------------------

TEST(PathEdges, SingleNodeTopology) {
  Topology topo;
  topo.add_node("solo");
  for (const PathMetric metric :
       {PathMetric::kHopCount, PathMetric::kDelay}) {
    const PathTree tree = shortest_path_tree(topo, 0, metric);
    EXPECT_EQ(tree.src, 0U);
    EXPECT_EQ(tree.dist, std::vector<double>{0.0});
    EXPECT_EQ(tree.via, std::vector<LinkIndex>{kInvalidIndex});
    EXPECT_EQ(tree_path(tree, topo, 0), Path{});
    EXPECT_EQ(shortest_path(topo, 0, 0, metric), Path{});
    EXPECT_TRUE(k_disjoint_paths(topo, 0, 0, 3, metric).empty());
    EXPECT_TRUE(k_shortest_paths(topo, 0, 0, 3, metric).empty());
  }
  EXPECT_THROW((void)shortest_path_tree(topo, 1), std::out_of_range);
  EXPECT_THROW((void)k_disjoint_paths(topo, 0, 1, 1), std::out_of_range);
  try {
    (void)k_shortest_paths(topo, 0, 1, 1);
    ADD_FAILURE() << "k_shortest_paths accepted a bad node index";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("k_shortest_paths"),
              std::string::npos);
  }
}

TEST(PathEdges, DisjointRingsNeverReachAcross) {
  // Two 5-rings with no link between them: nodes 0-4 and 5-9.
  Topology topo;
  for (int i = 0; i < 10; ++i) topo.add_node("r" + std::to_string(i));
  for (NodeIndex i = 0; i < 5; ++i) {
    topo.add_duplex_link(i, (i + 1) % 5, 100.0, 1.0);
    topo.add_duplex_link(5 + i, 5 + (i + 1) % 5, 100.0, 1.0);
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const PathMetric metric :
       {PathMetric::kHopCount, PathMetric::kDelay}) {
    for (NodeIndex src = 0; src < 10; ++src) {
      const PathTree tree = shortest_path_tree(topo, src, metric);
      for (NodeIndex dst = 0; dst < 10; ++dst) {
        const bool same_ring = (src < 5) == (dst < 5);
        EXPECT_EQ(tree.dist[dst] == kInf, !same_ring) << src << "->" << dst;
        EXPECT_EQ(tree_path(tree, topo, dst).has_value(), same_ring);
        EXPECT_EQ(shortest_path(topo, src, dst, metric).has_value(),
                  same_ring);
        const auto paths = k_disjoint_paths(topo, src, dst, 3, metric);
        // Both arcs of the ring, or nothing across the gap.
        EXPECT_EQ(paths.size(), same_ring && src != dst ? 2U : 0U)
            << src << "->" << dst;
      }
    }
  }
}

}  // namespace
}  // namespace hp::netsim
