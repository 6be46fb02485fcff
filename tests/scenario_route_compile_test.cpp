// Tree-incremental route compiler: parity against the per-path
// baseline across every topology family, subtree-scoped recompilation
// after link failures, and compile-count instrumentation proving
// apply_failure touches only the routes that crossed the dead link.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "netsim/paths.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/shard.hpp"
#include "scenario/topologies.hpp"

namespace hp::scenario {
namespace {

using netsim::NodeIndex;

/// Compare every ordered router pair of `tree_compiled` (filled via
/// compile_all_pairs / apply_failure repair) against a per-path baseline
/// fabric in the same topology state: bit-identical segments, paths
/// and expectations, including unreachable pairs.
void expect_all_pairs_parity(BuiltFabric& tree_compiled,
                             BuiltFabric& baseline) {
  const auto& routers = tree_compiled.routers();
  for (const NodeIndex src : routers) {
    for (const NodeIndex dst : routers) {
      if (src == dst) continue;
      const CompiledRoute* t = tree_compiled.route(src, dst);
      const CompiledRoute* b = baseline.route(src, dst);
      ASSERT_EQ(t == nullptr, b == nullptr)
          << "reachability diverges for " << src << " -> " << dst;
      if (t == nullptr) continue;
      EXPECT_EQ(t->segments, b->segments)
          << "segments diverge for " << src << " -> " << dst;
      EXPECT_EQ(t->ingress, b->ingress);
      EXPECT_EQ(t->expected, b->expected);
      EXPECT_EQ(t->path, b->path);
    }
  }
}

struct Family {
  std::string name;
  netsim::Topology topo;
};

std::vector<Family> families() {
  std::vector<Family> out;
  out.push_back({"ring16", make_ring(16)});
  out.push_back({"ring33", make_ring(33)});
  out.push_back({"torus4x4", make_torus(4, 4)});
  out.push_back({"torus3x6", make_torus(3, 6)});
  out.push_back({"leaf_spine3x5_hosts", make_leaf_spine(3, 5, 2)});
  out.push_back({"fat_tree4", make_fat_tree(4, true)});
  out.push_back({"random_regular16d3", make_random_regular(16, 3, 7)});
  return out;
}

TEST(TreeCompile, AllPairsMatchesPerPathBaselineAcrossFamilies) {
  for (auto& [name, topo] : families()) {
    SCOPED_TRACE(name);
    BuiltFabric tree_compiled(topo);
    BuiltFabric baseline(topo);
    const std::size_t n = tree_compiled.router_count();
    const std::size_t written = tree_compiled.compile_all_pairs();
    EXPECT_EQ(written, n * (n - 1));  // all families here are connected
    EXPECT_EQ(tree_compiled.cached_route_count(), written);
    // Lookups must hit the cache, not recompile.
    const std::size_t compiled_before =
        tree_compiled.compile_stats().routes_compiled;
    expect_all_pairs_parity(tree_compiled, baseline);
    EXPECT_EQ(tree_compiled.compile_stats().routes_compiled, compiled_before);
  }
}

TEST(TreeCompile, ParallelCompilationIsIdentical) {
  for (auto& [name, topo] : families()) {
    SCOPED_TRACE(name);
    BuiltFabric serial(topo);
    BuiltFabric parallel(topo);
    EXPECT_EQ(serial.compile_all_pairs(1), parallel.compile_all_pairs(4));
    for (const NodeIndex src : serial.routers()) {
      for (const NodeIndex dst : serial.routers()) {
        if (src == dst) continue;
        const CompiledRoute* s = serial.route(src, dst);
        const CompiledRoute* p = parallel.route(src, dst);
        ASSERT_NE(s, nullptr);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(s->segments, p->segments);
        EXPECT_EQ(s->path, p->path);
      }
    }
  }
}

TEST(TreeCompile, PostFailLinkRepairKeepsParity) {
  for (auto& [name, topo] : families()) {
    SCOPED_TRACE(name);
    BuiltFabric tree_compiled(topo);
    tree_compiled.compile_all_pairs();
    BuiltFabric baseline(topo);

    // Fail the duplex link between the first router and its first
    // router neighbour (exists in every family).
    const NodeIndex a = tree_compiled.routers().front();
    NodeIndex b = netsim::kInvalidIndex;
    for (const auto l : topo.outgoing(a)) {
      const NodeIndex peer = topo.link(l).to;
      if (topo.node(peer).kind == netsim::NodeKind::kRouter) {
        b = peer;
        break;
      }
    }
    ASSERT_NE(b, netsim::kInvalidIndex);
    const auto affected = tree_compiled.apply_failure(a, b).affected;
    EXPECT_FALSE(affected.empty());  // at least a->b crossed it
    (void)baseline.apply_failure(a, b);
    expect_all_pairs_parity(tree_compiled, baseline);
  }
}

TEST(TreeCompile, SubtreeCompileWalksOnlyRequestedBranches) {
  const auto topo = make_ring(8);
  BuiltFabric built(topo);
  const NodeIndex r0 = topo.index_of("r0");
  const std::vector<NodeIndex> dsts{topo.index_of("r2"), topo.index_of("r3")};
  EXPECT_EQ(built.compile_subtree(r0, dsts), 2u);
  EXPECT_EQ(built.cached_route_count(), 2u);
  const CompileStats& stats = built.compile_stats();
  EXPECT_EQ(stats.routes_compiled, 2u);
  EXPECT_EQ(stats.trees_built, 1u);
  // Union of tree paths r0->r2 and r0->r3 is r0-r1-r2-r3: three descend
  // folds plus one egress fold per requested destination.
  EXPECT_EQ(stats.crt_steps, 5u);
  // The compiled entries are exactly what route() would have built.
  BuiltFabric baseline(topo);
  for (const NodeIndex dst : dsts) {
    const CompiledRoute* got = built.route(r0, dst);
    const CompiledRoute* want = baseline.route(r0, dst);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->segments, want->segments);
    EXPECT_EQ(got->path, want->path);
  }
  // Unreachable / degenerate destinations are skipped, not compiled.
  EXPECT_EQ(built.compile_subtree(r0, std::vector<NodeIndex>{r0}), 0u);
}

TEST(TreeCompile, PerPathAndTreeCountTheSameCrtSteps) {
  // Both compilers count only the folds they make: a destination that
  // re-labels to bare egress-port bits folds no egress congruence on
  // either path.  A 256-ring's long routes cut at their destination.
  const auto topo = make_ring(256);
  BuiltFabric per_path(topo);
  BuiltFabric tree(topo);
  const NodeIndex r0 = topo.index_of("r0");
  std::size_t egress_cuts = 0;
  for (int i = 1; i < 256; i += 7) {
    const NodeIndex dst = topo.index_of("r" + std::to_string(i));
    SCOPED_TRACE(i);
    const std::size_t per_path_before = per_path.compile_stats().crt_steps;
    const CompiledRoute* want = per_path.route(r0, dst);
    const std::size_t tree_before = tree.compile_stats().crt_steps;
    ASSERT_EQ(tree.compile_subtree(r0, std::vector<NodeIndex>{dst}), 1u);
    const CompiledRoute* got = tree.cached_route(r0, dst);
    ASSERT_NE(want, nullptr);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->segments, want->segments);
    EXPECT_EQ(tree.compile_stats().crt_steps - tree_before,
              per_path.compile_stats().crt_steps - per_path_before);
    const auto& waypoints = want->segments.waypoints;
    egress_cuts += !waypoints.empty() &&
                   waypoints.back() == per_path.fabric_index(dst);
  }
  EXPECT_GT(egress_cuts, 0u);
}

TEST(TreeCompile, FailLinkRecompilesOnlyCrossingRoutes) {
  // leaf-spine(2, 4): failing leaf3<->spine1 severs exactly the two
  // routes using that direct link (every other pair detours through
  // spine0 or reaches leaf3 via spine0 already, by (hops, node) order).
  const auto topo = make_leaf_spine(2, 4);
  BuiltFabric built(topo);
  built.compile_all_pairs();
  const std::size_t routers = built.router_count();
  EXPECT_EQ(built.cached_tree_count(), routers);

  const NodeIndex leaf3 = topo.index_of("leaf3");
  const NodeIndex spine1 = topo.index_of("spine1");
  const NodeIndex leaf0 = topo.index_of("leaf0");
  const CompiledRoute* untouched = built.route(leaf0, leaf3);
  ASSERT_NE(untouched, nullptr);
  const auto untouched_segments = untouched->segments;

  const CompileStats before = built.compile_stats();
  const auto affected = built.apply_failure(leaf3, spine1).affected;
  const CompileStats after = built.compile_stats();

  // Exactly the crossing routes were recompiled -- no full flush.
  std::set<NodeIndex> affected_sources;
  for (const auto& [src, dst] : affected) affected_sources.insert(src);
  EXPECT_EQ(after.routes_compiled - before.routes_compiled, affected.size());
  EXPECT_EQ(after.trees_built - before.trees_built, affected_sources.size());
  EXPECT_LT(affected_sources.size(), routers);
  EXPECT_EQ(built.cached_tree_count(), routers);  // repaired, not flushed

  // The unaffected cached entry survived in place (same address, same
  // label), proving the cache was not rebuilt wholesale.
  const CompiledRoute* still = built.route(leaf0, leaf3);
  EXPECT_EQ(still, untouched);
  EXPECT_EQ(still->segments, untouched_segments);

  // The severed pair detours leaf3 -> spine0 -> leaf -> spine1.
  const CompiledRoute* detour = built.route(spine1, leaf3);
  ASSERT_NE(detour, nullptr);
  EXPECT_EQ(detour->path.size(), 3u);
  EXPECT_TRUE(std::ranges::count(affected,
                                 std::pair<NodeIndex, NodeIndex>{spine1,
                                                                 leaf3}) > 0);
}

TEST(TreeCompile, DisconnectingFailureEvictsInsteadOfRepairing) {
  const auto topo = make_leaf_spine(1, 3);  // spine0 is a cut vertex
  BuiltFabric built(topo);
  built.compile_all_pairs();
  const NodeIndex leaf2 = topo.index_of("leaf2");
  const NodeIndex spine0 = topo.index_of("spine0");
  const auto affected = built.apply_failure(leaf2, spine0).affected;
  // Every pair involving leaf2 crossed its only access link.
  EXPECT_EQ(affected.size(), 6u);
  for (const NodeIndex other : built.routers()) {
    if (other == leaf2) continue;
    EXPECT_EQ(built.route(leaf2, other), nullptr);
    EXPECT_EQ(built.route(other, leaf2), nullptr);
  }
  // Pairs not involving leaf2 still route.
  EXPECT_NE(built.route(topo.index_of("leaf0"), topo.index_of("leaf1")),
            nullptr);
}

TEST(TreeCompile, CompileAllPairsReusesCachedTreesAndOverwritesCleanly) {
  const auto topo = make_torus(4, 4);
  BuiltFabric built(topo);
  ASSERT_NE(built.route(0, 5), nullptr);  // seeds one tree lazily
  EXPECT_EQ(built.compile_stats().trees_built, 1u);
  const std::size_t n = built.router_count();
  EXPECT_EQ(built.compile_all_pairs(), n * (n - 1));
  // One tree per source total; the seeded one was reused, and the
  // route cache holds each pair exactly once despite the overwrite.
  EXPECT_EQ(built.compile_stats().trees_built, n);
  EXPECT_EQ(built.cached_route_count(), n * (n - 1));
}

TEST(ShardBounds, PartitionsEveryItemExactlyOnce) {
  for (const std::size_t total : {0u, 1u, 7u, 64u, 1000u}) {
    for (const std::size_t workers : {1u, 2u, 3u, 16u}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (std::size_t w = 0; w < workers; ++w) {
        const auto [begin, end] = shard_bounds(total, w, workers);
        EXPECT_EQ(begin, prev_end);
        EXPECT_LE(begin, end);
        covered += end - begin;
        prev_end = end;
      }
      EXPECT_EQ(prev_end, total);
      EXPECT_EQ(covered, total);
    }
  }
}

TEST(ShardBounds, NoOverflowNearSizeMax) {
  // total * (w + 1) overflows std::size_t for totals within a factor of
  // `workers` of SIZE_MAX; the 128-bit intermediate must keep the
  // partition exact (contiguous, complete, balanced to within one).
  const std::size_t total = std::numeric_limits<std::size_t>::max() - 7;
  for (const std::size_t workers : {2u, 3u, 16u}) {
    std::size_t prev_end = 0;
    for (std::size_t w = 0; w < workers; ++w) {
      const auto [begin, end] = shard_bounds(total, w, workers);
      EXPECT_EQ(begin, prev_end) << "workers=" << workers << " w=" << w;
      EXPECT_LE(begin, end);
      const std::size_t size = end - begin;
      EXPECT_LE(size, total / workers + 1);
      EXPECT_GE(size, total / workers);
      prev_end = end;
    }
    EXPECT_EQ(prev_end, total) << "workers=" << workers;
  }
}

TEST(TreeChildren, MirrorsViaParents) {
  const auto topo = make_ring(6);
  const auto tree =
      netsim::shortest_path_tree(topo, 0, netsim::PathMetric::kHopCount);
  const auto children = netsim::tree_children(tree, topo);
  ASSERT_EQ(children.offset.size(), topo.node_count() + 1);
  std::size_t edges = 0;
  for (NodeIndex parent = 0; parent < topo.node_count(); ++parent) {
    const auto kids = children.of(parent);
    EXPECT_TRUE(std::ranges::is_sorted(kids)) << "parent " << parent;
    for (const NodeIndex child : kids) {
      EXPECT_EQ(topo.link(tree.via[child]).from, parent);
      EXPECT_EQ(topo.link(tree.via[child]).to, child);
      ++edges;
    }
  }
  EXPECT_EQ(edges, topo.node_count() - 1);  // spanning tree of the ring
  EXPECT_EQ(children.child.size(), edges);
}

}  // namespace
}  // namespace hp::scenario
