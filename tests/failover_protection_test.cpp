// Hitless failover: pre-installed backup segments on the BuiltFabric
// and the ScenarioRunner's failure handling on top of them.
//
// The protection contract under test:
//  * a failure on a protected fabric swaps crossing pairs to their
//    backups with ZERO route compilations inside the event;
//  * swapped routes deliver to the same egress as an eager recompile
//    would (parity across every topology family);
//  * failing a dead link / restoring a live one is a graceful no-op;
//  * severing the fabric reports unroutable pairs explicitly instead of
//    misdelivering;
//  * restore reverts to the saved primary, again without compiling;
//  * across a flap storm, a pair an event did not touch keeps its route
//    pointer and bytes, a swap serves the pair's first live backup and
//    a revert its pre-failure primary;
//  * seeded flap and node storms report exactly the pairs brute-force
//    scans of the route cache predict, and leave no cached route on a
//    failed link;
//  * reports are deterministic across thread counts, and a second
//    replay of a failed-over stream still lands on every lane's plan;
//  * FailoverPlayback sorts and clamps the schedule, reports duplicate
//    events as no-ops and names only the stream's lanes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "netsim/paths.hpp"
#include "polka/label.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/failover_playback.hpp"
#include "scenario/failure_injector.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/topologies.hpp"
#include "scenario/traffic.hpp"

namespace hp::scenario {
namespace {

using netsim::NodeIndex;

/// Equality modulo wall clock, for determinism assertions.
bool same_counters(ScenarioReport lhs, ScenarioReport rhs) {
  lhs.seconds = 0.0;
  rhs.seconds = 0.0;
  return lhs == rhs;
}

TEST(FailoverProtection, SwapCompilesNothingInTheWindow) {
  BuiltFabric fabric(make_ring(12));
  fabric.compile_all_pairs();
  const std::size_t installed = fabric.enable_protection(1);
  EXPECT_GT(installed, 0U);
  EXPECT_EQ(fabric.compile_stats().backup_routes, installed);

  const std::size_t compiled_before = fabric.compile_stats().routes_compiled;
  const NodeIndex r0 = fabric.topology().index_of("r0");
  const NodeIndex r1 = fabric.topology().index_of("r1");
  const FailoverReport report = fabric.apply_failure(r0, r1);

  EXPECT_FALSE(report.duplicate);
  EXPECT_FALSE(report.affected.empty());
  EXPECT_EQ(report.window_recompiles, 0U);
  EXPECT_EQ(report.affected.size(), report.swapped.size())
      << "a ring pair missed its backup";
  EXPECT_EQ(report.swapped.size(), report.swap_stretch.size());
  EXPECT_TRUE(report.repaired.empty());
  EXPECT_TRUE(report.pending.empty());
  EXPECT_TRUE(report.unroutable.empty());
  // The hard acceptance bar: the failure window compiled no route.
  EXPECT_EQ(fabric.compile_stats().routes_compiled, compiled_before);
  EXPECT_GT(fabric.compile_stats().backup_swaps, 0U);
  // A ring detour is never shorter than the arc it replaces, and at
  // least one non-diametrical pair pays real stretch.
  double max_stretch = 0.0;
  for (const double stretch : report.swap_stretch) {
    EXPECT_GE(stretch, 1.0);
    max_stretch = std::max(max_stretch, stretch);
  }
  EXPECT_GT(max_stretch, 1.0);
}

TEST(FailoverProtection, BackupMatchesRecomputeOnEveryFamily) {
  // Per family: fabric A swaps to pre-installed backups, fabric B
  // eagerly recompiles.  Both must agree on which pairs survive and on
  // every surviving pair's egress node and port.
  for (const char* name : {"fat_tree_k4/uniform", "leaf_spine_4x8/uniform",
                           "ring12/uniform", "torus4x4/uniform",
                           "rr16d4/uniform"}) {
    const ScenarioSpec* spec = find_scenario(name);
    ASSERT_NE(spec, nullptr) << name;

    BuiltFabric protected_fabric(build_topology(*spec));
    BuiltFabric eager_fabric(build_topology(*spec));
    protected_fabric.compile_all_pairs();
    eager_fabric.compile_all_pairs();
    protected_fabric.enable_protection(1);

    FailureInjectorParams inject;
    inject.seed = 4242;
    const auto schedule =
        make_failure_schedule(protected_fabric.topology(), inject);
    ASSERT_EQ(schedule.size(), 1U) << name;

    const FailoverReport event =
        protected_fabric.apply_failure(schedule[0].a, schedule[0].b);
    ASSERT_FALSE(event.affected.empty()) << name;
    (void)protected_fabric.repair_pending();
    (void)eager_fabric.apply_failure(schedule[0].a, schedule[0].b);

    const auto& routers = protected_fabric.routers();
    for (const NodeIndex src : routers) {
      for (const NodeIndex dst : routers) {
        if (src == dst) continue;
        const CompiledRoute* via_backup = protected_fabric.route(src, dst);
        const CompiledRoute* via_recompute = eager_fabric.route(src, dst);
        ASSERT_EQ(via_backup == nullptr, via_recompute == nullptr)
            << name << ": routability diverged for " << src << "->" << dst;
        if (via_backup == nullptr) continue;
        EXPECT_EQ(via_backup->expected.egress_node,
                  via_recompute->expected.egress_node)
            << name << ": " << src << "->" << dst;
        EXPECT_EQ(via_backup->expected.egress_port,
                  via_recompute->expected.egress_port)
            << name << ": " << src << "->" << dst;
        EXPECT_FALSE(via_backup->expected.ttl_expired);
      }
    }
  }
}

TEST(FailoverProtection, DoubleFailAndDoubleRestoreAreNoOps) {
  BuiltFabric fabric(make_ring(8));
  fabric.compile_all_pairs();
  fabric.enable_protection(1);
  const NodeIndex r0 = fabric.topology().index_of("r0");
  const NodeIndex r1 = fabric.topology().index_of("r1");

  const FailoverReport first = fabric.apply_failure(r0, r1);
  EXPECT_FALSE(first.duplicate);
  const FailoverReport again = fabric.apply_failure(r0, r1);
  EXPECT_TRUE(again.duplicate);
  EXPECT_TRUE(again.affected.empty());

  const FailoverReport back = fabric.restore_link(r0, r1);
  EXPECT_FALSE(back.duplicate);
  const FailoverReport back_again = fabric.restore_link(r0, r1);
  EXPECT_TRUE(back_again.duplicate);
  EXPECT_TRUE(back_again.affected.empty());

  // Non-existent links still throw: a typo is not a graceful no-op.
  EXPECT_THROW((void)fabric.apply_failure(r0, fabric.topology().index_of("r4")),
               std::invalid_argument);
}

TEST(FailoverProtection, RestoreRevertsToThePrimaryWithoutCompiling) {
  BuiltFabric fabric(make_ring(8));
  fabric.compile_all_pairs();
  fabric.enable_protection(1);
  const NodeIndex r0 = fabric.topology().index_of("r0");
  const NodeIndex r1 = fabric.topology().index_of("r1");
  const unsigned primary_hops = fabric.route(r0, r1)->expected.hops;

  const FailoverReport fail = fabric.apply_failure(r0, r1);
  ASSERT_FALSE(fail.swapped.empty());
  EXPECT_GT(fabric.route(r0, r1)->expected.hops, primary_hops);

  const std::size_t compiled_before = fabric.compile_stats().routes_compiled;
  const FailoverReport restore = fabric.restore_link(r0, r1);
  EXPECT_EQ(restore.window_recompiles, 0U);
  EXPECT_EQ(fabric.compile_stats().routes_compiled, compiled_before);
  // Every pair the failure displaced is back on its original primary.
  EXPECT_EQ(restore.swapped.size(), fail.swapped.size());
  EXPECT_EQ(fabric.route(r0, r1)->expected.hops, primary_hops);
  for (const double stretch : restore.swap_stretch) {
    EXPECT_DOUBLE_EQ(stretch, 1.0);
  }
}

TEST(FailoverProtection, DisarmKeepsWhatEachPairServes) {
  // enable_protection(0) drops every backup and displaced original but
  // keeps the route each pair serves, backups included; the fabric is
  // eager again afterwards.
  BuiltFabric fabric(make_ring(8));
  fabric.compile_all_pairs();
  fabric.enable_protection(1);
  const auto r = [&](const char* name) {
    return fabric.topology().index_of(name);
  };
  ASSERT_FALSE(fabric.apply_failure(r("r0"), r("r1")).swapped.empty());
  std::map<std::pair<NodeIndex, NodeIndex>, netsim::Path> served;
  for (const NodeIndex s : fabric.routers()) {
    for (const NodeIndex d : fabric.routers()) {
      if (s != d) served[{s, d}] = fabric.cached_route(s, d)->path;
    }
  }
  EXPECT_EQ(fabric.enable_protection(0), 0U);
  for (const auto& [pr, path] : served) {
    const CompiledRoute* route = fabric.cached_route(pr.first, pr.second);
    ASSERT_NE(route, nullptr);
    EXPECT_EQ(route->path, path) << pr.first << "->" << pr.second;
  }
  EXPECT_TRUE(fabric.restore_link(r("r0"), r("r1")).swapped.empty());
  const FailoverReport eager = fabric.apply_failure(r("r4"), r("r5"));
  EXPECT_FALSE(eager.repaired.empty());
  EXPECT_EQ(eager.repaired.size(), eager.window_recompiles);
  for (const auto& [s, d] : eager.repaired) {
    const auto& path = fabric.cached_route(s, d)->path;
    EXPECT_TRUE(std::ranges::none_of(path, [&](netsim::LinkIndex l) {
      return std::ranges::find(fabric.failed_links(), l) !=
             fabric.failed_links().end();
    })) << s << "->" << d;
  }
}

// --- the batched planner against per-pair planning ---------------------

/// One backup the per-pair planner would install.
struct PlannedBackup {
  netsim::Path path;
  polka::SegmentedRoute segments;
};

/// The per-pair planning of one pair, from the public API alone:
/// netsim::k_disjoint_paths with the primary's links (both directions)
/// and every failed link banned, each path compiled by
/// PolkaFabric::segmented_route_for_path.
std::vector<PlannedBackup> plan_per_pair(const BuiltFabric& fabric,
                                         NodeIndex src, NodeIndex dst,
                                         const netsim::Path& primary,
                                         unsigned k) {
  const netsim::Topology& topo = fabric.topology();
  std::vector<netsim::LinkIndex> banned = fabric.failed_links();
  for (const netsim::LinkIndex l : primary) {
    banned.push_back(l);
    banned.push_back(*topo.link_between(topo.link(l).to, topo.link(l).from));
  }
  std::vector<netsim::Path> paths = netsim::k_disjoint_paths(
      topo, src, dst, k, netsim::PathMetric::kHopCount, banned);
  std::vector<PlannedBackup> out;
  out.reserve(paths.size());
  for (netsim::Path& path : paths) {
    std::vector<std::size_t> fabric_path;
    fabric_path.reserve(path.size() + 1);
    for (const NodeIndex n : netsim::path_nodes(topo, path)) {
      fabric_path.push_back(fabric.fabric_index(n));
    }
    out.push_back({std::move(path),
                   fabric.fabric().segmented_route_for_path(
                       fabric_path, fabric.egress_port(fabric_path.back()))});
  }
  return out;
}

using PlanBook =
    std::map<std::pair<NodeIndex, NodeIndex>, std::vector<PlannedBackup>>;

/// Per-pair plans for every cached route, as they stand now.
PlanBook plan_every_pair(const BuiltFabric& fabric, unsigned k) {
  PlanBook plans;
  for (const NodeIndex src : fabric.routers()) {
    for (const NodeIndex dst : fabric.routers()) {
      const CompiledRoute* route =
          src == dst ? nullptr : fabric.cached_route(src, dst);
      if (route == nullptr) continue;
      plans[{src, dst}] = plan_per_pair(fabric, src, dst, route->path, k);
    }
  }
  return plans;
}

/// Every swapped pair of `report` now runs its first per-pair plan that
/// avoids every failed link, path and labels alike; every pending pair
/// has no such plan.
void expect_swaps_follow_plans(BuiltFabric& fabric, const PlanBook& plans,
                               const FailoverReport& report,
                               const std::string& where) {
  const auto& failed = fabric.failed_links();
  const auto first_live = [&](const std::pair<NodeIndex, NodeIndex>& pr) {
    const std::vector<PlannedBackup>& list = plans.at(pr);
    return std::ranges::find_if(list, [&](const PlannedBackup& plan) {
      return std::ranges::none_of(plan.path, [&](netsim::LinkIndex l) {
        return std::ranges::find(failed, l) != failed.end();
      });
    });
  };
  for (const auto& pr : report.swapped) {
    const auto plan = first_live(pr);
    ASSERT_NE(plan, plans.at(pr).end())
        << where << ": " << pr.first << "->" << pr.second
        << " swapped with no live per-pair plan";
    const CompiledRoute* route = fabric.route(pr.first, pr.second);
    ASSERT_NE(route, nullptr) << where;
    EXPECT_EQ(route->path, plan->path)
        << where << ": " << pr.first << "->" << pr.second;
    EXPECT_EQ(route->segments, plan->segments)
        << where << ": " << pr.first << "->" << pr.second;
  }
  for (const auto& pr : report.pending) {
    EXPECT_EQ(first_live(pr), plans.at(pr).end())
        << where << ": " << pr.first << "->" << pr.second
        << " is pending but has a live per-pair plan";
  }
}

TEST(FailoverProtection, BatchedBackupsEqualPerPairPlanning) {
  // enable_protection plans and compiles a source's backups together;
  // every swap must install exactly what per-pair planning gives.
  // Hosts never transit (fat-tree with hosts), the 33-ring's backups
  // run to many segments, and k = 2 adds a second rank.  In the trap,
  // s's primary to d is s-x-y-d, and the only other way, s-u-y-x-v-d,
  // runs y->x back along it: banning the primary one way only would
  // let that through, though x<->y failing kills both.
  netsim::Topology trap;
  for (const char* name : {"s", "x", "y", "d", "u", "v"}) trap.add_node(name);
  for (const auto& [a, b] : {std::pair{"s", "x"}, {"x", "y"}, {"y", "d"},
                             {"s", "u"}, {"u", "y"}, {"x", "v"},
                             {"v", "d"}}) {
    trap.add_duplex_link(trap.index_of(a), trap.index_of(b), 100.0, 1.0);
  }
  const std::vector<std::pair<std::string, netsim::Topology>> topologies{
      {"fat_tree_k4_hosts", make_fat_tree(4, true)},
      {"rr16d4", build_topology(*find_scenario("rr16d4/uniform"))},
      {"ring33", make_ring(33)},
      {"reverse_trap", trap}};
  for (const auto& [name, topo] : topologies) {
    for (const unsigned k : {1U, 2U}) {
      const std::string what = name + " k=" + std::to_string(k);
      BuiltFabric fabric(topo);
      fabric.compile_all_pairs();
      ASSERT_GT(fabric.enable_protection(k), 0U) << what;
      const PlanBook plans = plan_every_pair(fabric, k);
      for (netsim::LinkIndex l = 0; l < topo.link_count(); ++l) {
        const netsim::Link& link = topo.link(l);
        if (link.from > link.to ||
            topo.node(link.from).kind != netsim::NodeKind::kRouter ||
            topo.node(link.to).kind != netsim::NodeKind::kRouter) {
          continue;
        }
        const std::string where = what + " fail " + std::to_string(link.from) +
                                  "<->" + std::to_string(link.to);
        const FailoverReport first = fabric.apply_failure(link.from, link.to);
        ASSERT_FALSE(first.affected.empty()) << where;
        expect_swaps_follow_plans(fabric, plans, first, where);
        // A second failure on the first swapped pair's backup moves
        // pairs to their second rank (or leaves them pending).
        if (!first.swapped.empty()) {
          const auto [s, d] = first.swapped.front();
          const netsim::Link& hit =
              topo.link(fabric.cached_route(s, d)->path.front());
          const FailoverReport second = fabric.apply_failure(hit.from, hit.to);
          expect_swaps_follow_plans(fabric, plans, second,
                                    where + " then " +
                                        std::to_string(hit.from) + "<->" +
                                        std::to_string(hit.to));
          (void)fabric.restore_link(hit.from, hit.to);
        }
        (void)fabric.restore_link(link.from, link.to);
        ASSERT_TRUE(fabric.failed_links().empty()) << where;
      }
    }
  }
}

TEST(FailoverProtection, ReplannedBackupsEqualPerPairPlanning) {
  // repair_pending replans a repaired pair against its new primary and
  // the degraded topology.  Cut one pair's primary, then its backup, so
  // it goes pending; repair; then cut each repaired pair's new primary:
  // the swap must install the per-pair plan made under the same bans.
  const netsim::Topology topo =
      build_topology(*find_scenario("rr16d4/uniform"));
  for (const unsigned k : {1U, 2U}) {
    const std::string what = "rr16d4 k=" + std::to_string(k);
    BuiltFabric fabric(topo);
    fabric.compile_all_pairs();
    (void)fabric.enable_protection(k);
    PlanBook plans = plan_every_pair(fabric, k);
    const auto fail_first_link = [&](NodeIndex s, NodeIndex d) {
      const netsim::Link& hit =
          topo.link(fabric.cached_route(s, d)->path.front());
      return fabric.apply_failure(hit.from, hit.to);
    };
    const NodeIndex src = fabric.routers().front();
    const NodeIndex dst = fabric.routers().back();
    ASSERT_NE(fabric.route(src, dst), nullptr);
    // Cut the primary, then every backup the pair falls back to.
    for (unsigned cut = 0; cut <= k && fabric.pending_repair_count() == 0;
         ++cut) {
      expect_swaps_follow_plans(fabric, plans, fail_first_link(src, dst),
                                what + " cut " + std::to_string(cut));
    }
    ASSERT_GT(fabric.pending_repair_count(), 0U) << what;
    const FailoverReport repaired = fabric.repair_pending();
    ASSERT_FALSE(repaired.repaired.empty()) << what;
    std::map<std::pair<NodeIndex, NodeIndex>, netsim::Path> repaired_path;
    for (const auto& [s, d] : repaired.repaired) {
      const netsim::Path& path = fabric.cached_route(s, d)->path;
      repaired_path[{s, d}] = path;
      plans[{s, d}] = plan_per_pair(fabric, s, d, path, k);
    }
    std::size_t checked = 0;
    for (const auto& [s, d] : repaired.repaired) {
      // An earlier cut in this loop may have moved the pair off its
      // repaired primary; only pairs still on it are cut here.
      const CompiledRoute* route = fabric.cached_route(s, d);
      if (route == nullptr || route->path != repaired_path.at({s, d})) {
        continue;
      }
      ++checked;
      const netsim::Link hit = topo.link(route->path.front());
      const FailoverReport report = fail_first_link(s, d);
      const std::string where = what + " repaired " + std::to_string(s) +
                                "->" + std::to_string(d);
      EXPECT_TRUE(std::ranges::find(report.swapped, std::pair{s, d}) !=
                      report.swapped.end() ||
                  std::ranges::find(report.pending, std::pair{s, d}) !=
                      report.pending.end())
          << where;
      expect_swaps_follow_plans(fabric, plans, report, where);
      (void)fabric.restore_link(hit.from, hit.to);
    }
    EXPECT_GT(checked, 0U) << what;
  }
}

TEST(FailoverProtection, FlapStormLeavesProtectionAsFresh) {
  // A flap storm with repair_pending after every event replans the
  // backups of repaired pairs against their repaired primaries.  Once
  // every link is back, each pair must run its original primary under
  // its original protection set: failing any one link afterwards gives
  // exactly the fresh fabric's report and swaps, and parks nothing.
  const netsim::Topology topo = make_torus(8, 8);
  BuiltFabric stormed(topo);
  BuiltFabric fresh(topo);
  for (BuiltFabric* fabric : {&stormed, &fresh}) {
    fabric->compile_all_pairs();
    (void)fabric->enable_protection(1);
  }
  FailureInjectorParams flap;
  flap.preset = FailurePreset::kFlap;
  flap.seed = 1;
  flap.count = 16;
  std::size_t repaired = 0;
  for (const LinkFailure& event : make_failure_schedule(topo, flap)) {
    (void)(event.restore ? stormed.restore_link(event.a, event.b)
                         : stormed.apply_failure(event.a, event.b));
    repaired += stormed.repair_pending().repaired.size();
  }
  ASSERT_GT(repaired, 0U) << "the storm never replanned a pair";
  while (!stormed.failed_links().empty()) {
    const netsim::Link& link = topo.link(stormed.failed_links().front());
    (void)stormed.restore_link(link.from, link.to);
  }

  std::size_t parked = 0;
  for (netsim::LinkIndex l = 0; l < topo.link_count(); ++l) {
    const netsim::Link& link = topo.link(l);
    if (link.from > link.to) continue;
    const std::string where =
        "fail " + std::to_string(link.from) + "<->" + std::to_string(link.to);
    const FailoverReport got = stormed.apply_failure(link.from, link.to);
    const FailoverReport want = fresh.apply_failure(link.from, link.to);
    parked += got.pending.size();
    EXPECT_EQ(got.affected, want.affected) << where;
    EXPECT_EQ(got.swapped, want.swapped) << where;
    EXPECT_EQ(got.pending, want.pending) << where;
    for (const auto& [s, d] : want.swapped) {
      const CompiledRoute* a = stormed.cached_route(s, d);
      const CompiledRoute* b = fresh.cached_route(s, d);
      ASSERT_TRUE(a != nullptr && b != nullptr) << where;
      EXPECT_EQ(a->path, b->path) << where << ": " << s << "->" << d;
      EXPECT_EQ(a->segments, b->segments) << where << ": " << s << "->" << d;
    }
    (void)stormed.restore_link(link.from, link.to);
    (void)fresh.restore_link(link.from, link.to);
  }
  EXPECT_EQ(parked, 0U) << "pairs left with no live backup after the storm";
}

TEST(FailoverProtection, SeveredPairsAreExplicitlyUnroutable) {
  // Cutting a 6-ring twice isolates {r1, r2} from {r3..r0}: protection
  // cannot save pairs with no surviving path -- they must surface in
  // `unroutable`, and route() must say nullptr rather than misroute.
  BuiltFabric fabric(make_ring(6));
  fabric.compile_all_pairs();
  fabric.enable_protection(1);
  const auto r = [&](const char* name) {
    return fabric.topology().index_of(name);
  };
  (void)fabric.apply_failure(r("r0"), r("r1"));
  const FailoverReport second = fabric.apply_failure(r("r2"), r("r3"));
  FailoverReport lazy;
  if (fabric.pending_repair_count() > 0) lazy = fabric.repair_pending();

  std::set<std::pair<NodeIndex, NodeIndex>> unroutable(
      second.unroutable.begin(), second.unroutable.end());
  unroutable.insert(lazy.unroutable.begin(), lazy.unroutable.end());
  EXPECT_FALSE(unroutable.empty());
  for (const auto& [src, dst] : unroutable) {
    EXPECT_EQ(fabric.route(src, dst), nullptr)
        << src << "->" << dst << " reported severed but still routes";
  }
  // Pairs inside each island still route.
  EXPECT_NE(fabric.route(r("r1"), r("r2")), nullptr);
  EXPECT_NE(fabric.route(r("r4"), r("r5")), nullptr);
  EXPECT_EQ(fabric.route(r("r1"), r("r4")), nullptr);
}

/// Plays `schedule` on `fabric` (repair_pending after every event) and
/// checks each report against brute-force scans of the route cache:
///  * a failure's `affected` is exactly the cached routes crossing
///    either direction of the link, in sorted-key order;
///  * a restore's `swapped` is exactly the pairs whose route at their
///    first displacement (tracked here, independent of the fabric's
///    bookkeeping) is fully alive again, in sorted-key order;
///  * after every event no cached route crosses a failed link.
void play_and_check_storm(BuiltFabric& fabric,
                          const std::vector<LinkFailure>& schedule,
                          const std::string& what) {
  const netsim::Topology& topo = fabric.topology();
  const auto& routers = fabric.routers();
  std::map<std::pair<NodeIndex, NodeIndex>, netsim::Path> first_displaced;
  const auto crosses_failed = [&](const netsim::Path& path) {
    const auto& failed = fabric.failed_links();
    return std::ranges::any_of(path, [&](netsim::LinkIndex l) {
      return std::ranges::find(failed, l) != failed.end();
    });
  };

  for (std::size_t e = 0; e < schedule.size(); ++e) {
    const LinkFailure& event = schedule[e];
    const std::string where = what + " event " + std::to_string(e);
    const netsim::LinkIndex fwd = *topo.link_between(event.a, event.b);
    const netsim::LinkIndex rev = *topo.link_between(event.b, event.a);
    std::vector<std::pair<NodeIndex, NodeIndex>> want;
    if (event.restore) {
      const FailoverReport report = fabric.restore_link(event.a, event.b);
      if (fabric.protection_k() > 0) {
        for (auto it = first_displaced.begin(); it != first_displaced.end();) {
          if (crosses_failed(it->second)) {
            ++it;
            continue;
          }
          want.push_back(it->first);
          it = first_displaced.erase(it);
        }
      }
      EXPECT_EQ(report.swapped, want) << where;
    } else {
      for (const NodeIndex src : routers) {
        for (const NodeIndex dst : routers) {
          const CompiledRoute* route =
              src == dst ? nullptr : fabric.cached_route(src, dst);
          if (route == nullptr) continue;
          if (std::ranges::none_of(route->path, [&](netsim::LinkIndex l) {
                return l == fwd || l == rev;
              })) {
            continue;
          }
          want.emplace_back(src, dst);
          if (fabric.protection_k() > 0) {
            first_displaced.try_emplace({src, dst}, route->path);
          }
        }
      }
      const FailoverReport report = fabric.apply_failure(event.a, event.b);
      EXPECT_EQ(report.affected, want) << where;
    }
    (void)fabric.repair_pending();
    for (const NodeIndex src : routers) {
      for (const NodeIndex dst : routers) {
        const CompiledRoute* route =
            src == dst ? nullptr : fabric.cached_route(src, dst);
        if (route == nullptr) continue;
        EXPECT_FALSE(crosses_failed(route->path))
            << where << ": " << src << "->" << dst
            << " still routes over a failed link";
      }
    }
  }
}

TEST(FailoverProtection, StormReportsMatchBruteForceScans) {
  // Seeded flap storms (failures and restores interleaved) and node
  // storms restored link by link, so saved primaries cross several dead
  // links at once, on a torus and a fat-tree, unprotected and 1:1.
  const std::vector<std::pair<std::string, netsim::Topology>> topologies{
      {"torus6x6", make_torus(6, 6)}, {"fat_tree_k4", make_fat_tree(4)}};
  for (const auto& [name, topo] : topologies) {
    for (const unsigned k : {0U, 1U}) {
      for (const std::uint64_t seed : {1U, 2U, 3U}) {
        const std::string what = name + " k=" + std::to_string(k) +
                                 " seed=" + std::to_string(seed);
        FailureInjectorParams flap;
        flap.preset = FailurePreset::kFlap;
        flap.seed = seed;
        flap.count = 6;
        BuiltFabric flapped(topo);
        flapped.compile_all_pairs();
        flapped.enable_protection(k);
        play_and_check_storm(flapped,
                             make_failure_schedule(flapped.topology(), flap),
                             what + " flap");

        FailureInjectorParams storm;
        storm.preset = FailurePreset::kStorm;
        storm.seed = seed;
        storm.count = 2;
        std::vector<LinkFailure> schedule =
            make_failure_schedule(topo, storm);
        const std::size_t failures = schedule.size();
        for (std::size_t i = 0; i < failures; ++i) {
          LinkFailure up = schedule[i];
          up.restore = true;
          schedule.push_back(up);
        }
        BuiltFabric stormed(topo);
        stormed.compile_all_pairs();
        stormed.enable_protection(k);
        play_and_check_storm(stormed, schedule, what + " storm");
        EXPECT_TRUE(stormed.failed_links().empty()) << what;
      }
    }
  }
}

/// A route as the serving contract compares it.
struct RouteBytes {
  netsim::Path path;
  polka::SegmentedRoute segments;
  polka::PacketResult expected;

  friend bool operator==(const RouteBytes&, const RouteBytes&) = default;
};

RouteBytes bytes_of(const CompiledRoute& route) {
  return {route.path, route.segments, route.expected};
}

/// A per-pair plan as the route that serves it to `dst`.
RouteBytes bytes_of(const BuiltFabric& fabric, NodeIndex dst,
                    const PlannedBackup& plan) {
  const std::size_t fdst = fabric.fabric_index(dst);
  polka::PacketResult expected;
  expected.egress_node = static_cast<std::uint32_t>(fdst);
  expected.egress_port = fabric.egress_port(fdst);
  expected.hops = static_cast<std::uint32_t>(plan.path.size() + 1);
  return {plan.path, plan.segments, expected};
}

TEST(FailoverProtection, ServingPointersFollowTheContract) {
  // A seeded flap storm with repair_pending after every event, checked
  // against a model of each pair built from the public API alone:
  //  * a pair outside the event's `affected` keeps the same
  //    cached_route pointer and the same bytes;
  //  * a swapped pair serves the first backup of its protection set
  //    that avoids every failed link (per-pair plans, replanned when a
  //    repair gives the pair a new primary);
  //  * a reverted pair serves its pre-failure primary again, and every
  //    pair whose pre-failure primary is fully alive reverts.
  struct PairModel {
    RouteBytes primary;
    std::vector<PlannedBackup> set;
    /// The primary and set at the first displacement, until reverted.
    std::optional<std::pair<RouteBytes, std::vector<PlannedBackup>>> original;
  };
  const std::vector<std::pair<std::string, netsim::Topology>> topologies{
      {"rr16d4", build_topology(*find_scenario("rr16d4/uniform"))},
      {"torus8x8", make_torus(8, 8)}};
  for (const auto& [name, topo] : topologies) {
    BuiltFabric fabric(topo);
    fabric.compile_all_pairs();
    (void)fabric.enable_protection(1);
    const auto& routers = fabric.routers();
    std::map<std::pair<NodeIndex, NodeIndex>, PairModel> model;
    for (const NodeIndex s : routers) {
      for (const NodeIndex d : routers) {
        if (s == d) continue;
        const CompiledRoute* route = fabric.cached_route(s, d);
        ASSERT_NE(route, nullptr) << name;
        model[{s, d}] = {bytes_of(*route),
                         plan_per_pair(fabric, s, d, route->path, 1),
                         std::nullopt};
      }
    }
    const auto alive = [&](const netsim::Path& path) {
      const auto& failed = fabric.failed_links();
      return std::ranges::none_of(path, [&](netsim::LinkIndex l) {
        return std::ranges::find(failed, l) != failed.end();
      });
    };

    FailureInjectorParams flap;
    flap.preset = FailurePreset::kFlap;
    flap.seed = 5;
    flap.count = 12;
    const auto schedule = make_failure_schedule(topo, flap);
    std::size_t swaps = 0;
    std::size_t reverts = 0;
    std::size_t repairs = 0;
    for (std::size_t e = 0; e < schedule.size(); ++e) {
      const LinkFailure& event = schedule[e];
      const std::string where = name + " event " + std::to_string(e);
      std::map<std::pair<NodeIndex, NodeIndex>,
               std::pair<const CompiledRoute*, RouteBytes>>
          before;
      for (const auto& [pr, m] : model) {
        const CompiledRoute* route = fabric.cached_route(pr.first, pr.second);
        before[pr] = {route, route == nullptr ? RouteBytes{} : bytes_of(*route)};
      }
      const FailoverReport report =
          event.restore ? fabric.restore_link(event.a, event.b)
                        : fabric.apply_failure(event.a, event.b);
      const FailoverReport lazy = fabric.repair_pending();
      const std::set<std::pair<NodeIndex, NodeIndex>> affected(
          report.affected.begin(), report.affected.end());

      for (const auto& [pr, was] : before) {
        if (affected.contains(pr)) continue;
        const CompiledRoute* now = fabric.cached_route(pr.first, pr.second);
        ASSERT_EQ(now, was.first) << where << ": " << pr.first << "->"
                                  << pr.second << " moved";
        if (now != nullptr) {
          EXPECT_EQ(bytes_of(*now), was.second)
              << where << ": " << pr.first << "->" << pr.second;
        }
      }
      if (event.restore) {
        EXPECT_EQ(report.swapped, report.affected) << where;
        for (const auto& pr : report.swapped) {
          PairModel& m = model.at(pr);
          ASSERT_TRUE(m.original.has_value()) << where;
          const CompiledRoute* route = fabric.cached_route(pr.first, pr.second);
          ASSERT_NE(route, nullptr) << where;
          EXPECT_EQ(bytes_of(*route), m.original->first)
              << where << ": " << pr.first << "->" << pr.second;
          m.primary = std::move(m.original->first);
          m.set = std::move(m.original->second);
          m.original.reset();
          ++reverts;
        }
        for (const auto& [pr, m] : model) {
          EXPECT_FALSE(m.original && alive(m.original->first.path))
              << where << ": " << pr.first << "->" << pr.second
              << " kept a backup though its primary is alive";
        }
      } else {
        for (const auto& pr : report.affected) {
          PairModel& m = model.at(pr);
          if (!m.original) m.original.emplace(m.primary, m.set);
        }
        const auto first_live = [&](const std::pair<NodeIndex, NodeIndex>& pr) {
          const std::vector<PlannedBackup>& set = model.at(pr).set;
          return std::ranges::find_if(set, [&](const PlannedBackup& plan) {
            return alive(plan.path);
          });
        };
        for (const auto& pr : report.swapped) {
          const auto plan = first_live(pr);
          ASSERT_NE(plan, model.at(pr).set.end()) << where;
          const CompiledRoute* route = fabric.cached_route(pr.first, pr.second);
          ASSERT_NE(route, nullptr) << where;
          EXPECT_EQ(bytes_of(*route), bytes_of(fabric, pr.second, *plan))
              << where << ": " << pr.first << "->" << pr.second;
          ++swaps;
        }
        for (const auto& pr : report.pending) {
          EXPECT_EQ(first_live(pr), model.at(pr).set.end()) << where;
        }
      }
      for (const auto& pr : lazy.repaired) {
        const CompiledRoute* route = fabric.cached_route(pr.first, pr.second);
        ASSERT_NE(route, nullptr) << where;
        ++repairs;
        PairModel& m = model.at(pr);
        m.primary = bytes_of(*route);
        m.set = plan_per_pair(fabric, pr.first, pr.second, route->path, 1);
      }
    }
    EXPECT_GT(swaps, 0U) << name;
    EXPECT_GT(reverts, 0U) << name;
    EXPECT_GT(repairs, 0U) << name << ": the storm never replanned a pair";
  }
}

/// Fails the test, naming `what`, when the fabric's link index breaks
/// one of the invariants BuiltFabric::validate() checks.
void expect_valid_index(const BuiltFabric& fabric, const std::string& what) {
  try {
    fabric.validate();
  } catch (const core::ContractViolation& e) {
    ADD_FAILURE() << what << ": " << e.what();
  }
}

TEST(FailoverProtection, LinkIndexStaysValidThroughStorms) {
  // Seeded flap storms and node storms (restored link by link) with
  // repair_pending after every event or after every other one, on four
  // families and k = 0, 1, 2.  After every public call the link ->
  // route index must hold validate()'s invariants: every held route is
  // listed live on every link of its path, every live entry's route
  // crosses its link, no live entry is listed twice and no list
  // outgrows its compaction bound.
  const std::vector<std::pair<std::string, netsim::Topology>> topologies{
      {"torus6x6", make_torus(6, 6)},
      {"rr16d4", build_topology(*find_scenario("rr16d4/uniform"))},
      {"fat_tree_k4_hosts", make_fat_tree(4, true)},
      {"ring24", make_ring(24)}};
  for (const auto& [name, topo] : topologies) {
    for (const unsigned k : {0U, 1U, 2U}) {
      for (const FailurePreset preset :
           {FailurePreset::kFlap, FailurePreset::kStorm}) {
        FailureInjectorParams params;
        params.preset = preset;
        params.seed = 11 + k;
        params.count = preset == FailurePreset::kFlap ? 4 : 2;
        std::vector<LinkFailure> schedule = make_failure_schedule(topo, params);
        if (preset == FailurePreset::kStorm) {
          const std::size_t failures = schedule.size();
          for (std::size_t i = 0; i < failures; ++i) {
            LinkFailure up = schedule[i];
            up.restore = true;
            schedule.push_back(up);
          }
        }
        for (const std::size_t repair_every : {1U, 2U}) {
          const std::string what =
              name + " k=" + std::to_string(k) +
              (preset == FailurePreset::kFlap ? " flap" : " storm") +
              " repair every " + std::to_string(repair_every);
          BuiltFabric fabric(topo);
          (void)fabric.compile_all_pairs();
          expect_valid_index(fabric, what + " compile_all_pairs");
          (void)fabric.enable_protection(k);
          expect_valid_index(fabric, what + " enable_protection");
          for (std::size_t e = 0; e < schedule.size(); ++e) {
            const LinkFailure& event = schedule[e];
            const std::string where = what + " event " + std::to_string(e);
            (void)(event.restore ? fabric.restore_link(event.a, event.b)
                                 : fabric.apply_failure(event.a, event.b));
            expect_valid_index(fabric, where);
            if ((e + 1) % repair_every == 0) {
              (void)fabric.repair_pending();
              expect_valid_index(fabric, where + " repair_pending");
            }
          }
          (void)fabric.repair_pending();
          expect_valid_index(fabric, what + " final repair_pending");
          // Disarm and re-arm: the index is rebuilt, then replanned.
          (void)fabric.enable_protection(0);
          expect_valid_index(fabric, what + " disarm");
          (void)fabric.enable_protection(k);
          expect_valid_index(fabric, what + " re-arm");
        }
      }
    }
  }
}

TEST(FailoverProtection, GenerationWrapNeverRevivesAStaleEntry) {
  // s reaches t over three disjoint two-hop paths, via a, b and c.  With
  // s-a down, s->t leaves a stale entry on s->a, a list nothing else is
  // added to while the link is down, so it is never compacted.  Failing
  // s-b and s-c in turn then re-stores s->t 2^16 times, once per
  // failure: its slot's 16-bit generation comes round to the stale
  // entry's, which must still read stale.
  netsim::Topology topo;
  const NodeIndex s = topo.add_node("s");
  const NodeIndex a = topo.add_node("a");
  const NodeIndex b = topo.add_node("b");
  const NodeIndex c = topo.add_node("c");
  const NodeIndex t = topo.add_node("t");
  for (const NodeIndex via : {a, b, c}) {
    topo.add_duplex_link(s, via, 100.0, 1.0);
    topo.add_duplex_link(via, t, 100.0, 1.0);
  }
  BuiltFabric fabric(topo);
  (void)fabric.compile_all_pairs();
  const auto via_of = [&] {
    return topo.link(fabric.cached_route(s, t)->path.front()).to;
  };
  ASSERT_EQ(via_of(), a);
  (void)fabric.apply_failure(s, a);
  ASSERT_EQ(via_of(), b);
  // Flip f re-stores s->t for the (f + 2)-th time; a stale entry
  // would read live again right after flip 2^16 - 2.
  constexpr std::size_t kFlips = (1U << 16) + 2;
  for (std::size_t flip = 0; flip < kFlips; ++flip) {
    const NodeIndex via = flip % 2 == 0 ? b : c;
    (void)fabric.apply_failure(s, via);
    if (flip % 4096 == 0 || flip + 8 >= kFlips) {
      expect_valid_index(fabric, "flip " + std::to_string(flip));
      if (::testing::Test::HasFailure()) return;
    }
    (void)fabric.restore_link(s, via);
  }
  EXPECT_EQ(via_of(), b) << "s->t no longer alternates";
}

TEST(FailoverRunner, ProtectedRingLosesNothingOnSingleFailure) {
  // The headline behaviour: with 1-disjoint protection a single link
  // failure is hitless -- zero window recompiles, zero packets lost --
  // while the unprotected run pays the convergence window.
  BuiltFabric fabric(make_ring(16));
  TrafficParams traffic;
  traffic.pattern = TrafficPattern::kUniformRandom;
  traffic.packets = 8192;
  traffic.seed = 7;
  PacketStream stream = generate_traffic(fabric, traffic);

  RunnerOptions options;
  options.threads = 2;
  options.loss_window_per_recompile = 4;
  options.failures.push_back(LinkFailure{0.5, fabric.topology().index_of("r3"),
                                         fabric.topology().index_of("r4")});

  const ScenarioReport eager = ScenarioRunner(options).run(fabric, stream);
  EXPECT_GT(eager.window_recompiles, 0U);
  EXPECT_GT(eager.failover_packets_lost, 0U);
  EXPECT_EQ(eager.packets + eager.dropped_packets, 8192U);

  BuiltFabric armed(make_ring(16));
  PacketStream same_stream = generate_traffic(armed, traffic);
  options.protection_k = 1;
  const ScenarioReport hitless =
      ScenarioRunner(options).run(armed, same_stream);
  EXPECT_EQ(hitless.window_recompiles, 0U);
  EXPECT_EQ(hitless.failover_packets_lost, 0U);
  EXPECT_EQ(hitless.dropped_packets, 0U);
  EXPECT_GT(hitless.backup_swapped_pairs, 0U);
  EXPECT_EQ(hitless.packets, 8192U);
  EXPECT_EQ(hitless.wrong_egress, 0U);
  EXPECT_LT(hitless.failover_packets_lost, eager.failover_packets_lost);
}

TEST(FailoverRunner, ReplayingAFailedOverStreamAgainStaysConsistent) {
  // A failover reroutes lanes, not packets: after one pass over a cut
  // ring, a second pass over the same stream must carry every packet
  // on its lane's repaired route and land on that route's egress.  (The
  // second pass replays the cut as a duplicate event, so nothing is
  // rerouted again.)
  BuiltFabric fabric(make_ring(16));
  TrafficParams traffic;
  traffic.pattern = TrafficPattern::kUniformRandom;
  traffic.packets = 8192;
  traffic.seed = 7;
  PacketStream stream = generate_traffic(fabric, traffic);

  RunnerOptions options;
  options.threads = 2;
  options.failures.push_back(LinkFailure{0.5, fabric.topology().index_of("r3"),
                                         fabric.topology().index_of("r4")});
  const ScenarioRunner runner(options);
  const ScenarioReport first = runner.run(fabric, stream);
  ASSERT_GT(first.rerouted_pairs, 0U);
  EXPECT_EQ(first.wrong_egress, 0U);
  EXPECT_EQ(first.packets, 8192U);

  const ScenarioReport second = runner.run(fabric, stream);
  EXPECT_EQ(second.rerouted_pairs, 0U);
  EXPECT_EQ(second.wrong_egress, 0U);
  EXPECT_EQ(second.packets, 8192U);
}

TEST(FailoverRunner, StormWithProtectionKeepsEgressIntent) {
  // A node storm (every link of one router) under 4 replay threads:
  // packets either arrive where their pair intended or are counted
  // dropped -- never misdelivered.
  const ScenarioSpec* spec = find_scenario("torus4x4/uniform");
  ASSERT_NE(spec, nullptr);
  BuiltFabric fabric(build_topology(*spec));
  TrafficParams traffic = spec->traffic;
  traffic.packets = 8192;
  PacketStream stream = generate_traffic(fabric, traffic);

  FailureInjectorParams inject;
  inject.preset = FailurePreset::kStorm;
  inject.seed = 3;

  RunnerOptions options;
  options.threads = 4;
  options.protection_k = 2;
  options.loss_window_per_recompile = 4;
  options.failures = make_failure_schedule(fabric.topology(), inject);
  const ScenarioReport report = ScenarioRunner(options).run(fabric, stream);
  EXPECT_EQ(report.wrong_egress, 0U);
  EXPECT_EQ(report.packets + report.dropped_packets, 8192U);
  EXPECT_GT(report.backup_swapped_pairs, 0U);
}

TEST(FailoverRunner, FlapReportsAreBitIdenticalAcrossRunsAndThreads) {
  // Fixed seed + flap schedule (failures AND restores) must yield the
  // same counters on every run and for every thread count.
  const ScenarioSpec* spec = find_scenario("ring12/uniform");
  ASSERT_NE(spec, nullptr);

  const auto run_once = [&](unsigned threads) {
    BuiltFabric fabric(build_topology(*spec));
    TrafficParams traffic = spec->traffic;
    traffic.packets = 8192;
    PacketStream stream = generate_traffic(fabric, traffic);
    FailureInjectorParams inject;
    inject.preset = FailurePreset::kFlap;
    inject.seed = 99;
    inject.count = 2;
    RunnerOptions options;
    options.threads = threads;
    options.protection_k = 1;
    options.loss_window_per_recompile = 4;
    options.failures = make_failure_schedule(fabric.topology(), inject);
    return ScenarioRunner(options).run(fabric, stream);
  };

  const ScenarioReport reference = run_once(1);
  EXPECT_EQ(reference.wrong_egress, 0U);
  EXPECT_TRUE(same_counters(reference, run_once(1))) << "rerun diverged";
  EXPECT_TRUE(same_counters(reference, run_once(4))) << "threads diverged";
  EXPECT_TRUE(same_counters(reference, run_once(8))) << "threads diverged";
}

TEST(FailoverPlayback, SortsAndClampsTheSchedule) {
  BuiltFabric fabric(make_ring(8));
  const NodeIndex r0 = fabric.topology().index_of("r0");
  const NodeIndex r1 = fabric.topology().index_of("r1");
  const NodeIndex r2 = fabric.topology().index_of("r2");
  const std::vector<TrafficPair> lanes;
  FailoverPlayback playback(fabric, lanes,
                            {{1.7, r0, r1, true},
                             {-0.5, r0, r1, false},
                             {0.4, r1, r2, false}});
  std::vector<double> at;
  std::vector<bool> restore;
  while (!playback.done()) {
    const double next = playback.next().at_fraction;
    const FailoverEvent ev = playback.step();
    EXPECT_EQ(ev.failure.at_fraction, next);
    at.push_back(ev.failure.at_fraction);
    restore.push_back(ev.failure.restore);
  }
  EXPECT_EQ(at, (std::vector<double>{0.0, 0.4, 1.0}));
  EXPECT_EQ(restore, (std::vector<bool>{false, false, true}));
  EXPECT_THROW((void)playback.step(), core::ContractViolation);
}

TEST(FailoverPlayback, ReportsOnlyTrafficLanes) {
  // Every pair is cached and protected, but only two are lanes: the
  // event names exactly those, tagged as swaps, with live routes.
  BuiltFabric fabric(make_ring(8));
  fabric.compile_all_pairs();
  fabric.enable_protection(1);
  const auto r = [&](const char* name) {
    return fabric.topology().index_of(name);
  };
  const std::vector<TrafficPair> lanes = {{r("r2"), r("r6"), {}},
                                          {r("r0"), r("r1"), {}},
                                          {r("r1"), r("r2"), {}}};
  FailoverPlayback playback(fabric, lanes, {{0.5, r("r0"), r("r1"), false}});
  const FailoverEvent ev = playback.step();
  EXPECT_FALSE(ev.duplicate);
  EXPECT_GT(ev.swap_stretch.size(), 2U) << "the fabric swapped more pairs";
  ASSERT_EQ(ev.rerouted.size(), 1U);
  EXPECT_EQ(ev.rerouted[0].lane, 1U);
  EXPECT_EQ(ev.rerouted[0].kind, RerouteKind::kSwap);
  EXPECT_EQ(ev.rerouted[0].route, fabric.cached_route(r("r0"), r("r1")));
  EXPECT_EQ(ev.count(RerouteKind::kSwap), 1U);
  EXPECT_EQ(ev.count(RerouteKind::kLazyRepair), 0U);
  EXPECT_TRUE(ev.severed.empty());
}

TEST(FailoverPlayback, DuplicateEventsChangeNothing) {
  BuiltFabric fabric(make_ring(8));
  fabric.compile_all_pairs();
  const NodeIndex r0 = fabric.topology().index_of("r0");
  const NodeIndex r1 = fabric.topology().index_of("r1");
  const std::vector<TrafficPair> lanes = {{r0, r1, {}}};
  FailoverPlayback playback(fabric, lanes,
                            {{0.2, r0, r1, false},
                             {0.3, r1, r0, false},
                             {0.6, r0, r1, true},
                             {0.7, r0, r1, true}});
  std::vector<bool> duplicate;
  std::vector<std::size_t> rerouted;
  while (!playback.done()) {
    const FailoverEvent ev = playback.step();
    duplicate.push_back(ev.duplicate);
    rerouted.push_back(ev.rerouted.size());
    if (ev.duplicate) {
      EXPECT_TRUE(ev.severed.empty());
      EXPECT_TRUE(ev.swap_stretch.empty());
      EXPECT_EQ(ev.window_recompiles, 0U);
    }
  }
  EXPECT_EQ(duplicate, (std::vector<bool>{false, true, false, true}));
  // Unprotected: the failure recompiles the lane in the event; the
  // restore only flushes trees, so it reroutes nothing.
  EXPECT_EQ(rerouted, (std::vector<std::size_t>{1, 0, 0, 0}));
}

}  // namespace
}  // namespace hp::scenario
