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
//  * reports are deterministic across thread counts;
//  * FailoverPlayback sorts and clamps the schedule, reports duplicate
//    events as no-ops and names only the stream's lanes.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
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
    (void)eager_fabric.fail_link(schedule[0].a, schedule[0].b);

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
