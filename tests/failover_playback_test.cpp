// Failure-schedule playback as both runners see it.
//
// ScenarioRunner (replay) and SimRunner (timed simulation) play the
// same schedule through the same control-plane step: sort and clamp
// the events, fail or restore the link, skip duplicates, run the lazy
// repair and map every rerouted (src, dst) pair onto its traffic lane.
// The contracts under test:
//  * golden digests: fixed-seed reports of five failover scenarios
//    (replay flap/storm, open-loop flap/unprotected failure, closed-loop
//    flap) hash to pinned constants -- integer counters, FCT samples and
//    the transport block only, so the constants hold under both fold
//    kernels and every compiler;
//  * failover pair counts are per traffic lane in both runners, so
//    swapped <= rerouted and lazy-repaired <= rerouted always hold, even
//    when the fabric caches routes for pairs no packet uses;
//  * a duplicate fail (or restore) reroutes nothing.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "report_digest.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/failure_injector.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/topologies.hpp"
#include "scenario/traffic.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"

namespace scenario = hp::scenario;
namespace sim = hp::sim;

namespace {

using hp::golden::digest;

scenario::ScenarioSpec spec_named(const char* name, std::size_t packets) {
  const scenario::ScenarioSpec* base = scenario::find_scenario(name);
  EXPECT_NE(base, nullptr) << name;
  scenario::ScenarioSpec spec = *base;
  spec.traffic.packets = packets;
  return spec;
}

std::vector<scenario::LinkFailure> schedule_for(
    const scenario::ScenarioSpec& spec, scenario::FailurePreset preset,
    std::uint64_t seed, std::size_t count) {
  scenario::FailureInjectorParams inject;
  inject.preset = preset;
  inject.seed = seed;
  inject.count = count;
  return scenario::make_failure_schedule(scenario::build_topology(spec),
                                         inject);
}

/// Replay on a fabric that compiled only the stream's own routes.
scenario::ScenarioReport replay(const scenario::ScenarioSpec& spec,
                                const scenario::RunnerOptions& options) {
  scenario::BuiltFabric fabric(scenario::build_topology(spec));
  scenario::PacketStream stream =
      scenario::generate_traffic(fabric, spec.traffic);
  return scenario::ScenarioRunner(options).run(fabric, stream);
}

// --- golden cases -------------------------------------------------------

TEST(FailoverPlaybackGolden, ReplayRingFlapWithLossWindow) {
  const scenario::ScenarioSpec spec = spec_named("ring12/uniform", 8192);
  scenario::RunnerOptions options;
  options.threads = 2;
  options.protection_k = 1;
  options.loss_window_per_recompile = 4;
  options.failures = schedule_for(spec, scenario::FailurePreset::kFlap, 99, 2);
  const scenario::ScenarioReport r = replay(spec, options);
  EXPECT_GT(r.rerouted_pairs, 0U);
  EXPECT_EQ(r.wrong_egress, 0U);
  EXPECT_EQ(digest(r), 14014083242476999749ULL);
}

TEST(FailoverPlaybackGolden, ReplayTorusStormProtectedTwice) {
  const scenario::ScenarioSpec spec = spec_named("torus4x4/uniform", 8192);
  scenario::RunnerOptions options;
  options.threads = 4;
  options.protection_k = 2;
  options.loss_window_per_recompile = 4;
  options.failures = schedule_for(spec, scenario::FailurePreset::kStorm, 3, 1);
  const scenario::ScenarioReport r = replay(spec, options);
  EXPECT_GT(r.backup_swapped_pairs, 0U);
  EXPECT_EQ(r.wrong_egress, 0U);
  EXPECT_EQ(digest(r), 17347717408622162898ULL);
}

TEST(FailoverPlaybackGolden, OpenLoopTorusFlapProtected) {
  const scenario::ScenarioSpec spec = spec_named("torus4x4/uniform", 4096);
  sim::SimOptions options;
  options.protection_k = 1;
  options.failures = schedule_for(spec, scenario::FailurePreset::kFlap, 11, 3);
  const sim::SimReport r = sim::run_sim_scenario(spec, options);
  EXPECT_GT(r.forwarding.backup_swapped_pairs, 0U);
  EXPECT_EQ(r.forwarding.wrong_egress, 0U);
  EXPECT_EQ(digest(r), 341315396018124007ULL);
}

TEST(FailoverPlaybackGolden, OpenLoopUnprotectedFailureSplitsFlows) {
  // No protection: every affected lane waits repair_latency_ns for its
  // recompiled route, and flows straddling the adoption tick split
  // into one engine flow per route epoch.
  const scenario::ScenarioSpec spec = spec_named("ring12/uniform", 4096);
  sim::SimOptions options;
  options.failures = schedule_for(spec, scenario::FailurePreset::kSingle, 5, 1);
  const sim::SimReport r = sim::run_sim_scenario(spec, options);
  EXPECT_GT(r.forwarding.rerouted_pairs, 0U);
  EXPECT_EQ(r.forwarding.backup_swapped_pairs, 0U);
  EXPECT_GT(r.forwarding.failover_packets_lost, 0U);
  EXPECT_EQ(digest(r), 9157975218572449059ULL);
}

TEST(FailoverPlaybackGolden, ClosedLoopFlap) {
  const scenario::ScenarioSpec spec = spec_named("torus4x4/uniform", 4096);
  sim::SimOptions options;
  options.protection_k = 1;
  options.transport.enabled = true;
  options.transport.max_retries = 16;
  options.failures = schedule_for(spec, scenario::FailurePreset::kFlap, 11, 3);
  const sim::SimReport r = sim::run_sim_scenario(spec, options);
  EXPECT_GT(r.forwarding.rerouted_pairs, 0U);
  EXPECT_EQ(r.completed_flows + r.transport.abandoned_flows, r.flows);
  EXPECT_EQ(digest(r), 7871357237494674008ULL);
}

// --- per-lane failover counts ------------------------------------------

/// ring16, 6 sampled pairs, every pair precompiled and protected, one
/// failure: the fabric swaps every cached pair crossing r3-r4 but only
/// a handful of them carry traffic.
struct Ring16 {
  scenario::TrafficParams traffic;
  scenario::LinkFailure failure;

  Ring16() {
    traffic.pattern = scenario::TrafficPattern::kUniformRandom;
    traffic.packets = 8192;
    traffic.seed = 7;
    traffic.max_pairs = 6;
    const hp::netsim::Topology topo = scenario::make_ring(16);
    failure = {0.5, topo.index_of("r3"), topo.index_of("r4")};
  }
};

TEST(FailoverPlaybackCounts, ReplayAndSimCountSwappedLanesAlike) {
  const Ring16 ring;

  scenario::BuiltFabric replay_fabric(scenario::make_ring(16));
  replay_fabric.compile_all_pairs();
  scenario::PacketStream stream =
      scenario::generate_traffic(replay_fabric, ring.traffic);
  scenario::RunnerOptions replay_options;
  replay_options.protection_k = 1;
  replay_options.failures = {ring.failure};
  const scenario::ScenarioReport replayed =
      scenario::ScenarioRunner(replay_options).run(replay_fabric, stream);
  EXPECT_EQ(replayed.backup_swapped_pairs, 4U);
  EXPECT_EQ(replayed.rerouted_pairs, 4U);

  scenario::BuiltFabric sim_fabric(scenario::make_ring(16));
  sim_fabric.compile_all_pairs();
  const scenario::PacketStream sim_stream =
      scenario::generate_traffic(sim_fabric, ring.traffic);
  sim::SimOptions sim_options;
  sim_options.protection_k = 1;
  sim_options.failures = {ring.failure};
  const sim::SimReport simulated =
      sim::SimRunner(sim_options).run(sim_fabric, sim_stream);
  EXPECT_EQ(simulated.forwarding.backup_swapped_pairs, 4U);
  EXPECT_EQ(simulated.forwarding.rerouted_pairs, 4U);
}

TEST(FailoverPlaybackCounts, SwappedAndLazyNeverExceedRerouted) {
  const auto check = [](const scenario::ScenarioReport& r, const char* what) {
    EXPECT_GT(r.rerouted_pairs, 0U) << what;
    EXPECT_LE(r.backup_swapped_pairs, r.rerouted_pairs) << what;
    EXPECT_LE(r.lazy_repaired_pairs, r.rerouted_pairs) << what;
  };
  for (const char* name : {"torus4x4/uniform", "ring12/hotspot"}) {
    scenario::ScenarioSpec spec = spec_named(name, 4096);
    spec.traffic.max_pairs = 24;
    const auto failures =
        schedule_for(spec, scenario::FailurePreset::kFlap, 21, 4);

    scenario::BuiltFabric fabric(scenario::build_topology(spec));
    fabric.compile_all_pairs();
    scenario::PacketStream stream =
        scenario::generate_traffic(fabric, spec.traffic);
    scenario::RunnerOptions replay_options;
    replay_options.protection_k = 1;
    replay_options.failures = failures;
    check(scenario::ScenarioRunner(replay_options).run(fabric, stream), name);

    sim::SimOptions sim_options;
    sim_options.protection_k = 1;
    sim_options.failures = failures;
    check(sim::run_sim_scenario(spec, sim_options).forwarding, name);
  }
}

TEST(FailoverPlaybackCounts, DuplicateEventsRerouteNothing) {
  // Failing a dead link and restoring a live one are no-ops: a schedule
  // padded with both reports exactly what the plain one reports.  (No
  // replay loss window here: a window stops at the next scheduled
  // event, duplicate or not.)
  const scenario::ScenarioSpec spec = spec_named("ring12/uniform", 4096);
  const hp::netsim::Topology topo = scenario::build_topology(spec);
  const auto a = topo.index_of("r3");
  const auto b = topo.index_of("r4");
  const std::vector<scenario::LinkFailure> plain = {{0.3, a, b, false},
                                                    {0.6, a, b, true}};
  const std::vector<scenario::LinkFailure> padded = {{0.3, a, b, false},
                                                     {0.4, a, b, false},
                                                     {0.6, a, b, true},
                                                     {0.7, b, a, true}};
  for (const unsigned k : {0U, 1U}) {
    scenario::RunnerOptions replay_options;
    replay_options.protection_k = k;
    replay_options.failures = plain;
    scenario::ScenarioReport expected = replay(spec, replay_options);
    replay_options.failures = padded;
    scenario::ScenarioReport got = replay(spec, replay_options);
    EXPECT_GT(expected.rerouted_pairs, 0U) << "k=" << k;
    expected.seconds = got.seconds = 0.0;
    EXPECT_EQ(got, expected) << "replay k=" << k;

    sim::SimOptions sim_options;
    sim_options.protection_k = k;
    sim_options.failures = plain;
    const sim::SimReport sim_expected =
        sim::run_sim_scenario(spec, sim_options);
    sim_options.failures = padded;
    EXPECT_EQ(sim::run_sim_scenario(spec, sim_options), sim_expected)
        << "sim k=" << k;
  }
}

}  // namespace
