// Observability-through-the-simulator tests: registry counters agree
// with the SimReport, snapshots and flight recordings are bit-identical
// for a fixed seed across runs and compile thread counts, phase traces
// appear, and replay metrics mirror ScenarioReport.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/failure_injector.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/traffic.hpp"
#include "sim/runner.hpp"

namespace scenario = hp::scenario;
namespace sim = hp::sim;
namespace obs = hp::obs;

namespace {

scenario::ScenarioSpec small_spec(const char* name) {
  const scenario::ScenarioSpec* base = scenario::find_scenario(name);
  EXPECT_NE(base, nullptr) << name;
  scenario::ScenarioSpec spec = *base;
  spec.traffic.packets = 2048;
  spec.traffic.max_pairs = 64;
  spec.traffic.seed = 5;
  return spec;
}

TEST(SimObservability, CountersAgreeWithReport) {
  const scenario::ScenarioSpec spec = small_spec("torus4x4/hotspot");
  obs::MetricRegistry registry;
  sim::SimOptions options;
  options.metrics = &registry;
  const sim::SimReport report = sim::run_sim_scenario(spec, options);
  const obs::MetricsSnapshot snap = registry.snapshot();

  EXPECT_EQ(snap.counter_or("sim.injected"),
            report.forwarding.packets + report.forwarding.dropped_packets);
  EXPECT_EQ(snap.counter_or("sim.tail_drops"),
            report.forwarding.dropped_packets);
  EXPECT_EQ(snap.counter_or("sim.ttl_expired"),
            report.forwarding.ttl_expired);
  EXPECT_EQ(snap.counter_or("sim.ecn_marked"), report.ecn_marked);
  EXPECT_EQ(snap.counter_or("sim.folds"), report.forwarding.mod_operations);
  EXPECT_EQ(snap.counter_or("sim.wrong_egress"),
            report.forwarding.wrong_egress);
  EXPECT_EQ(snap.counter_or("sim.flows"), report.flows);
  EXPECT_EQ(snap.counter_or("sim.completed_flows"), report.completed_flows);
  // Every in-flight packet terminated one way or another.
  const obs::MetricValue* in_flight = snap.find("sim.in_flight");
  ASSERT_NE(in_flight, nullptr);
  EXPECT_EQ(in_flight->gauge, 0);
  // One FCT histogram sample per completed flow.
  const obs::MetricValue* fct = snap.find("sim.fct_ns");
  ASSERT_NE(fct, nullptr);
  EXPECT_EQ(fct->histogram.count, report.completed_flows);
  // Compile metrics flowed through the fabric the runner compiled.
  EXPECT_GT(snap.counter_or("compile.routes"), 0u);
}

// Everything derived from simulated ticks is deterministic; the only
// wall-clock values in the registry are the compile/replay phase
// timing histograms (compile.*_ns, replay.slice_ns).  Drop those to
// get the view the bit-identical guarantee covers.  sim.fct_ns stays:
// flow completion times are simulated time.
obs::MetricsSnapshot deterministic_view(obs::MetricsSnapshot snap) {
  std::erase_if(snap.entries, [](const obs::MetricValue& m) {
    return m.name.ends_with("_ns") && !m.name.starts_with("sim.");
  });
  return snap;
}

TEST(SimObservability, SnapshotBitIdenticalAcrossRunsAndThreads) {
  const scenario::ScenarioSpec spec = small_spec("torus4x4/hotspot");

  auto snapshot_with_threads = [&spec](unsigned threads) {
    obs::MetricRegistry registry;
    sim::SimOptions options;
    options.metrics = &registry;
    options.compile_threads = threads;
    (void)sim::run_sim_scenario(spec, options);
    return deterministic_view(registry.snapshot());
  };

  const obs::MetricsSnapshot first = snapshot_with_threads(1);
  EXPECT_FALSE(first.entries.empty());
  EXPECT_EQ(first, snapshot_with_threads(1))
      << "same seed, same options: snapshot must be bit-identical";
  EXPECT_EQ(first, snapshot_with_threads(4))
      << "compile threading must not leak into sim metrics";
}

TEST(SimObservability, FailoverSnapshotBitIdenticalAcrossRunsAndThreads) {
  // The failover path adds fabric mutation mid-run (flap = failures AND
  // restores) plus backup swaps; none of it may leak wall clock or
  // thread order into the sim.* metric space or the report.
  const scenario::ScenarioSpec spec = small_spec("torus4x4/uniform");

  auto run_with_threads = [&spec](unsigned threads) {
    obs::MetricRegistry registry;
    sim::SimOptions options;
    options.metrics = &registry;
    options.compile_threads = threads;
    options.protection_k = 1;
    scenario::FailureInjectorParams inject;
    inject.preset = scenario::FailurePreset::kFlap;
    inject.seed = 31;
    inject.count = 2;
    options.failures = scenario::make_failure_schedule(
        scenario::build_topology(spec), inject);
    sim::SimReport report = sim::run_sim_scenario(spec, options);
    report.forwarding.seconds = 0.0;  // the one wall-clock field
    return std::make_pair(deterministic_view(registry.snapshot()), report);
  };

  const auto [first_snap, first_report] = run_with_threads(1);
  EXPECT_FALSE(first_snap.entries.empty());
  EXPECT_GT(first_report.forwarding.rerouted_pairs, 0u);
  EXPECT_EQ(first_report.forwarding.wrong_egress, 0u);

  const auto [again_snap, again_report] = run_with_threads(1);
  EXPECT_EQ(first_snap, again_snap) << "rerun diverged under failover";
  EXPECT_EQ(first_report, again_report);

  const auto [threaded_snap, threaded_report] = run_with_threads(4);
  EXPECT_EQ(first_snap, threaded_snap)
      << "compile threading leaked into failover metrics";
  EXPECT_EQ(first_report, threaded_report);
}

TEST(SimObservability, FlightRecorderIsDeterministic) {
  const scenario::ScenarioSpec spec = small_spec("torus4x4/hotspot");

  auto record = [&spec]() {
    obs::FlightRecorder recorder(/*capacity=*/512, /*sample_every=*/4);
    sim::SimOptions options;
    options.recorder = &recorder;
    (void)sim::run_sim_scenario(spec, options);
    return recorder;
  };

  const obs::FlightRecorder first = record();
  EXPECT_GT(first.total_recorded(), 0u);
  EXPECT_FALSE(first.records().empty());
  const obs::FlightRecorder again = record();
  EXPECT_EQ(first.records(), again.records());
  EXPECT_EQ(first.to_json(), again.to_json());

  // Only sampled flows appear.
  for (const obs::HopRecord& r : first.records()) {
    EXPECT_EQ(r.flow % 4, 0u);
  }
}

TEST(SimObservability, PhaseTraceCoversRunnerStages) {
  const scenario::ScenarioSpec spec = small_spec("ring12/uniform");
  obs::TraceSink sink;
  sim::SimOptions options;
  options.trace = &sink;
  (void)sim::run_sim_scenario(spec, options);

  std::vector<std::string> names;
  for (const obs::TraceEvent& e : sink.events()) names.push_back(e.name);
  for (const char* phase :
       {"sim.wire", "sim.schedule", "sim.simulate", "sim.report",
        "compile.all_pairs"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), phase), names.end())
        << "missing trace phase " << phase;
  }
}

TEST(ReplayObservability, MetricsMirrorScenarioReport) {
  const scenario::ScenarioSpec spec = small_spec("torus4x4/uniform");
  obs::MetricRegistry registry;
  scenario::BuiltFabric fabric(scenario::build_topology(spec));
  fabric.set_observability(&registry, nullptr);
  scenario::PacketStream stream =
      scenario::generate_traffic(fabric, spec.traffic);

  scenario::RunnerOptions options;
  options.threads = 2;
  options.metrics = &registry;
  const scenario::ScenarioReport report =
      scenario::ScenarioRunner(options).run(fabric, stream);

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_or("replay.packets"), report.packets);
  EXPECT_EQ(snap.counter_or("replay.folds"), report.mod_operations);
  EXPECT_EQ(snap.counter_or("replay.wrong_egress"), report.wrong_egress);
  EXPECT_EQ(snap.counter_or("replay.epochs"), 1u);
  EXPECT_GT(snap.counter_or("replay.slices"), 0u);
  EXPECT_GT(snap.counter_or("compile.routes"), 0u);
}

}  // namespace
