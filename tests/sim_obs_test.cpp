// Observability-through-the-simulator tests: registry counters agree
// with the SimReport, snapshots and flight recordings are bit-identical
// for a fixed seed across runs and compile thread counts and hash to
// pinned golden digests, queue depths at a same-tick departure and
// arrival follow push order, phase traces appear, and replay metrics
// mirror ScenarioReport.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report_digest.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/failure_injector.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/traffic.hpp"
#include "sim/packet_sim.hpp"
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

// --- golden digests -------------------------------------------------------
// The determinism tests above compare a run with itself; these pin the
// absolute outcome, so an engine change that reorders a queue drain
// against an arrival (and so moves one queue depth, ECN mark or tail
// drop) shows up even when it is deterministic.  A small queue keeps
// the drop and ECN paths busy.

/// Every field of a metric snapshot, names included.
std::uint64_t digest(const obs::MetricsSnapshot& snap) {
  hp::golden::Digest d;
  for (const obs::MetricValue& m : snap.entries) {
    d.add(m.name);
    d.add(static_cast<std::uint64_t>(m.kind));
    d.add(m.counter);
    d.add(static_cast<std::uint64_t>(m.gauge));
    const obs::HistogramData& h = m.histogram;
    for (const std::uint64_t v : {h.count, h.sum, h.min, h.max}) d.add(v);
    for (const std::uint64_t b : h.buckets) d.add(b);
  }
  return d.value();
}

enum class Loop { kOpen, kOpenFlap, kClosedFlap };

struct Digests {
  std::uint64_t report = 0;
  std::uint64_t snapshot = 0;  ///< deterministic_view of the registry
  std::uint64_t flight = 0;    ///< every hop of every flow, as JSON
};

struct GoldenCase {
  const char* label;  ///< gtest parameter name
  const char* scenario;
  Loop loop;
  Digests want;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.label; }

Digests run_digests(const char* name, Loop loop) {
  const scenario::ScenarioSpec spec = small_spec(name);
  obs::MetricRegistry registry;
  obs::FlightRecorder recorder(/*capacity=*/1 << 16, /*sample_every=*/1);
  sim::SimOptions options;
  options.queue_capacity = 8;
  options.ecn_threshold = 4;
  options.metrics = &registry;
  options.recorder = &recorder;
  if (loop != Loop::kOpen) {
    options.protection_k = 1;
    scenario::FailureInjectorParams inject;
    inject.preset = scenario::FailurePreset::kFlap;
    inject.seed = 31;
    inject.count = 2;
    options.failures = scenario::make_failure_schedule(
        scenario::build_topology(spec), inject);
  }
  if (loop == Loop::kClosedFlap) {
    options.transport.enabled = true;
    options.transport.max_retries = 16;
  }
  const sim::SimReport report = sim::run_sim_scenario(spec, options);
  hp::golden::Digest flight;
  flight.add(recorder.to_json());
  return {hp::golden::digest(report),
          digest(deterministic_view(registry.snapshot())), flight.value()};
}

class SimGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(SimGolden, ReportSnapshotAndFlightRecordingMatchPinnedDigests) {
  const GoldenCase& c = GetParam();
  const Digests got = run_digests(c.scenario, c.loop);
  EXPECT_EQ(got.report, c.want.report);
  EXPECT_EQ(got.snapshot, c.want.snapshot);
  EXPECT_EQ(got.flight, c.want.flight);
}

INSTANTIATE_TEST_SUITE_P(
    QueueCap8, SimGolden,
    ::testing::Values(
        GoldenCase{"FatTreeOpen", "fat_tree_k4/uniform", Loop::kOpen,
                   {15397142137337732331ULL, 4932373636259334633ULL,
                    13287231826744413231ULL}},
        GoldenCase{"FatTreeOpenFlap", "fat_tree_k4/uniform", Loop::kOpenFlap,
                   {11949412122130222665ULL, 5559070642921683126ULL,
                    15004604303493049205ULL}},
        GoldenCase{"FatTreeClosedFlap", "fat_tree_k4/uniform",
                   Loop::kClosedFlap,
                   {16261695727286968660ULL, 10421023323140362590ULL,
                    10217649983446907326ULL}},
        GoldenCase{"TorusOpen", "torus4x4/hotspot", Loop::kOpen,
                   {8335920652602477876ULL, 11857433868398504163ULL,
                    3976186670119060480ULL}},
        GoldenCase{"TorusOpenFlap", "torus4x4/hotspot", Loop::kOpenFlap,
                   {11203436284088278648ULL, 9080636874982551789ULL,
                    12645221829164598365ULL}},
        GoldenCase{"TorusClosedFlap", "torus4x4/hotspot", Loop::kClosedFlap,
                   {11604641592554628078ULL, 17389874309899778083ULL,
                    5423261761354726302ULL}}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.label);
    });

// --- a departure and an arrival on the same tick --------------------------

/// The line a - b - c wired by hand: every channel serializes a packet
/// in 10 ns with no propagation delay.  P1 starts at b and P2 at a,
/// both at t = 0, so P1's departure from b and P2's arrival at b fall
/// on the same tick, 10.  Push order decides which the engine sees
/// first: P1's queue slot is free for P2 only when P1 was handled (and
/// its departure scheduled) before P2's arrival was.  Returns every
/// hop's recorded queue depth, in event order.
std::vector<std::uint32_t> same_tick_depths(bool departure_first) {
  hp::netsim::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const auto c = topo.add_node("c");
  topo.add_duplex_link(a, b, /*capacity_mbps=*/100.0, /*delay_ms=*/0.01);
  topo.add_duplex_link(b, c, /*capacity_mbps=*/100.0, /*delay_ms=*/0.01);
  scenario::BuiltFabric fabric(std::move(topo));
  const hp::polka::CompiledFabric& fast = fabric.compiled();
  const std::size_t n = fast.node_count();
  std::vector<std::uint32_t> node_offset(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    node_offset[i + 1] = node_offset[i] + fast.port_count(i);
  }
  std::vector<std::uint32_t> port_channel(node_offset[n],
                                          sim::PacketSim::kNoChannel);
  std::vector<sim::Channel> channels;
  for (std::size_t node = 0; node < n; ++node) {
    for (std::uint32_t port = 0; port < fast.port_count(node); ++port) {
      if (fast.neighbor(node, port) == hp::polka::CompiledFabric::kNoNode) {
        continue;
      }
      sim::Channel ch;
      ch.latency_ns = 0;
      ch.serialize_ns = 10;
      ch.queue_capacity = 4;
      ch.ecn_threshold = 0;
      port_channel[node_offset[node] + port] =
          static_cast<std::uint32_t>(channels.size());
      channels.push_back(ch);
    }
  }
  obs::FlightRecorder recorder(/*capacity=*/64, /*sample_every=*/1);
  sim::SimConfig config;
  config.recorder = &recorder;
  sim::PacketSim engine(fast, std::move(channels), std::move(node_offset),
                        std::move(port_channel), config);

  const auto inject_from = [&](hp::netsim::NodeIndex src) {
    const scenario::CompiledRoute* route = fabric.route(src, c);
    if (route == nullptr) throw std::logic_error("rig: route failed");
    const std::uint32_t flow = engine.add_flow(route->expected);
    (void)engine.inject(0, route->segments.labels.front(), {}, route->ingress,
                        flow);
  };
  if (departure_first) {
    inject_from(b);  // P1
    inject_from(a);  // P2
  } else {
    inject_from(a);
    inject_from(b);
  }
  const sim::SimResult result = engine.run();
  EXPECT_EQ(result.counters.delivered, 2u);
  EXPECT_EQ(result.counters.end_ns, 20u);

  std::vector<std::uint32_t> depths;
  for (const obs::HopRecord& r : recorder.records()) {
    depths.push_back(r.queue_depth);
  }
  return depths;
}

TEST(SimQueueOrder, DepartureScheduledFirstFreesItsSlotForASameTickArrival) {
  // t=0: P1 at b (1), P2 at a (1); t=10: P1 delivered at c, then P2
  // joins b's now-empty queue (1); t=20: P2 delivered.
  EXPECT_EQ(same_tick_depths(/*departure_first=*/true),
            (std::vector<std::uint32_t>{1, 1, 0, 1, 0}));
}

TEST(SimQueueOrder, ArrivalScheduledFirstQueuesBehindTheDepartingPacket) {
  // t=0: P2 at a (1), P1 at b (1); t=10: P2 joins b's queue while P1
  // still holds its slot (2), then P1 is delivered; t=20: P2 delivered.
  EXPECT_EQ(same_tick_depths(/*departure_first=*/false),
            (std::vector<std::uint32_t>{1, 1, 2, 0, 0}));
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
