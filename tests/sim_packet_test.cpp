// Event-driven packet-level simulator tests: event-queue ordering,
// every registry scenario family producing congestion metrics through
// SimRunner, bit-identical determinism across runs and thread counts,
// waypoint parity on segmented routes, the single-link saturation
// sanity check (offered load >> capacity => queue at cap, drops,
// utilization ~= 1), and wiring inputs that cannot become ticks or
// departure rings failing loudly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "netsim/topology.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/registry.hpp"
#include "scenario/traffic.hpp"
#include "sim/event_queue.hpp"
#include "sim/packet_sim.hpp"
#include "sim/runner.hpp"

namespace scenario = hp::scenario;
namespace sim = hp::sim;

namespace {

TEST(EventQueue, PopsInTimeOrderWithFifoTies) {
  sim::EventQueue q;
  q.push(30, 0, 0);
  q.push(10, 0, 1);
  q.push(20, 0, 2);
  q.push(10, 0, 3);  // same tick as seq-earlier arg=1: must pop after it
  q.push(10, 0, 4);

  std::vector<std::uint32_t> order;
  std::vector<sim::Tick> times;
  while (!q.empty()) {
    const sim::Event e = q.pop();
    order.push_back(e.arg);
    times.push_back(e.at);
  }
  EXPECT_EQ(times, (std::vector<sim::Tick>{10, 10, 10, 20, 30}));
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 3, 4, 2, 0}));
}

/// A small per-family spec: the registry's topology at a stream size
/// that keeps the whole suite fast.
scenario::ScenarioSpec small_spec(const scenario::ScenarioSpec& base,
                                  scenario::TrafficPattern pattern) {
  scenario::ScenarioSpec spec = base;
  spec.traffic.pattern = pattern;
  spec.traffic.packets = 2048;
  spec.traffic.max_pairs = 64;
  spec.traffic.seed = 5;
  return spec;
}

TEST(SimRunner, EveryRegistryFamilyReportsCongestionMetrics) {
  // One spec per topology family (the registry crosses each family
  // with every pattern; family coverage is what matters here).
  std::vector<const scenario::ScenarioSpec*> families;
  std::vector<scenario::TopologyFamily> seen;
  for (const scenario::ScenarioSpec& spec : scenario::builtin_scenarios()) {
    if (std::find(seen.begin(), seen.end(), spec.family) == seen.end()) {
      seen.push_back(spec.family);
      families.push_back(&spec);
    }
  }
  ASSERT_EQ(families.size(), 5u);

  for (const scenario::ScenarioSpec* base : families) {
    for (const auto pattern : {scenario::TrafficPattern::kUniformRandom,
                               scenario::TrafficPattern::kHotspot}) {
      const scenario::ScenarioSpec spec = small_spec(*base, pattern);
      SCOPED_TRACE(std::string(scenario::to_string(spec.family)) + "/" +
                   scenario::to_string(pattern));
      const sim::SimReport report = sim::run_sim_scenario(spec);

      // Every injected packet is accounted for exactly once.
      EXPECT_EQ(report.forwarding.packets + report.forwarding.dropped_packets,
                spec.traffic.packets);
      // The sim walks the same compiled routes as replay: every
      // delivered packet must egress exactly where the pair expects.
      EXPECT_EQ(report.forwarding.wrong_egress, 0u);
      EXPECT_EQ(report.forwarding.ttl_expired, 0u);
      EXPECT_GT(report.flows, 0u);
      EXPECT_GT(report.completed_flows, 0u);
      EXPECT_GT(report.fct_p50_ns(), 0u);
      EXPECT_GE(report.fct_p95_ns(), report.fct_p50_ns());
      EXPECT_GE(report.drop_rate(), 0.0);
      EXPECT_LE(report.drop_rate(), 1.0);
      EXPECT_GE(report.max_queue_depth, 1u);
      EXPECT_GT(report.max_link_utilization, 0.0);
      EXPECT_LE(report.max_link_utilization, 1.0 + 1e-9);
      EXPECT_GT(report.duration_ns, 0u);
      EXPECT_GT(report.forwarding.mod_operations,
                report.forwarding.packets);  // multi-hop routes
    }
  }
}

TEST(SimRunner, FixedSeedIsBitIdenticalAcrossRunsAndThreadCounts) {
  const scenario::ScenarioSpec* base =
      scenario::find_scenario("torus4x4/hotspot");
  ASSERT_NE(base, nullptr);
  const scenario::ScenarioSpec spec =
      small_spec(*base, scenario::TrafficPattern::kHotspot);

  sim::SimOptions options;
  const sim::SimReport first = sim::run_sim_scenario(spec, options);
  const sim::SimReport again = sim::run_sim_scenario(spec, options);
  EXPECT_EQ(first, again) << "same seed, same options: report must be "
                             "bit-identical across runs";

  // Route compilation sharded across more threads must not change a
  // single simulated outcome (the sim itself is single-threaded).
  for (const unsigned threads : {2u, 4u}) {
    sim::SimOptions threaded = options;
    threaded.compile_threads = threads;
    const sim::SimReport report = sim::run_sim_scenario(spec, threaded);
    EXPECT_EQ(first, report)
        << "compile_threads=" << threads << " changed the simulated report";
  }
}

TEST(SimRunner, RejectsZeroQueueCapacity) {
  const scenario::ScenarioSpec* base =
      scenario::find_scenario("torus4x4/hotspot");
  ASSERT_NE(base, nullptr);
  const scenario::ScenarioSpec spec =
      small_spec(*base, scenario::TrafficPattern::kHotspot);
  sim::SimOptions options;
  options.queue_capacity = 0;
  options.ecn_threshold = 0;
  EXPECT_THROW((void)sim::run_sim_scenario(spec, options),
               hp::core::ContractViolation);
}

TEST(SimRunner, RejectsEcnThresholdBeyondQueueCapacity) {
  // A mark threshold the queue can never reach silently disables ECN;
  // better a loud contract violation than a knob that does nothing.
  const scenario::ScenarioSpec* base =
      scenario::find_scenario("torus4x4/hotspot");
  ASSERT_NE(base, nullptr);
  const scenario::ScenarioSpec spec =
      small_spec(*base, scenario::TrafficPattern::kHotspot);
  sim::SimOptions options;
  options.queue_capacity = 32;
  options.ecn_threshold = 33;
  EXPECT_THROW((void)sim::run_sim_scenario(spec, options),
               hp::core::ContractViolation);
}

TEST(SimRunner, SegmentedRoutesSimulateWithWaypointParity) {
  // Deep ring paths outgrow one 64-bit label, so their sim walk must
  // re-label at waypoints exactly like forward_segmented does.
  scenario::ScenarioSpec spec;
  spec.name = "ring48/uniform";
  spec.family = scenario::TopologyFamily::kRing;
  spec.a = 48;
  spec.traffic.pattern = scenario::TrafficPattern::kUniformRandom;
  spec.traffic.packets = 1024;
  spec.traffic.max_pairs = 96;
  spec.traffic.seed = 3;

  const sim::SimReport report = sim::run_sim_scenario(spec);
  EXPECT_GT(report.forwarding.segmented_packets, 0u)
      << "ring48 should need multi-segment routes";
  EXPECT_GT(report.forwarding.segment_swaps, 0u);
  EXPECT_EQ(report.forwarding.wrong_egress, 0u)
      << "waypoint re-labels diverged from the compiled expectation";
  EXPECT_EQ(report.forwarding.ttl_expired, 0u);
}

TEST(SimRunner, SingleLinkSaturationFillsQueueDropsAndSaturatesWire) {
  // Two routers, one 10 Mbps duplex link; sources inject at 1000 Mbps
  // => offered load is 100x capacity.  The egress queue must grow to
  // its cap, tail-drop the excess and keep the wire ~100% busy.
  hp::netsim::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_duplex_link(a, b, /*capacity_mbps=*/10.0, /*delay_ms=*/0.1);
  scenario::BuiltFabric fabric(std::move(topo));

  scenario::TrafficParams traffic;
  traffic.pattern = scenario::TrafficPattern::kUniformRandom;
  traffic.packets = 512;
  traffic.max_pairs = 4;
  traffic.seed = 9;
  const scenario::PacketStream stream =
      scenario::generate_traffic(fabric, traffic);

  sim::SimOptions options;
  options.source_rate_mbps = 1000.0;
  options.queue_capacity = 16;
  options.ecn_threshold = 8;
  options.flow_packets = 256;
  const sim::SimReport report = sim::SimRunner(options).run(fabric, stream);

  EXPECT_EQ(report.max_queue_depth, options.queue_capacity)
      << "queue should grow exactly to its cap under sustained overload";
  EXPECT_GT(report.forwarding.dropped_packets, 0u);
  EXPECT_GT(report.drop_rate(), 0.5) << "100x overload must shed most load";
  EXPECT_GT(report.max_link_utilization, 0.9)
      << "the bottleneck wire should be busy almost the whole run";
  EXPECT_LE(report.max_link_utilization, 1.0 + 1e-9);
  EXPECT_GT(report.ecn_marked, 0u);
  EXPECT_EQ(report.forwarding.wrong_egress, 0u);
}

// --- wiring inputs that cannot become ticks ------------------------------

/// Two routers joined by one duplex link with the given delay, carrying
/// a little uniform traffic through SimRunner.
sim::SimReport run_two_routers(double delay_ms,
                               const sim::SimOptions& options = {}) {
  hp::netsim::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_duplex_link(a, b, /*capacity_mbps=*/100.0, delay_ms);
  scenario::BuiltFabric fabric(std::move(topo));
  scenario::TrafficParams traffic;
  traffic.packets = 64;
  traffic.max_pairs = 2;
  traffic.seed = 1;
  const scenario::PacketStream stream =
      scenario::generate_traffic(fabric, traffic);
  return sim::SimRunner(options).run(fabric, stream);
}

/// `run` must throw a ContractViolation whose message names `field`.
void expect_violation_naming(const std::function<void()>& run,
                             const std::string& field) {
  try {
    run();
    ADD_FAILURE() << "no ContractViolation for " << field;
  } catch (const hp::core::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(SimRunner, RejectsNanLinkDelay) {
  expect_violation_naming(
      [] {
        (void)run_two_routers(std::numeric_limits<double>::quiet_NaN());
      },
      "delay_ms");
}

TEST(SimRunner, RejectsLinkDelayBeyondTickRange) {
  expect_violation_naming([] { (void)run_two_routers(1e12); }, "delay_ms");
}

TEST(SimRunner, RejectsSourceRateWhosePacketGapLeavesTickRange) {
  sim::SimOptions options;
  options.source_rate_mbps = 1e-12;
  expect_violation_naming([&] { (void)run_two_routers(0.01, options); },
                          "source_rate_mbps");
}

TEST(SimRunner, NegativeLinkDelayClampsToZero) {
  const sim::SimReport negative = run_two_routers(-5.0);
  const sim::SimReport zero = run_two_routers(0.0);
  EXPECT_EQ(negative, zero);
  EXPECT_GT(zero.forwarding.packets, 0u);
}

TEST(PacketSim, RejectsDepartureRingsBeyondTheSlotCap) {
  hp::netsim::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_duplex_link(a, b, /*capacity_mbps=*/100.0, /*delay_ms=*/0.01);
  const scenario::BuiltFabric fabric(std::move(topo));
  const hp::polka::CompiledFabric& fast = fabric.compiled();
  std::vector<std::uint32_t> node_offset(fast.node_count() + 1, 0);
  std::vector<std::uint32_t> port_channel;
  std::vector<sim::Channel> channels;
  for (std::size_t node = 0; node < fast.node_count(); ++node) {
    for (std::uint32_t port = 0; port < fast.port_count(node); ++port) {
      std::uint32_t ch = sim::PacketSim::kNoChannel;
      if (fast.neighbor(node, port) != hp::polka::CompiledFabric::kNoNode) {
        ch = static_cast<std::uint32_t>(channels.size());
        sim::Channel channel;
        channel.queue_capacity = 1u << 27;  // two of these: 2^28 slots
        channels.push_back(channel);
      }
      port_channel.push_back(ch);
    }
    node_offset[node + 1] = static_cast<std::uint32_t>(port_channel.size());
  }
  ASSERT_EQ(channels.size(), 2u);
  expect_violation_naming(
      [&] {
        const sim::PacketSim engine(fast, channels, node_offset,
                                    port_channel);
      },
      "queue_capacity");
}

}  // namespace
