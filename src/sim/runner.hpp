#pragma once
// SimRunner: feed any scenario through the event-driven data plane.
//
// The replay path answers "how fast can the kernels forward this
// stream"; SimRunner answers "what happens to this stream on real
// links".  It reuses every artifact the scenario engine already
// builds -- the generated topology (whose per-link capacity_mbps /
// delay_ms become Channel timing), the BuiltFabric's compiled routes
// and the PacketStream's labels, pairs and pooled segments -- then
// schedules the stream as timed flows and runs PacketSim to
// completion.  One compiled fabric therefore drives both the
// pure-throughput replay numbers and the congestion-sensitive
// FCT/drop/queue numbers, with bit-identical forwarding decisions.
//
// Flow shaping: the stream's packets are grouped per traffic pair into
// flows of at most `flow_packets` packets (stream emission order is
// preserved).  Flow k starts at k * flow_gap_ns; within a flow the
// source injects back-to-back at `source_rate_mbps`.  Offered load is
// therefore tuned by the gap and the rate -- a gap shorter than a
// flow's service time piles flows up and congests shared links
// (hotspot incast, elephant collisions), a generous gap drains them
// one by one.
//
// Simulation is single-threaded by design: one event heap, one total
// event order, bit-identical reports for a fixed seed regardless of
// how many threads the surrounding process uses (the determinism
// tests pin this, including against `compile_threads`).

#include <cstdint>
#include <vector>

#include "scenario/fabric_builder.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/traffic.hpp"
#include "sim/report.hpp"
#include "sim/transport.hpp"

namespace hp::obs {
class MetricRegistry;
class TraceSink;
class FlightRecorder;
}  // namespace hp::obs

namespace hp::sim {

/// Timing and queueing knobs of a simulated run.
struct SimOptions {
  std::uint64_t packet_bytes = 1500;   ///< wire size of every packet
  double source_rate_mbps = 100.0;     ///< per-source injection line rate
  Tick flow_gap_ns = 50'000;           ///< inter-arrival of flow starts
  std::uint32_t queue_capacity = 64;   ///< per-channel egress FIFO cap
  std::uint32_t ecn_threshold = 48;    ///< mark depth; 0 disables marking
  std::size_t flow_packets = 8;        ///< max packets per flow
  std::size_t max_hops = 64;           ///< same hop cap as replay
  /// Threads for BuiltFabric::compile_all_pairs when run_sim_scenario
  /// precompiles routes (the simulation itself is single-threaded and
  /// its report is identical for every value here).
  unsigned compile_threads = 1;

  // --- failure schedule (all simulated-time deterministic) -----------
  /// Link events, at_fraction mapped onto the injection window (the
  /// last scheduled injection tick).  At each event's tick the directed
  /// channels physically go down (or come back, restore = true):
  /// packets already routed onto a dead wire are failover losses.  The
  /// control plane reacts `switchover_latency_ns` later when a backup
  /// swap serves the pair, `repair_latency_ns` later when it had to
  /// recompile -- packets a source emits inside that window still carry
  /// the dead route and die at the wire, which is exactly the loss gap
  /// hitless protection shrinks.
  std::vector<scenario::LinkFailure> failures;
  /// Closed-loop transport (transport.enabled): instead of replaying
  /// the open-loop schedule verbatim, each flow runs the Transport
  /// sender state machine -- AIMD window, ECN-cut, retransmit-on-drop,
  /// RTO backoff, max-retries abandonment -- and retransmissions
  /// traverse the same compiled fabric.  The failure schedule still
  /// maps its fractions onto the *open-loop* injection window, so an
  /// open and a closed run face the same failure ticks.
  TransportOptions transport;
  /// Pre-install up to k disjoint backups per pair before simulating
  /// (BuiltFabric::enable_protection).  0 leaves the fabric eager.
  unsigned protection_k = 0;
  Tick switchover_latency_ns = 1'000;  ///< label swap from a warm table
  Tick repair_latency_ns = 200'000;    ///< Dijkstra + CRT recompile path

  // --- observability taps (all optional, borrowed) -------------------
  /// Registry for the engine's sim.* metrics plus the runner's
  /// sim.fct_ns histogram and flow counters.  Everything recorded under
  /// it derives from simulated ticks, so fixed-seed snapshots are
  /// bit-identical across runs and thread counts.
  obs::MetricRegistry* metrics = nullptr;
  /// Phase timer sink (sim.wire / sim.schedule / sim.simulate /
  /// sim.report complete events).
  obs::TraceSink* trace = nullptr;
  /// Hop-level flight recorder handed to PacketSim.
  obs::FlightRecorder* recorder = nullptr;
};

/// Runs PacketSim over a built fabric and a generated stream.
class SimRunner {
 public:
  explicit SimRunner(SimOptions options = {}) : options_(options) {}

  [[nodiscard]] const SimOptions& options() const noexcept {
    return options_;
  }

  /// Simulate the stream on the fabric's topology links.  The stream
  /// itself is read-only; failure schedules rewrite labels on private
  /// copies of the segment pools, never on the caller's stream.
  /// \return the merged SimReport; `forwarding.fold_kernel` names the
  ///   kernel that made every per-hop decision.
  [[nodiscard]] SimReport run(scenario::BuiltFabric& fabric,
                              const scenario::PacketStream& stream) const;

 private:
  SimOptions options_;
};

/// One-call path for benches, tests and CLIs: build the registry
/// spec's topology and fabric, precompile all routes
/// (options.compile_threads workers), generate its traffic and
/// simulate it.
[[nodiscard]] SimReport run_sim_scenario(const scenario::ScenarioSpec& spec,
                                         const SimOptions& options = {});

}  // namespace hp::sim
