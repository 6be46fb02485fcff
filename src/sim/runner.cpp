#include "sim/runner.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/failover_playback.hpp"

namespace hp::sim {

namespace {

constexpr std::size_t kNoFlow = static_cast<std::size_t>(-1);

/// A wiring input in nanoseconds as a Tick, rounded to nearest.
/// Negative values clamp to 0; NaN, infinities and values above 2^53 ns
/// (~104 simulated days, where doubles stop holding every integer)
/// throw a ContractViolation naming `field` instead of reaching
/// llround out of range.
Tick checked_ticks(double ns, const char* field) {
  constexpr double kMaxNs = 9007199254740992.0;  // 2^53
  if (!std::isfinite(ns) || ns > kMaxNs) {
    throw core::ContractViolation(
        std::string("SimRunner: ") + field + " gives " + std::to_string(ns) +
        " ns, not a finite tick within 2^53 ns");
  }
  return ns <= 0.0 ? 0 : static_cast<Tick>(std::llround(ns));
}

/// Serialization delay of one packet on a link, in integer ns
/// (clamped to >= 1 so a zero capacity cannot stall time).
Tick serialize_ns(std::uint64_t packet_bytes, double capacity_mbps,
                  const char* field) {
  if (capacity_mbps <= 0.0) return 1;
  const double bits = static_cast<double>(packet_bytes) * 8.0;
  // capacity_mbps is bits per microsecond; scale to nanoseconds.
  return std::max<Tick>(1, checked_ticks(bits * 1000.0 / capacity_mbps,
                                         field));
}

}  // namespace

SimReport SimRunner::run(scenario::BuiltFabric& fabric,
                         const scenario::PacketStream& stream) const {
  HP_CHECK(options_.queue_capacity > 0,
           "SimOptions: queue_capacity must be positive");
  HP_CHECK(options_.ecn_threshold <= options_.queue_capacity,
           "SimOptions: ecn_threshold beyond queue_capacity can never mark");
  const polka::CompiledFabric& fast = fabric.compiled();
  const netsim::Topology& topo = fabric.topology();
  const std::size_t n = fast.node_count();

  obs::MetricRegistry* const registry = options_.metrics;

  // Phase timer: each emplace closes the previous phase's event and
  // opens the next (TraceScope records on destruction).
  std::optional<obs::TraceScope> phase;
  phase.emplace(options_.trace, "sim.wire", "sim");

  // --- wire the channels: one per directed router adjacency ----------
  std::vector<std::uint32_t> node_offset(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    node_offset[i + 1] = node_offset[i] + fast.port_count(i);
  }
  std::vector<std::uint32_t> port_channel(node_offset[n],
                                          PacketSim::kNoChannel);
  std::vector<Channel> channels;
  // Directed topology pair -> channel index, so the failure schedule
  // below can take the physical wire down at the right tick.
  std::unordered_map<std::uint64_t, std::uint32_t> channel_of;
  for (std::size_t node = 0; node < n; ++node) {
    for (std::uint32_t port = 0; port < fast.port_count(node); ++port) {
      const std::uint32_t peer = fast.neighbor(node, port);
      if (peer == polka::CompiledFabric::kNoNode) continue;
      const auto link = topo.link_between(fabric.topo_index(node),
                                          fabric.topo_index(peer));
      if (!link) {
        throw std::logic_error(
            "SimRunner: fabric wiring names a link the topology lacks");
      }
      const netsim::Link& l = topo.link(*link);
      Channel ch;
      ch.latency_ns = checked_ticks(l.delay_ms * 1e6, "delay_ms");
      ch.serialize_ns =
          serialize_ns(options_.packet_bytes, l.capacity_mbps, "capacity_mbps");
      ch.queue_capacity = options_.queue_capacity;
      ch.ecn_threshold = options_.ecn_threshold;
      channel_of.emplace(
          netsim::node_pair_key(fabric.topo_index(node),
                                fabric.topo_index(peer)),
          static_cast<std::uint32_t>(channels.size()));
      port_channel[node_offset[node] + port] =
          static_cast<std::uint32_t>(channels.size());
      channels.push_back(ch);
    }
  }

  SimConfig config;
  config.max_hops = options_.max_hops;
  config.metrics = registry;
  config.recorder = options_.recorder;
  PacketSim sim(fast, std::move(channels), std::move(node_offset),
                std::move(port_channel), std::move(config));

  phase.emplace(options_.trace, "sim.schedule", "sim");

  // --- pass 1: the unsplit injection schedule -------------------------
  // A flow is up to flow_packets consecutive packets of one pair (in
  // stream emission order); flow k starts k * flow_gap_ns after t = 0
  // and its source injects back-to-back at source_rate_mbps.  The
  // per-packet ticks are computed first and reused verbatim below, so
  // the failure schedule (whose fractions map onto the last injection
  // tick) cannot perturb packet timing -- a protected and an
  // unprotected run offer the exact same load.
  const Tick src_gap =
      serialize_ns(options_.packet_bytes, options_.source_rate_mbps,
                   "source_rate_mbps");
  std::vector<Tick> inject_at(stream.size(), 0);
  Tick last_inject = 0;
  // The same flow boundaries, recorded for the closed-loop branch: the
  // transport opens one sender per pass-1 flow (same start tick, same
  // pacing) and lets the window -- not the schedule -- decide sends.
  struct FlowDef {
    std::uint32_t lane = 0;
    std::uint32_t source = 0;
    Tick start = 0;
    std::uint32_t packets = 0;
  };
  std::vector<FlowDef> flow_defs;
  {
    struct Cadence {
      std::size_t injected = 0;
      Tick next_inject = 0;
      std::size_t def = kNoFlow;  ///< index into flow_defs
    };
    std::vector<Cadence> cadence(stream.pairs.size());  // by lane
    for (std::size_t i = 0; i < stream.size(); ++i) {
      Cadence& c = cadence[stream.pair[i]];
      if (c.def == kNoFlow || c.injected >= options_.flow_packets) {
        const Tick start =
            static_cast<Tick>(flow_defs.size()) * options_.flow_gap_ns;
        c = {0, start, flow_defs.size()};
        flow_defs.push_back({stream.pair[i], stream.ingress[i], start, 0});
      }
      inject_at[i] = c.next_inject;
      last_inject = std::max(last_inject, inject_at[i]);
      ++c.injected;
      c.next_inject += src_gap;
      ++flow_defs[c.def].packets;
    }
  }

  // --- route epochs: each lane's stream route, then its failovers ----
  // Epoch 0 is the lane's stream route.  Each played event takes the
  // physical wires down (or up) at its tick, and every lane it
  // rerouted adopts the new route one control-plane latency later --
  // switchover_latency_ns for a hitless backup swap,
  // repair_latency_ns for a recompile.  Packets the source emits
  // before the adoption tick still carry the dead route and die at the
  // wire: that gap, times the offered rate, IS the
  // packets-lost-per-failure the reports compare.
  std::vector<std::vector<RouteEpoch>> epochs(stream.pairs.size());
  for (std::uint32_t lane = 0; lane < stream.pairs.size(); ++lane) {
    RouteEpoch base;
    base.ref = lane < stream.seg_refs.size() ? stream.seg_refs[lane]
                                             : polka::SegmentRef{};
    base.expected = stream.pairs[lane].expected;
    epochs[lane].push_back(base);
  }
  // Every packet of a lane carries its route's first label; walking
  // backwards leaves the lane's first packet's label in epoch 0.
  for (std::size_t i = stream.size(); i-- > 0;) {
    epochs[stream.pair[i]].front().label = stream.labels[i];
  }
  // Failure rewrites pool fresh segment lists on a private copy -- the
  // caller's stream is never mutated (contract of run()).
  scenario::PacketStream pool;
  pool.seg_labels = stream.seg_labels;
  pool.seg_waypoints = stream.seg_waypoints;
  std::size_t swapped_pairs = 0;
  std::size_t lazy_repairs = 0;
  std::size_t unroutable_pairs = 0;
  std::size_t window_recompiles = 0;
  std::size_t rerouted_pairs = 0;
  if (!options_.failures.empty() || options_.protection_k > 0) {
    if (options_.protection_k > 0) {
      (void)fabric.enable_protection(options_.protection_k);
    }
    scenario::FailoverPlayback playback(fabric, stream.pairs,
                                        options_.failures);
    while (!playback.done()) {
      const scenario::FailoverEvent ev = playback.step();
      if (ev.duplicate) continue;
      const scenario::LinkFailure& failure = ev.failure;
      const Tick at = static_cast<Tick>(std::llround(
          failure.at_fraction * static_cast<double>(last_inject)));
      for (const std::uint64_t key :
           {netsim::node_pair_key(failure.a, failure.b),
            netsim::node_pair_key(failure.b, failure.a)}) {
        if (const auto it = channel_of.find(key); it != channel_of.end()) {
          sim.schedule_link_state(at, it->second, failure.restore);
        }
      }
      for (const scenario::LaneReroute& r : ev.rerouted) {
        const Tick latency = r.kind == scenario::RerouteKind::kSwap
                                 ? options_.switchover_latency_ns
                                 : options_.repair_latency_ns;
        epochs[r.lane].push_back(
            {at + latency, r.route->segments.labels.front(),
             scenario::append_segments(pool, r.route->segments),
             r.route->expected});
      }
      rerouted_pairs += ev.rerouted.size();
      swapped_pairs += ev.count(scenario::RerouteKind::kSwap);
      lazy_repairs += ev.count(scenario::RerouteKind::kLazyRepair);
      unroutable_pairs += ev.severed.size();
      window_recompiles += ev.window_recompiles;
    }
    // Events land in tick order but the two control-plane latencies can
    // interleave adoptions; keep each lane's timeline sorted.
    for (std::vector<RouteEpoch>& timeline : epochs) {
      std::ranges::stable_sort(timeline, {}, &RouteEpoch::from);
    }
  }
  sim.set_segment_pool(pool.seg_labels, pool.seg_waypoints);

  std::optional<Transport> transport;
  if (options_.transport.enabled) {
    // --- closed loop: hand the flows to the transport ------------------
    // One transport lane per traffic lane; sends resolve their epoch at
    // the send tick, so a retransmit issued after adoption carries the
    // repaired label.
    transport.emplace(sim, options_.transport, options_.packet_bytes, registry);
    for (std::vector<RouteEpoch>& timeline : epochs) {
      (void)transport->add_lane(std::move(timeline));
    }
    for (const FlowDef& def : flow_defs) {
      (void)transport->add_flow(def.lane, def.source, def.start, src_gap,
                                def.packets);
    }
    transport->arm();
  } else {
    // --- pass 2: register flows and inject ---------------------------
    // Identical to pass 1 except that a lane whose route epoch changed
    // (by adoption tick) force-opens a new flow: the new route's hop
    // count changes the delivery expectation, and a flow's expectation
    // is fixed at registration.  Forced flows keep the lane's cadence,
    // so the packet timing stays exactly pass 1's.
    struct OpenFlow {
      std::uint32_t handle = 0;
      std::size_t injected = 0;
      std::size_t epoch = kNoFlow;  ///< kNoFlow until the lane's first flow
    };
    std::vector<OpenFlow> open(stream.pairs.size());  // by lane
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::uint32_t lane = stream.pair[i];
      const Tick at = inject_at[i];
      const std::size_t e = epoch_at(epochs[lane], at);
      const RouteEpoch& epoch = epochs[lane][e];
      OpenFlow& flow = open[lane];
      if (flow.epoch != e || flow.injected >= options_.flow_packets) {
        flow = {sim.add_flow(epoch.expected), 0, e};
      }
      sim.inject(at, epoch.label, epoch.ref, stream.ingress[i], flow.handle);
      ++flow.injected;
    }
  }

  phase.emplace(options_.trace, "sim.simulate", "sim");
  const SimResult result = sim.run();
  phase.emplace(options_.trace, "sim.report", "sim");

  // --- shape the result into the report -------------------------------
  SimReport report;
  report.forwarding.fold_kernel = fast.kernel();
  report.forwarding.packets =
      result.counters.delivered + result.counters.ttl_expired;
  report.forwarding.mod_operations = result.counters.mod_operations;
  report.forwarding.wrong_egress = result.counters.wrong_egress;
  report.forwarding.dropped_packets = result.counters.dropped;
  report.forwarding.ttl_expired = result.counters.ttl_expired;
  report.forwarding.segmented_packets = result.counters.segmented_packets;
  report.forwarding.segment_swaps = result.counters.segment_swaps;
  report.forwarding.rerouted_pairs = rerouted_pairs;
  report.forwarding.backup_swapped_pairs = swapped_pairs;
  report.forwarding.failover_packets_lost = result.counters.failover_lost;
  report.forwarding.unroutable_pairs = unroutable_pairs;
  report.forwarding.lazy_repaired_pairs = lazy_repairs;
  report.forwarding.window_recompiles = window_recompiles;
  report.duration_ns = result.counters.end_ns;
  // Simulated seconds (deterministic), not wall clock: see SimReport.
  report.forwarding.seconds = static_cast<double>(report.duration_ns) * 1e-9;
  report.ecn_marked = result.counters.ecn_marked;
  obs::Histogram* fct_hist =
      registry != nullptr ? &registry->histogram("sim.fct_ns") : nullptr;
  if (transport.has_value()) {
    // Engine FlowStats count per-epoch injections (retransmits
    // included), so the logical flow facts come from the transport:
    // a flow completes when every distinct sequence arrived, and its
    // FCT spans first send to last first-copy delivery.
    report.flows = transport->flow_count();
    report.completed_flows = transport->completed_flows();
    report.transport = transport->report();
    for (const Tick fct : transport->completed_fct_ns()) {
      report.fct_ns.push_back(fct);
      if (fct_hist != nullptr) fct_hist->record(fct);
    }
  } else {
    report.flows = result.flows.size();
    for (const FlowStat& flow : result.flows) {
      if (!flow.complete()) continue;
      ++report.completed_flows;
      report.fct_ns.push_back(flow.fct_ns());
      if (fct_hist != nullptr) fct_hist->record(flow.fct_ns());
    }
  }
  if (registry != nullptr) {
    registry->counter("sim.flows").add(report.flows);
    registry->counter("sim.completed_flows").add(report.completed_flows);
    if (!options_.failures.empty() || options_.protection_k > 0) {
      // All simulated-schedule derived, so they snapshot identically
      // across runs and thread counts like every other sim.* metric.
      registry->counter("sim.failover.swaps").add(swapped_pairs);
      registry->counter("sim.failover.lazy_repairs").add(lazy_repairs);
      registry->counter("sim.failover.unroutable_pairs").add(unroutable_pairs);
      registry->counter("sim.failover.window_recompiles")
          .add(window_recompiles);
    }
  }
  double util_sum = 0.0;
  std::size_t util_links = 0;
  for (const LinkStat& link : result.links) {
    report.max_queue_depth =
        std::max(report.max_queue_depth, link.max_queue_depth);
    const double util = link.utilization(report.duration_ns);
    report.max_link_utilization = std::max(report.max_link_utilization, util);
    if (link.forwarded != 0 || link.tail_drops != 0) {
      util_sum += util;
      ++util_links;
    }
  }
  if (util_links != 0) {
    report.mean_link_utilization = util_sum / static_cast<double>(util_links);
  }
  return report;
}

SimReport run_sim_scenario(const scenario::ScenarioSpec& spec,
                           const SimOptions& options) {
  scenario::BuiltFabric fabric(scenario::build_topology(spec));
  fabric.set_observability(options.metrics, options.trace);
  // Precompile every route up front (sharded across compile_threads);
  // generate_traffic then reuses the cache instead of compiling lazily.
  fabric.compile_all_pairs(options.compile_threads);
  const scenario::PacketStream stream =
      scenario::generate_traffic(fabric, spec.traffic);
  return SimRunner(options).run(fabric, stream);
}

}  // namespace hp::sim
