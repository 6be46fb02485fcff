#pragma once
// SimReport: the timed-simulation counterpart of ScenarioReport.
//
// A SimReport embeds a ScenarioReport (so every consumer of replay
// reports -- benches, CLIs, CI artifacts -- reads simulated runs with
// the same fields) and adds what only a timed data plane can know: the
// flow-completion-time distribution, drop rate, ECN marks, queue
// high-water marks and link utilization.
//
// FCT percentiles are nearest-rank statistics over the *retained
// sample vector*, computed on demand and never stored.  Every field is
// derived from integer event timestamps, so a fixed scenario seed
// reproduces a bit-identical report on every run.  One run makes one
// report; nothing merges SimReports.

#include <cstdint>
#include <vector>

#include "scenario/runner.hpp"
#include "sim/packet_sim.hpp"
#include "sim/transport.hpp"

namespace hp::sim {

struct SimReport {
  /// Replay-shaped view of the simulated forwarding work.  `packets`
  /// counts packets whose walk terminated (delivered or ttl-killed);
  /// tail-dropped packets land in `dropped_packets`.  `seconds` is
  /// *simulated* time (duration_ns / 1e9) -- deterministic, unlike the
  /// wall clock replay stores there -- so packets_per_sec() reads as
  /// simulated goodput.
  scenario::ScenarioReport forwarding;

  std::size_t flows = 0;
  std::size_t completed_flows = 0;  ///< every packet delivered
  std::size_t ecn_marked = 0;
  std::uint32_t max_queue_depth = 0;   ///< deepest egress queue seen
  double max_link_utilization = 0.0;   ///< busiest link's busy fraction
  double mean_link_utilization = 0.0;  ///< across links that carried traffic
  Tick duration_ns = 0;  ///< simulated time of the last event

  /// FCT of each completed flow (ns), in completion order.  Kept raw so
  /// any percentile can be read from it.
  std::vector<Tick> fct_ns;

  /// Closed-loop outcome (all-zero with `enabled` false on open-loop
  /// runs).
  TransportReport transport;

  /// Delivered first-copy payload over offered payload (1.0 when the
  /// transport was off or nothing was offered).
  [[nodiscard]] double goodput_fraction() const noexcept {
    return transport.offered_bytes == 0
               ? 1.0
               : static_cast<double>(transport.goodput_bytes) /
                     static_cast<double>(transport.offered_bytes);
  }

  /// Nearest-rank percentile of the completed-flow FCTs: the
  /// ceil(q * n)-th order statistic (0 when no flow completed).  `q`
  /// must lie in [0, 1]; anything else, NaN included, throws
  /// core::ContractViolation.
  [[nodiscard]] Tick fct_percentile_ns(double q) const;
  [[nodiscard]] Tick fct_p50_ns() const { return fct_percentile_ns(0.50); }
  [[nodiscard]] Tick fct_p95_ns() const { return fct_percentile_ns(0.95); }

  /// Tail drops over injected packets (0 when nothing was injected).
  [[nodiscard]] double drop_rate() const noexcept {
    const double injected = static_cast<double>(
        forwarding.packets + forwarding.dropped_packets);
    return injected == 0.0
               ? 0.0
               : static_cast<double>(forwarding.dropped_packets) / injected;
  }

  friend bool operator==(const SimReport&, const SimReport&) = default;
};

}  // namespace hp::sim
