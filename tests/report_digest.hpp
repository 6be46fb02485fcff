#pragma once
// FNV-1a digests of the deterministic parts of scenario and sim
// reports, shared by the golden tests (failover_playback_test,
// sim_obs_test).  Only integer counters, FCT samples and the transport
// block are hashed: wall-clock `seconds`, `fold_kernel` and the derived
// utilization doubles stay out, so a pinned constant holds under both
// fold kernels and every compiler.

#include <cstdint>
#include <string_view>

#include "scenario/runner.hpp"
#include "sim/report.hpp"

namespace hp::golden {

/// FNV-1a over little-endian 64-bit words (and raw bytes for strings).
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) add_byte((v >> (8 * byte)) & 0xFFu);
  }
  void add(std::string_view bytes) {
    add(bytes.size());
    for (const char c : bytes) add_byte(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void add_byte(std::uint64_t b) {
    hash_ ^= b;
    hash_ *= 1099511628211ULL;
  }

  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// Every integer counter of a ScenarioReport; `seconds` (wall clock or
/// simulated time derived from duration_ns) and `fold_kernel` stay out.
inline void add_counters(Digest& d, const scenario::ScenarioReport& r) {
  for (const std::size_t v :
       {r.packets, r.mod_operations, r.wrong_egress, r.rerouted_pairs,
        r.dropped_packets, r.ttl_expired, r.segmented_packets,
        r.segment_swaps, r.backup_swapped_pairs, r.failover_packets_lost,
        r.unroutable_pairs, r.lazy_repaired_pairs, r.window_recompiles}) {
    d.add(v);
  }
}

inline std::uint64_t digest(const scenario::ScenarioReport& r) {
  Digest d;
  add_counters(d, r);
  return d.value();
}

/// Integer fields, FCT samples and the transport block of a SimReport;
/// the utilization doubles are derived and stay out.
inline std::uint64_t digest(const sim::SimReport& r) {
  Digest d;
  add_counters(d, r.forwarding);
  for (const std::uint64_t v :
       {std::uint64_t{r.flows}, std::uint64_t{r.completed_flows},
        std::uint64_t{r.ecn_marked}, std::uint64_t{r.max_queue_depth},
        std::uint64_t{r.duration_ns}}) {
    d.add(v);
  }
  d.add(std::uint64_t{r.fct_ns.size()});
  for (const sim::Tick fct : r.fct_ns) d.add(fct);
  const sim::TransportReport& tp = r.transport;
  for (const std::uint64_t v :
       {std::uint64_t{tp.enabled}, tp.packets_sent, tp.retransmits,
        tp.timeouts, tp.ecn_cwnd_cuts, tp.drop_cwnd_cuts,
        tp.spurious_deliveries, tp.abandoned_flows, tp.offered_bytes,
        tp.goodput_bytes}) {
    d.add(v);
  }
  return d.value();
}

}  // namespace hp::golden
