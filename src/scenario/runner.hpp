#pragma once
// ScenarioRunner: sharded multi-threaded replay of a packet stream.
//
// The stream's per-packet lane indices are cut into one contiguous
// slice per worker thread; each worker reads every packet's label,
// ingress and expectation from its lane record, drives
// CompiledFabric::forward_batch (or forward_batch_segmented, for lanes
// whose route pools several labels) with private scratch buffers and
// counters, and the counters are merged after join.  The compiled
// fabric and the lane table are immutable during a replay, so workers
// share them without synchronization.  An optional link-failure
// schedule splits the stream into epochs: at each failure point the
// affected routes are recompiled against the degraded topology (or
// swapped to pre-installed backups) and each rerouted lane's record
// takes the new route -- including a fresh segment list when the
// detour outgrows one 64-bit label -- so the not-yet-replayed packets
// of that lane carry it.  Only lanes that lose connectivity are
// dropped and counted.  Packets a hop cap kills mid-flight are
// reported as ttl_expired, never as deliveries.

#include <cstdint>
#include <span>
#include <vector>

#include "polka/fastpath.hpp"
#include "polka/label.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/traffic.hpp"

namespace hp::obs {
class MetricRegistry;
class TraceSink;
}  // namespace hp::obs

namespace hp::scenario {

/// One scheduled duplex-link event: a failure, or -- when `restore` is
/// set -- the link coming back up (flap schedules alternate the two).
struct LinkFailure {
  double at_fraction = 0.5;   ///< stream position in [0, 1)
  netsim::NodeIndex a = 0;    ///< topology endpoints of the duplex link
  netsim::NodeIndex b = 0;
  bool restore = false;       ///< true: the link comes back up
};

struct RunnerOptions {
  unsigned threads = 1;          ///< worker count (0 behaves as 1)
  std::size_t batch_size = 1024; ///< packets per forward_batch call
  std::size_t max_hops = 64;
  std::vector<LinkFailure> failures;  ///< applied in at_fraction order
  /// Pre-install up to this many link-disjoint backup routes per pair
  /// before the replay starts (BuiltFabric::enable_protection).  With
  /// protection on, a failure swaps affected pairs to their backups in
  /// O(1) label copies instead of recompiling; only pairs whose whole
  /// protection set died recompile lazily.  0 keeps the eager repair.
  unsigned protection_k = 0;
  /// Convergence-loss model: each recompiled (not swapped!) pair costs
  /// this many of its next packets, dropped inside the failure window.
  /// 0 (the default) keeps the historic loss-free instant repair.
  std::size_t loss_window_per_recompile = 0;
  /// Optional observability taps (borrowed).  Workers record replay.*
  /// counters at flush/slice granularity -- never per packet -- so the
  /// enabled hot path stays within the <2% pps budget the overhead
  /// bench pins; the trace sink gets one replay.epoch / replay.repair
  /// event per phase.
  obs::MetricRegistry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;
};

/// Merged counters of one replay.
///
/// Shard-merge schema (merge_from): a full report is the merge of
/// per-shard partial reports, and the rules are part of the type's
/// contract because two layers build on them (replay_shards' worker
/// merge and ScenarioRunner's epoch merge):
///  * every packet/work counter (packets .. segment_swaps) SUMS --
///    shards partition the stream, so counts are disjoint;
///  * `seconds` SUMS, which is correct only for *sequential* partials
///    (epochs).  Parallel shard wall clock is measured around the
///    join by replay_shards itself -- never sum concurrent partials;
///  * `fold_kernel` must MATCH across partials (one compiled fabric
///    per run); merge_from keeps the destination's value;
///  * distribution metrics (e.g. FCT percentiles) are NOT part of this
///    struct precisely because they cannot be merged as counters: a
///    p95 must be recomputed from pooled samples, never averaged.
struct ScenarioReport {
  std::size_t packets = 0;         ///< packets actually forwarded
  std::size_t mod_operations = 0;  ///< data-plane work (== total hops)
  std::size_t wrong_egress = 0;    ///< egress diverged from the pair's plan
  std::size_t rerouted_pairs = 0;  ///< pairs recompiled after failures
  std::size_t dropped_packets = 0; ///< pair unroutable after a failure
  std::size_t ttl_expired = 0;     ///< packets killed by the hop cap
  /// Segment-routing instrumentation: packets replayed through the
  /// segmented walk (their pair needed > 1 label) and the label swaps
  /// their routes encode.  Both zero on fully single-label runs.
  std::size_t segmented_packets = 0;
  std::size_t segment_swaps = 0;
  /// Failover accounting (all zero on failure-free runs):
  std::size_t backup_swapped_pairs = 0;   ///< pairs moved via backup swap
  std::size_t failover_packets_lost = 0;  ///< loss-window + severed drops
  std::size_t unroutable_pairs = 0;       ///< pairs severed, no path left
  std::size_t lazy_repaired_pairs = 0;    ///< pairs recompiled lazily
  std::size_t window_recompiles = 0;      ///< recompiles inside fail events
  /// The per-hop reduction kernel the replayed fabric ran (PCLMUL
  /// Barrett vs slice-by-8 table -- see polka/fastpath.hpp), so replay
  /// reports say which data-plane path produced their numbers.
  polka::FoldKernel fold_kernel = polka::FoldKernel::kTable;
  double seconds = 0.0;            ///< wall clock of the forwarding epochs

  [[nodiscard]] double packets_per_sec() const noexcept {
    return seconds > 0.0 ? static_cast<double>(packets) / seconds : 0.0;
  }

  [[nodiscard]] const char* fold_kernel_name() const noexcept {
    return polka::to_string(fold_kernel);
  }

  /// Fold a partial report in, per the shard-merge schema above.
  void merge_from(const ScenarioReport& partial) noexcept {
    packets += partial.packets;
    mod_operations += partial.mod_operations;
    wrong_egress += partial.wrong_egress;
    rerouted_pairs += partial.rerouted_pairs;
    dropped_packets += partial.dropped_packets;
    ttl_expired += partial.ttl_expired;
    segmented_packets += partial.segmented_packets;
    segment_swaps += partial.segment_swaps;
    backup_swapped_pairs += partial.backup_swapped_pairs;
    failover_packets_lost += partial.failover_packets_lost;
    unroutable_pairs += partial.unroutable_pairs;
    lazy_repaired_pairs += partial.lazy_repaired_pairs;
    window_recompiles += partial.window_recompiles;
    seconds += partial.seconds;
  }

  friend bool operator==(const ScenarioReport&,
                         const ScenarioReport&) noexcept = default;
};

/// The stream's pooled segment arrays, sliced by each lane's `ref`.
struct SegmentTable {
  std::span<const polka::RouteLabel> labels;
  std::span<const std::uint32_t> waypoints;
};

/// Low-level sharded replay: packet i travels lane index[i], carrying
/// that lane's label (or pooled segment slice) from its ingress, and
/// is checked against the lane's expectation.  `alive`, when nonempty,
/// has one entry per lane and marks lanes whose packets are skipped
/// (counted as dropped).  Throws std::invalid_argument, before any
/// worker starts, when an index names no lane, `alive` is nonempty but
/// not lanes.size() long, or batch_size is 0.
/// `metrics`, when set, receives replay.* counters (packets and folds
/// added per batch flush, outcome counters per slice) recorded
/// concurrently by every worker -- the registry's sharded hot path is
/// exactly what absorbs that.
ScenarioReport replay_shards(const polka::CompiledFabric& fabric,
                             std::span<const TrafficPair> lanes,
                             std::span<const std::uint32_t> index,
                             std::span<const std::uint8_t> alive,
                             SegmentTable pools, unsigned threads,
                             std::size_t batch_size, std::size_t max_hops = 64,
                             obs::MetricRegistry* metrics = nullptr);

/// Replays a stream over its fabric, applying the failure schedule.
/// Failures reroute lanes in place: their records take the new route,
/// and new segment lists are appended to the stream's pools.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(RunnerOptions options = {})
      : options_(std::move(options)) {}

  [[nodiscard]] const RunnerOptions& options() const noexcept {
    return options_;
  }

  ScenarioReport run(BuiltFabric& fabric, PacketStream& stream) const;

 private:
  RunnerOptions options_;
};

}  // namespace hp::scenario
