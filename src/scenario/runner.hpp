#pragma once
// ScenarioRunner: sharded multi-threaded replay of a packet stream.
//
// The stream's parallel arrays are cut into one contiguous slice per
// worker thread; each worker drives CompiledFabric::forward_batch over
// its slice with private scratch buffers and counters, which are merged
// after join.  The compiled fabric is immutable during a replay, so
// workers share it without synchronization.  An optional link-failure
// schedule splits the stream into epochs: at each failure point the
// affected routes are recompiled against the degraded topology and the
// not-yet-replayed packets of those pairs get their new labels --
// including fresh segment lists when the detour outgrows one 64-bit
// label (only pairs that lose connectivity are dropped and counted).
// Packets a hop cap kills mid-flight are reported as ttl_expired, never
// as deliveries.

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

/// Pooled per-pair segment routes for a replay: refs is indexed by the
/// stream's pair lane; a lane whose ref has label_count > 1 replays via
/// CompiledFabric::forward_segmented over the pooled labels/waypoints,
/// every other lane via the packet's own 64-bit label.  Empty refs
/// (the default) means every lane is single-label.
struct SegmentTable {
  std::span<const polka::RouteLabel> labels;
  std::span<const std::uint32_t> waypoints;
  std::span<const polka::SegmentRef> refs;
};

/// Low-level sharded replay of parallel label/ingress arrays.  Each
/// packet's expectation is expected[index[i]]; `alive`, when nonempty,
/// is indexed the same way and marks packets to skip (counted as
/// dropped); `segments.refs`, when nonempty, must cover every lane
/// value.  This is the primitive both ScenarioRunner and
/// core::PolkaService build on.
/// `metrics`, when set, receives replay.* counters (packets and folds
/// added per batch flush, outcome counters per slice) recorded
/// concurrently by every worker -- the registry's sharded hot path is
/// exactly what absorbs that.
ScenarioReport replay_shards(const polka::CompiledFabric& fabric,
                             std::span<const polka::RouteLabel> labels,
                             std::span<const std::uint32_t> ingress,
                             std::span<const std::uint32_t> index,
                             std::span<const polka::PacketResult> expected,
                             std::span<const std::uint8_t> alive,
                             SegmentTable segments, unsigned threads,
                             std::size_t batch_size, std::size_t max_hops = 64,
                             obs::MetricRegistry* metrics = nullptr);

/// Single-label convenience overload (no segment table).
inline ScenarioReport replay_shards(
    const polka::CompiledFabric& fabric,
    std::span<const polka::RouteLabel> labels,
    std::span<const std::uint32_t> ingress,
    std::span<const std::uint32_t> index,
    std::span<const polka::PacketResult> expected,
    std::span<const std::uint8_t> alive, unsigned threads,
    std::size_t batch_size, std::size_t max_hops = 64,
    obs::MetricRegistry* metrics = nullptr) {
  return replay_shards(fabric, labels, ingress, index, expected, alive,
                       SegmentTable{}, threads, batch_size, max_hops, metrics);
}

/// Replays a stream over its fabric, applying the failure schedule.
/// The stream is mutated in place when failures rewrite labels.
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
