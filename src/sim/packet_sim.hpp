#pragma once
// Event-driven packet-level data plane over a CompiledFabric.
//
// Replay (scenario/runner.hpp) measures pure forwarding throughput:
// every packet walks its whole route in one go, so queueing, latency
// and loss are invisible.  PacketSim adds the missing time axis while
// keeping the exact same forwarding decisions: at every hop the packet
// folds its label through CompiledFabric::port_of (the PCLMUL Barrett
// or slice-by-8 table kernel, whichever the fabric runs) and moves to
// CompiledFabric::neighbor(node, port) -- the hop sequence is
// bit-identical to forward_one / forward_segmented, including waypoint
// re-labels on multi-segment routes.
//
// The timing model is classic store-and-forward output queueing, in
// the style of hansungk/netsim's Sim { EventQueue, Router, Channel,
// Stat }:
//
//  * each directed router adjacency is a Channel with a propagation
//    latency and a per-packet serialization delay (wire size over link
//    bandwidth);
//  * the channel's upstream side is a finite FIFO egress queue: a
//    packet routed onto a busy channel waits behind the packets
//    already committed; arriving at a full queue is a tail drop, and
//    crossing `ecn_threshold` marks it (and tells the transport).  A
//    packet's departure tick is known when it is committed, so a
//    freed slot is not an event: each channel keeps a ring of pending
//    departures (queue_capacity slots), each stamped with the sequence
//    number an event pushed at that point would take, and the next
//    arrival on the channel settles every departure the queue would
//    have popped before it;
//  * per-flow and per-link Stat accumulate delivery times (FCT),
//    queue-depth high-water marks, drops/marks and busy time (link
//    utilization).
//
// Time is integer nanoseconds on an EventQueue (event_queue.hpp: a
// sorted backlog for the injection schedule, a monotone radix queue for
// events in flight); processing is single-threaded and the tie order is
// pinned, so a fixed input schedule produces a bit-identical SimResult
// on every run.

#include <cstdint>
#include <span>
#include <vector>

#include "polka/fastpath.hpp"
#include "polka/label.hpp"
#include "sim/event_queue.hpp"

namespace hp::obs {
class Counter;
class Gauge;
class Histogram;
class MetricRegistry;
class FlightRecorder;
}  // namespace hp::obs

namespace hp::sim {

class Transport;

/// One directed channel: the timing constants of a router-to-router
/// link plus the bounds of its upstream egress queue.
struct Channel {
  Tick latency_ns = 0;    ///< propagation delay
  Tick serialize_ns = 1;  ///< transmission time of one packet
  std::uint32_t queue_capacity = 64;  ///< packets queued or in service
  std::uint32_t ecn_threshold = 48;   ///< mark at/above this depth; 0 = off
};

/// Per-channel accumulated statistics.
struct LinkStat {
  std::uint64_t forwarded = 0;   ///< packets serialized onto the wire
  std::uint64_t tail_drops = 0;  ///< arrivals at a full egress queue
  std::uint64_t failover_drops = 0;  ///< arrivals while the link was down
  std::uint64_t ecn_marks = 0;   ///< enqueues at/above the ECN threshold
  std::uint32_t max_queue_depth = 0;  ///< high-water mark (packets)
  Tick busy_ns = 0;  ///< total time the wire was serializing

  /// Fraction of `duration` the wire was busy (0 when duration == 0).
  [[nodiscard]] double utilization(Tick duration) const noexcept {
    return duration == 0 ? 0.0
                         : static_cast<double>(busy_ns) /
                               static_cast<double>(duration);
  }

  friend bool operator==(const LinkStat&, const LinkStat&) noexcept = default;
};

/// Per-flow accumulated statistics.  A flow is complete when every one
/// of its packets was delivered; its FCT is last delivery - first
/// injection.
struct FlowStat {
  std::uint32_t packets = 0;    ///< injected so far
  std::uint32_t delivered = 0;
  std::uint32_t dropped = 0;    ///< tail-dropped at some queue
  std::uint32_t ttl_expired = 0;
  Tick first_inject = 0;
  Tick last_delivery = 0;

  [[nodiscard]] bool complete() const noexcept {
    return packets > 0 && delivered == packets;
  }
  [[nodiscard]] Tick fct_ns() const noexcept {
    return complete() ? last_delivery - first_inject : 0;
  }

  friend bool operator==(const FlowStat&, const FlowStat&) noexcept = default;
};

/// Why a packet left the simulation without being delivered.  The
/// attached Transport receives the cause so it can distinguish
/// congestion feedback (a tail drop is reported backwards, like a
/// lossless-fabric NACK) from silent losses (a dead wire or a TTL kill
/// gives the sender nothing -- only its retransmission timer notices).
enum class DropCause : std::uint32_t {
  kTailDrop,    ///< egress FIFO full
  kLinkDown,    ///< routed onto a failed channel
  kTtlExpired,  ///< hop cap reached
};

/// Engine-wide knobs.
struct SimConfig {
  std::size_t max_hops = 64;  ///< same hop cap as the replay walks
  /// Observability taps, all optional (borrowed; must outlive run()).
  /// With `metrics` set the engine registers sim.* counters, the
  /// sim.queue_depth histogram and one sim.link.NNNNN.queue_depth gauge
  /// (plus .drops/.ecn counters) per channel; counters and the histogram
  /// land once per run().  Everything recorded
  /// derives from simulated ticks and event order -- never wall clock
  /// -- so a fixed-seed run snapshots bit-identically.
  obs::MetricRegistry* metrics = nullptr;
  /// Hop-level ring for 1-in-N flows (see obs/flight_recorder.hpp).
  obs::FlightRecorder* recorder = nullptr;
};

/// Merged outcome of one PacketSim::run().
struct SimCounters {
  std::size_t injected = 0;
  std::size_t delivered = 0;
  std::size_t dropped = 0;        ///< tail + failover drops
  std::size_t failover_lost = 0;  ///< of `dropped`: arrivals at a dead link
  std::size_t link_down_events = 0;  ///< kLinkDown events processed
  std::size_t ttl_expired = 0;
  std::size_t wrong_egress = 0;   ///< delivery diverged from expectation
  std::size_t mod_operations = 0; ///< label folds == hops walked
  std::size_t ecn_marked = 0;
  std::size_t segmented_packets = 0;  ///< injected with > 1 segment label
  std::size_t segment_swaps = 0;      ///< waypoint re-labels performed
  Tick end_ns = 0;  ///< time of the last processed event

  friend bool operator==(const SimCounters&, const SimCounters&) noexcept =
      default;
};

struct SimResult {
  SimCounters counters;
  std::vector<LinkStat> links;  ///< one per channel
  std::vector<FlowStat> flows;  ///< one per registered flow

  friend bool operator==(const SimResult&, const SimResult&) = default;
};

/// The event-driven engine.  Wire it (channels + the per-port channel
/// map), register flows, inject packets, then run() to drain the event
/// queue.  `fabric` and the pooled segment arrays are borrowed and must
/// outlive run().
class PacketSim {
 public:
  /// Marks a fabric port with no channel behind it (an egress port).
  static constexpr std::uint32_t kNoChannel = 0xFFFFFFFFu;

  /// \param fabric compiled data plane whose kernels make every
  ///   forwarding decision
  /// \param channels one entry per directed router adjacency
  /// \param node_offset size node_count() + 1: node n's ports map
  ///   through port_channel[node_offset[n] .. node_offset[n + 1])
  /// \param port_channel flattened port -> channel map (kNoChannel on
  ///   egress ports); a packet folded onto port p at node n departs on
  ///   channel port_channel[node_offset[n] + p]
  /// Throws std::invalid_argument when the map shape does not match the
  /// fabric or a channel index is out of range, and core::ContractViolation
  /// when the channels' queue_capacity sums to more than 2^27 departure
  /// slots.
  PacketSim(const polka::CompiledFabric& fabric, std::vector<Channel> channels,
            std::vector<std::uint32_t> node_offset,
            std::vector<std::uint32_t> port_channel, SimConfig config = {});

  /// Attach the pooled multi-segment label/waypoint arrays that
  /// injected SegmentRefs index (same layout as scenario::PacketStream
  /// seg_labels/seg_waypoints).  Unnecessary when every injection is
  /// single-label.
  void set_segment_pool(std::span<const polka::RouteLabel> labels,
                        std::span<const std::uint32_t> waypoints);

  /// Register a flow; delivered packets are checked against
  /// `expected` (the pair's replay expectation) and divergences count
  /// as wrong_egress.  Returns the flow handle inject() takes.
  std::uint32_t add_flow(const polka::PacketResult& expected);

  /// Make room for `packets` more inject() calls before run(): the
  /// packet table and the event backlog each grow once.
  void reserve(std::size_t packets);

  /// Schedule one packet: injected at fabric node `source` at time
  /// `at`, carrying `label` (or, when ref.label_count > 1, the pooled
  /// segment list `ref` names -- the first pooled label must equal
  /// `label`, as in a scenario::TrafficPair).  Returns the packet's
  /// index (the handle the transport's feedback carries).  Safe to
  /// call from inside a transport callback while run() drains, which is
  /// how retransmissions are injected.  Throws
  /// std::invalid_argument on a bad source, flow or ref.
  std::uint32_t inject(Tick at, polka::RouteLabel label, polka::SegmentRef ref,
                       std::uint32_t source, std::uint32_t flow);

  /// Schedule a kTimer event at simulated time `at`; when it fires the
  /// engine calls the attached transport's on_timer(at, arg, seq) with
  /// the sequence number this push took, which is returned here.  The
  /// queue never cancels: stale timers are the transport's problem (it
  /// remembers the seq of each flow's live timer).  Throws
  /// std::logic_error when no transport is attached.
  std::uint64_t schedule_timer(Tick at, std::uint32_t arg);

  /// Attach the closed-loop sender (borrowed; nullptr detaches).  The
  /// engine then reports every ECN mark, delivery and loss, and every
  /// kTimer event, straight to it.  Transport::arm() calls this.
  void set_transport(Transport* transport) noexcept { transport_ = transport; }

  /// Schedule the directed channel to go down (up = false) or come
  /// back (up = true) at simulated time `at`.  While a channel is
  /// down, every packet routed onto it is dropped and counted as
  /// failover loss (the wire is gone -- no queueing, no ECN).  Packets
  /// already committed to the wire before `at` still arrive: failing a
  /// link does not destroy in-flight serializations.  Throws
  /// std::invalid_argument on a bad channel index.
  void schedule_link_state(Tick at, std::uint32_t channel, bool up);

  /// Process every pending event; returns the accumulated result.
  /// Resets nothing: a second run() continues from the drained state
  /// (inject more first), which is how arrival schedules can be fed in
  /// phases.  The registry counters mirroring SimCounters and LinkStat
  /// (sim.injected, sim.folds, sim.link.*.drops, ...) and the
  /// sim.in_flight gauge are added once per run(), as the change since
  /// the previous run(); every run() ends with its queues drained, so
  /// the per-link queue_depth gauges read 0.
  SimResult run();

  [[nodiscard]] Tick now() const noexcept { return now_; }

 private:
  struct PacketState {
    std::uint64_t label = 0;     ///< active segment's bits
    polka::SegmentRef ref{};     ///< pooled segments (label_count > 1)
    std::uint32_t seg = 0;       ///< active segment index
    std::uint32_t node = 0;      ///< current / next-arrival node
    std::uint32_t hops = 0;
    std::uint32_t flow = 0;
  };

  struct ChannelState {
    std::uint32_t queued = 0;  ///< waiting + in serialization
    std::uint32_t head = 0;    ///< oldest pending departure, ring-relative
    std::uint32_t ring = 0;    ///< first slot in departures_
    Tick free_at = 0;          ///< when the wire finishes its last commit
  };

  /// A committed packet's end of serialization: the tick its queue
  /// slot frees and the sequence number the queue stamped for it.
  struct Departure {
    Tick at = 0;
    std::uint64_t seq = 0;
  };

  /// Metric handles resolved once at construction (all null when
  /// config_.metrics is null, so the disabled path costs one branch).
  struct ObsHandles {
    obs::Counter* injected = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* tail_drops = nullptr;
    obs::Counter* ttl_expired = nullptr;
    obs::Counter* ecn_marked = nullptr;
    obs::Counter* folds = nullptr;
    obs::Counter* segment_swaps = nullptr;
    obs::Counter* wrong_egress = nullptr;
    obs::Counter* failover_lost = nullptr;
    obs::Counter* link_events = nullptr;
    obs::Gauge* in_flight = nullptr;
    obs::Histogram* queue_depth = nullptr;
    std::vector<obs::Counter*> link_drops;   ///< one per channel
    std::vector<obs::Counter*> link_ecn;     ///< one per channel
  };

  void register_metrics();
  void handle_arrival(Tick t, std::uint64_t seq, std::uint32_t packet);
  void settle(std::uint32_t ch, Tick t, std::uint64_t seq);
  void flush_counters();

  const polka::CompiledFabric& fabric_;
  std::vector<Channel> channels_;
  std::vector<std::uint32_t> node_offset_;
  std::vector<std::uint32_t> port_channel_;
  SimConfig config_;
  std::span<const polka::RouteLabel> pool_labels_;
  std::span<const std::uint32_t> pool_waypoints_;
  std::vector<polka::PacketResult> flow_expected_;
  std::vector<PacketState> packets_;
  std::vector<ChannelState> channel_state_;
  /// Every channel's FIFO of pending departures, one flat vector; the
  /// ring of channel c is queue_capacity slots from channel_state_[c].ring.
  std::vector<Departure> departures_;
  std::vector<char> link_up_;  ///< per channel: 1 while the wire exists
  EventQueue queue_;
  Tick now_ = 0;
  Transport* transport_ = nullptr;  ///< closed-loop feedback sink
  SimResult result_;
  ObsHandles obs_;
  /// Enqueues per queue depth since the last flush (index = depth,
  /// sized max queue_capacity + 1; empty without a registry).
  std::vector<std::uint64_t> depth_counts_;
  /// What the last run() already added to the registry's counters.
  SimCounters flushed_;
  std::vector<LinkStat> flushed_links_;
};

}  // namespace hp::sim
