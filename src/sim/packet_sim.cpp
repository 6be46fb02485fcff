#include "sim/packet_sim.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/contracts.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/transport.hpp"

namespace hp::sim {

namespace {

/// Event kinds on the engine's queue.
/// A channel's queue slot freeing is not an event: each channel keeps
/// a ring of pending departures that handle_arrival settles lazily.
enum EventKind : std::uint32_t {
  kArrive = 0,    ///< arg = packet index; packet reaches its state's node
  kLinkDown = 1,  ///< arg = channel index; the wire disappears
  kLinkUp = 2,    ///< arg = channel index; the wire comes back
  kTimer = 3,     ///< arg = flow index handed to Transport::on_timer
};

/// Cap on the summed departure-ring slots (16 B each, so 2 GiB): a
/// queue_capacity meant as "unbounded" fails loudly at wiring time
/// instead of in the allocator.
constexpr std::uint64_t kMaxRingSlots = std::uint64_t{1} << 27;

}  // namespace

PacketSim::PacketSim(const polka::CompiledFabric& fabric,
                     std::vector<Channel> channels,
                     std::vector<std::uint32_t> node_offset,
                     std::vector<std::uint32_t> port_channel, SimConfig config)
    : fabric_(fabric),
      channels_(std::move(channels)),
      node_offset_(std::move(node_offset)),
      port_channel_(std::move(port_channel)),
      config_(std::move(config)) {
  const std::size_t n = fabric_.node_count();
  if (node_offset_.size() != n + 1 || node_offset_.front() != 0 ||
      node_offset_.back() != port_channel_.size()) {
    throw std::invalid_argument("PacketSim: node_offset shape mismatch");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (node_offset_[i] > node_offset_[i + 1] ||
        node_offset_[i + 1] - node_offset_[i] != fabric_.port_count(i)) {
      throw std::invalid_argument(
          "PacketSim: node_offset does not match the fabric's port counts");
    }
  }
  for (const std::uint32_t c : port_channel_) {
    if (c != kNoChannel && c >= channels_.size()) {
      throw std::invalid_argument("PacketSim: channel index out of range");
    }
  }
  std::uint64_t slots = 0;
  for (const Channel& ch : channels_) slots += ch.queue_capacity;
  if (slots > kMaxRingSlots) {
    throw core::ContractViolation(
        "PacketSim: queue_capacity summed over " +
        std::to_string(channels_.size()) + " channels is " +
        std::to_string(slots) +
        " departure slots, above the 2^27 the rings may hold");
  }
  result_.links.assign(channels_.size(), LinkStat{});
  flushed_links_.assign(channels_.size(), LinkStat{});
  channel_state_.assign(channels_.size(), ChannelState{});
  departures_.assign(slots, Departure{});
  std::uint32_t ring = 0;
  for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
    channel_state_[ch].ring = ring;
    ring += channels_[ch].queue_capacity;
  }
  link_up_.assign(channels_.size(), 1);
  if (config_.metrics != nullptr) {
    std::uint32_t deepest = 0;
    for (const Channel& ch : channels_) {
      deepest = std::max(deepest, ch.queue_capacity);
    }
    depth_counts_.assign(std::size_t{deepest} + 1, 0);
  }
  register_metrics();
}

void PacketSim::register_metrics() {
  obs::MetricRegistry* reg = config_.metrics;
  if (reg == nullptr) return;
  obs_.injected = &reg->counter("sim.injected");
  obs_.delivered = &reg->counter("sim.delivered");
  obs_.tail_drops = &reg->counter("sim.tail_drops");
  obs_.ttl_expired = &reg->counter("sim.ttl_expired");
  obs_.ecn_marked = &reg->counter("sim.ecn_marked");
  obs_.folds = &reg->counter("sim.folds");
  obs_.segment_swaps = &reg->counter("sim.segment_swaps");
  obs_.wrong_egress = &reg->counter("sim.wrong_egress");
  obs_.failover_lost = &reg->counter("sim.failover.packets_lost");
  obs_.link_events = &reg->counter("sim.failover.link_events");
  obs_.in_flight = &reg->gauge("sim.in_flight");
  obs_.queue_depth = &reg->histogram("sim.queue_depth");
  obs_.link_drops.reserve(channels_.size());
  obs_.link_ecn.reserve(channels_.size());
  char name[48];
  for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
    // Zero-padded so the name-sorted snapshot lists links numerically.
    std::snprintf(name, sizeof(name), "sim.link.%05zu.queue_depth", ch);
    // Every run() ends with its queues drained, so this depth gauge
    // reads 0 whenever the registry holds a run's numbers; it needs no
    // per-hop update.
    (void)reg->gauge(name);
    std::snprintf(name, sizeof(name), "sim.link.%05zu.drops", ch);
    obs_.link_drops.push_back(&reg->counter(name));
    std::snprintf(name, sizeof(name), "sim.link.%05zu.ecn", ch);
    obs_.link_ecn.push_back(&reg->counter(name));
  }
}

void PacketSim::set_segment_pool(std::span<const polka::RouteLabel> labels,
                                 std::span<const std::uint32_t> waypoints) {
  pool_labels_ = labels;
  pool_waypoints_ = waypoints;
}

void PacketSim::schedule_link_state(Tick at, std::uint32_t channel, bool up) {
  if (channel >= channels_.size()) {
    throw std::invalid_argument(
        "PacketSim::schedule_link_state: bad channel index");
  }
  queue_.push(at, up ? kLinkUp : kLinkDown, channel);
}

std::uint32_t PacketSim::add_flow(const polka::PacketResult& expected) {
  flow_expected_.push_back(expected);
  result_.flows.push_back(FlowStat{});
  return static_cast<std::uint32_t>(flow_expected_.size() - 1);
}

std::uint64_t PacketSim::schedule_timer(Tick at, std::uint32_t arg) {
  if (transport_ == nullptr) {
    throw std::logic_error("PacketSim::schedule_timer: no transport attached");
  }
  return queue_.push(at, kTimer, arg);
}

void PacketSim::reserve(std::size_t packets) {
  packets_.reserve(packets_.size() + packets);
  queue_.reserve(packets);
}

std::uint32_t PacketSim::inject(Tick at, polka::RouteLabel label,
                                polka::SegmentRef ref, std::uint32_t source,
                                std::uint32_t flow) {
  if (source >= fabric_.node_count()) {
    throw std::invalid_argument("PacketSim::inject: bad source node");
  }
  if (flow >= flow_expected_.size()) {
    throw std::invalid_argument("PacketSim::inject: unknown flow");
  }
  if (ref.label_count == 0 ||
      (ref.label_count > 1 &&
       (ref.first_label + std::size_t{ref.label_count} > pool_labels_.size() ||
        ref.first_waypoint + std::size_t{ref.label_count} - 1 >
            pool_waypoints_.size()))) {
    throw std::invalid_argument(
        "PacketSim::inject: segment ref outside the pools");
  }
  PacketState p;
  // Mirrors replay_slice's lane split: pooled labels only for genuinely
  // multi-segment routes (a default ref's first_label means nothing).
  p.label = ref.label_count > 1 ? pool_labels_[ref.first_label].bits
                                : label.bits;
  p.ref = ref;
  p.node = source;
  p.flow = flow;
  const auto index = static_cast<std::uint32_t>(packets_.size());
  packets_.push_back(p);
  FlowStat& fs = result_.flows[flow];
  if (fs.packets == 0 || at < fs.first_inject) fs.first_inject = at;
  ++fs.packets;
  ++result_.counters.injected;
  if (ref.label_count > 1) ++result_.counters.segmented_packets;
  queue_.push(at, kArrive, index);
  return index;
}

// HP_HOT_BEGIN(event_loop)
// The discrete-event inner loop: every hop is a fold, a wiring lookup
// and O(1) queue/state updates on storage sized at wiring time.  All
// allocation (packets_, flows, the per-link vectors, the departure
// rings) happens in the constructor and inject()/register_metrics()
// before the clock starts; the loop itself must stay growth-free (lint
// rule hot-path-purity) or event-rate throughput becomes
// allocator-bound.  EventQueue::push re-uses its node pool once it has
// held the in-flight high-water mark.  Registry metrics are not touched
// per hop: the counters mirroring SimCounters/LinkStat and the
// sim.queue_depth samples (counted per depth in depth_counts_) land
// once per run() in flush_counters().

// Free channel `ch`'s queue slots whose departure the event queue would
// have popped before the event (t, seq): a departure stamped (at, s)
// goes first iff (at, s) < (t, seq).  Rings are FIFO in that order --
// departure ticks never decrease on a channel and stamps only grow.
void PacketSim::settle(std::uint32_t ch, Tick t, std::uint64_t seq) {
  ChannelState& state = channel_state_[ch];
  const std::uint32_t capacity = channels_[ch].queue_capacity;
  while (state.queued > 0) {
    const Departure& d = departures_[state.ring + state.head];
    if (d.at > t || (d.at == t && d.seq > seq)) break;
    --state.queued;
    state.head = state.head + 1 == capacity ? 0 : state.head + 1;
  }
}

void PacketSim::handle_arrival(Tick t, std::uint64_t seq,
                               std::uint32_t packet) {
  HP_DCHECK(packet < packets_.size(), "PacketSim: arrival for unknown packet");
  PacketState& s = packets_[packet];
  HP_DCHECK(s.node < fabric_.node_count(),
            "PacketSim: packet parked on an unknown node");
  SimCounters& c = result_.counters;
  // 1-in-N flight recording resolved once per hop; flight is a null
  // pointer for unsampled flows so every tap below is one branch.
  obs::FlightRecorder* const flight =
      config_.recorder != nullptr && config_.recorder->sampled(s.flow)
          ? config_.recorder
          : nullptr;
  // Waypoint re-label before this node's mod, exactly as the batch walk
  // kernel does (fold_kernels.hpp): a waypoint folds once like every
  // other node, just with its fresh label.
  if (s.seg + 1 < s.ref.label_count &&
      s.node == pool_waypoints_[s.ref.first_waypoint + s.seg]) {
    ++s.seg;
    s.label = pool_labels_[s.ref.first_label + s.seg].bits;
    ++c.segment_swaps;
  }
  const std::uint32_t port =
      fabric_.port_of(polka::RouteLabel{s.label}, s.node);
  ++c.mod_operations;
  ++s.hops;
  const std::uint32_t peer = fabric_.neighbor(s.node, port);
  FlowStat& fs = result_.flows[s.flow];
  // Shared delivery tail: the unwired-port and channel-less-port exits.
  const auto deliver = [&] {
    ++c.delivered;
    ++fs.delivered;
    fs.last_delivery = std::max(fs.last_delivery, t);
    const polka::PacketResult got{s.node, port, s.hops, false};
    if (got != flow_expected_[s.flow]) ++c.wrong_egress;
    if (flight != nullptr) {
      flight->record({t, s.flow, packet, s.node, port, 0,
                      obs::HopOutcome::kDelivered});
    }
    if (transport_ != nullptr) transport_->on_delivered(t, s.flow, packet);
  };
  if (peer == polka::CompiledFabric::kNoNode) {
    // Unwired port: the packet egresses here -- a delivery.
    deliver();
    return;
  }
  if (s.hops >= config_.max_hops) {
    ++c.ttl_expired;
    ++fs.ttl_expired;
    if (flight != nullptr) {
      flight->record({t, s.flow, packet, s.node, port, 0,
                      obs::HopOutcome::kTtlExpired});
    }
    if (transport_ != nullptr) {
      transport_->on_dropped(t, s.flow, packet, DropCause::kTtlExpired);
    }
    return;
  }
  const std::uint32_t ch = port_channel_[node_offset_[s.node] + port];
  if (ch == kNoChannel) {
    // A wired fabric port the runner gave no channel (should not happen
    // on runner-built maps); treat as an egress so the walk terminates.
    deliver();
    return;
  }
  settle(ch, t, seq);
  const Channel& link = channels_[ch];
  ChannelState& state = channel_state_[ch];
  LinkStat& stat = result_.links[ch];
  if (link_up_[ch] == 0) {
    // The wire is gone: nothing to queue behind, the packet is lost.
    // This is the loss window hitless failover shrinks -- packets that
    // left their source before the control plane swapped the route.
    ++c.dropped;
    ++c.failover_lost;
    ++fs.dropped;
    ++stat.failover_drops;
    if (flight != nullptr) {
      flight->record({t, s.flow, packet, s.node, port, state.queued,
                      obs::HopOutcome::kLinkDown});
    }
    if (transport_ != nullptr) {
      transport_->on_dropped(t, s.flow, packet, DropCause::kLinkDown);
    }
    return;
  }
  if (state.queued >= link.queue_capacity) {
    // Tail drop: the egress FIFO is full.
    ++c.dropped;
    ++fs.dropped;
    ++stat.tail_drops;
    if (flight != nullptr) {
      flight->record({t, s.flow, packet, s.node, port, state.queued,
                      obs::HopOutcome::kTailDrop});
    }
    if (transport_ != nullptr) {
      transport_->on_dropped(t, s.flow, packet, DropCause::kTailDrop);
    }
    return;
  }
  ++state.queued;
  stat.max_queue_depth = std::max(stat.max_queue_depth, state.queued);
  const bool ecn =
      link.ecn_threshold != 0 && state.queued >= link.ecn_threshold;
  if (ecn) {
    ++c.ecn_marked;
    ++stat.ecn_marks;
    if (transport_ != nullptr) transport_->on_ecn(s.flow);
  }
  if (obs_.queue_depth != nullptr) ++depth_counts_[state.queued];
  if (flight != nullptr) {
    flight->record({t, s.flow, packet, s.node, port, state.queued,
                    obs::HopOutcome::kForwarded});
  }
  // FIFO serialization: the wire commits to this packet after everything
  // already queued; the departure time is known at enqueue time.
  const Tick start = std::max(t, state.free_at);
  const Tick depart = start + link.serialize_ns;
  state.free_at = depart;
  stat.busy_ns += link.serialize_ns;
  ++stat.forwarded;
  s.node = peer;
  // The slot frees at `depart`, stamped before the downstream arrival
  // is pushed, so a zero-latency tie still frees the slot first.
  std::uint32_t slot = state.head + state.queued - 1;
  if (slot >= link.queue_capacity) slot -= link.queue_capacity;
  departures_[state.ring + slot] = Departure{depart, queue_.stamp()};
  queue_.push(depart + link.latency_ns, kArrive, packet);
}

SimResult PacketSim::run() {
  while (!queue_.empty()) {
    const Event e = queue_.pop();
    // Simulated time never rewinds: the queue orders by (at, seq), so a
    // violation here means an engine scheduled into the past -- the
    // exact class of bug that silently breaks bit-identical replay.
    HP_CHECK(e.at >= now_, "PacketSim: event scheduled before now");
    now_ = e.at;
    switch (e.kind) {
      case kArrive:
        handle_arrival(e.at, e.seq, e.arg);
        break;
      case kLinkDown:
        link_up_[e.arg] = 0;
        ++result_.counters.link_down_events;
        if (obs_.link_events != nullptr) obs_.link_events->add(1);
        break;
      case kLinkUp:
        link_up_[e.arg] = 1;
        if (obs_.link_events != nullptr) obs_.link_events->add(1);
        break;
      case kTimer:
        HP_DCHECK(transport_ != nullptr,
                  "PacketSim: timer event with no transport attached");
        transport_->on_timer(e.at, e.arg, e.seq);
        break;
      default:
        throw std::logic_error("PacketSim: unknown event kind");
    }
  }
  // Every departure is due by now (each one precedes its packet's
  // arrival), so the queue depths and link gauges read as drained.
  for (std::uint32_t ch = 0; ch < channels_.size(); ++ch) {
    settle(ch, std::numeric_limits<Tick>::max(),
           std::numeric_limits<std::uint64_t>::max());
  }
  result_.counters.end_ns = now_;
  flush_counters();
  return result_;
}
// HP_HOT_END(event_loop)

void PacketSim::flush_counters() {
  if (config_.metrics == nullptr) return;
  const SimCounters& now = result_.counters;
  SimCounters& was = flushed_;
  obs_.injected->add(now.injected - was.injected);
  obs_.delivered->add(now.delivered - was.delivered);
  obs_.tail_drops->add((now.dropped - now.failover_lost) -
                       (was.dropped - was.failover_lost));
  obs_.ttl_expired->add(now.ttl_expired - was.ttl_expired);
  obs_.ecn_marked->add(now.ecn_marked - was.ecn_marked);
  obs_.folds->add(now.mod_operations - was.mod_operations);
  obs_.segment_swaps->add(now.segment_swaps - was.segment_swaps);
  obs_.wrong_egress->add(now.wrong_egress - was.wrong_egress);
  obs_.failover_lost->add(now.failover_lost - was.failover_lost);
  const auto in_flight = [](const SimCounters& k) {
    return static_cast<std::int64_t>(k.injected - k.delivered - k.dropped -
                                     k.ttl_expired);
  };
  obs_.in_flight->add(in_flight(now) - in_flight(was));
  was = now;
  for (std::size_t depth = 0; depth < depth_counts_.size(); ++depth) {
    if (depth_counts_[depth] == 0) continue;
    obs_.queue_depth->record_n(depth, depth_counts_[depth]);
    depth_counts_[depth] = 0;
  }
  for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
    const LinkStat& link = result_.links[ch];
    LinkStat& seen = flushed_links_[ch];
    obs_.link_drops[ch]->add(link.tail_drops + link.failover_drops -
                             seen.tail_drops - seen.failover_drops);
    obs_.link_ecn[ch]->add(link.ecn_marks - seen.ecn_marks);
    seen = link;
  }
}

}  // namespace hp::sim
