#include "sim/transport.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/contracts.hpp"
#include "obs/metrics.hpp"

namespace hp::sim {

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

}  // namespace

std::size_t epoch_at(std::span<const RouteEpoch> epochs, Tick at) noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < epochs.size(); ++i) {  // timelines are tiny
    if (epochs[i].from <= at) best = i;
  }
  return best;
}

Transport::Transport(PacketSim& sim, TransportOptions options,
                     std::uint64_t packet_bytes, obs::MetricRegistry* metrics)
    : sim_(sim), options_(options), packet_bytes_(packet_bytes) {
  HP_CHECK(options_.init_cwnd >= 1,
           "TransportOptions: init_cwnd must be at least one packet");
  HP_CHECK(options_.max_cwnd >= options_.init_cwnd,
           "TransportOptions: max_cwnd must be >= init_cwnd");
  HP_CHECK(options_.rto_min_ns >= 1,
           "TransportOptions: rto_min_ns must be positive");
  HP_CHECK(options_.rto_max_ns >= options_.rto_min_ns,
           "TransportOptions: rto_max_ns must be >= rto_min_ns");
  HP_CHECK(options_.max_retries >= 1,
           "TransportOptions: max_retries must be at least one");
  if (metrics != nullptr) {
    obs_.sent = &metrics->counter("sim.tp.sent");
    obs_.retransmits = &metrics->counter("sim.tp.retransmits");
    obs_.timeouts = &metrics->counter("sim.tp.timeouts");
    obs_.ecn_cuts = &metrics->counter("sim.tp.ecn_cuts");
    obs_.drop_cuts = &metrics->counter("sim.tp.drop_cuts");
    obs_.spurious = &metrics->counter("sim.tp.spurious");
    obs_.abandoned = &metrics->counter("sim.tp.abandoned_flows");
    obs_.completed = &metrics->counter("sim.tp.completed_flows");
    obs_.cwnd = &metrics->histogram("sim.tp.cwnd");
    obs_.rto_ns = &metrics->histogram("sim.tp.rto_ns");
  }
}

std::uint32_t Transport::add_lane(std::vector<RouteEpoch> epochs) {
  if (epochs.empty() || epochs.front().from != 0) {
    throw std::invalid_argument(
        "Transport::add_lane: timeline must start with a from=0 epoch");
  }
  for (std::size_t i = 1; i < epochs.size(); ++i) {
    if (epochs[i - 1].from > epochs[i].from) {
      throw std::invalid_argument(
          "Transport::add_lane: epochs must be sorted by adoption tick");
    }
  }
  lanes_.push_back(std::move(epochs));
  return static_cast<std::uint32_t>(lanes_.size() - 1);
}

std::uint32_t Transport::add_flow(std::uint32_t lane, std::uint32_t source,
                                  Tick start, Tick pace_ns,
                                  std::uint32_t packets) {
  if (lane >= lanes_.size()) {
    throw std::invalid_argument("Transport::add_flow: unknown lane");
  }
  if (packets == 0) {
    throw std::invalid_argument("Transport::add_flow: empty flow");
  }
  Flow f;
  f.lane = lane;
  f.source = source;
  f.start = start;
  f.pace_ns = pace_ns;
  f.total = packets;
  f.cwnd = options_.init_cwnd;
  f.next_send = start;
  f.state.assign(packets, SeqState::kPending);
  f.tries.assign(packets, 0);
  f.sent_at.assign(packets, 0);
  f.last_packet.assign(packets, kNone);
  f.sim_flow.assign(lanes_[lane].size(), kNone);
  flows_.push_back(std::move(f));
  report_.offered_bytes += packet_bytes_ * packets;
  return static_cast<std::uint32_t>(flows_.size() - 1);
}

void Transport::arm() {
  HP_CHECK(!armed_, "Transport::arm called twice");
  armed_ = true;
  report_.enabled = true;
  sim_.set_transport(this);
  // Flow-open kicks: TimerRec id 0 is the open sentinel (RTO arms use
  // generations starting at 1), so a kick needs no validity check.
  for (std::uint32_t i = 0; i < flows_.size(); ++i) {
    timers_.push_back({i, 0});
    sim_.schedule_timer(flows_[i].start,
                        static_cast<std::uint32_t>(timers_.size() - 1));
  }
}

Tick Transport::rto_base(const Flow& f) const {
  if (f.srtt_ns == 0) return options_.rto_min_ns;
  return std::clamp(2 * f.srtt_ns, options_.rto_min_ns, options_.rto_max_ns);
}

Tick Transport::rto_current(const Flow& f) const {
  Tick r = rto_base(f);
  for (std::uint32_t i = 0; i < f.backoff; ++i) {
    if (r >= options_.rto_max_ns / 2) return options_.rto_max_ns;
    r *= 2;
  }
  return std::min(r, options_.rto_max_ns);
}

std::uint32_t Transport::ensure_sim_flow(Flow& f, std::size_t epoch_index) {
  std::uint32_t& handle = f.sim_flow[epoch_index];
  if (handle == kNone) {
    handle = sim_.add_flow(lanes_[f.lane][epoch_index].expected);
    if (handle >= flow_of_.size()) flow_of_.resize(handle + 1, kNone);
    flow_of_[handle] = static_cast<std::uint32_t>(&f - flows_.data());
  }
  return handle;
}

void Transport::arm_timer(Flow& f, std::uint32_t flow_index, Tick at) {
  ++f.timer_id;
  timers_.push_back({flow_index, f.timer_id});
  sim_.schedule_timer(at, static_cast<std::uint32_t>(timers_.size() - 1));
  f.timer_armed = true;
}

void Transport::disarm_timer(Flow& f) {
  f.timer_armed = false;
  ++f.timer_id;  // any already-scheduled fire is now stale
}

void Transport::send_seq(Flow& f, std::uint32_t flow_index, std::uint32_t seq,
                         Tick t) {
  const Tick at = std::max(t, f.next_send);
  const std::size_t epoch_index = epoch_at(lanes_[f.lane], at);
  const RouteEpoch& epoch = lanes_[f.lane][epoch_index];
  const std::uint32_t handle = ensure_sim_flow(f, epoch_index);
  const std::uint32_t packet =
      sim_.inject(at, epoch.label, epoch.ref, f.source, handle);
  if (packet >= tags_.size()) tags_.resize(packet + 1);
  tags_[packet] = {flow_index, seq};
  f.next_send = at + f.pace_ns;
  if (!f.sent_any) {
    f.sent_any = true;
    f.first_send = at;
  }
  f.state[seq] = SeqState::kOutstanding;
  ++f.outstanding;
  ++f.tries[seq];
  f.sent_at[seq] = at;
  f.last_packet[seq] = packet;
  ++report_.packets_sent;
  if (obs_.sent != nullptr) obs_.sent->add(1);
  if (f.tries[seq] > 1) {
    ++report_.retransmits;
    if (obs_.retransmits != nullptr) obs_.retransmits->add(1);
  }
  if (!f.timer_armed) arm_timer(f, flow_index, at + rto_current(f));
}

void Transport::try_send(Flow& f, Tick t) {
  const auto flow_index = static_cast<std::uint32_t>(&f - flows_.data());
  while (!f.abandoned && f.outstanding < f.cwnd) {
    // Skip entries whose sequence a stale copy meanwhile delivered.
    while (!f.lost.empty() && f.state[f.lost.front()] != SeqState::kLost) {
      f.lost.pop_front();
    }
    std::uint32_t seq = kNone;
    if (!f.lost.empty()) {
      // Retransmissions go ahead of new data (sending fresh sequences
      // past known losses would just feed the same congested queue),
      // rate-limited to one loss-triggered resend per RTT window --
      // see Flow::next_fast_rtx.  The armed RTO covers the wait.
      if (t < f.next_fast_rtx) return;
      seq = f.lost.front();
      f.lost.pop_front();
      if (f.tries[seq] > options_.max_retries) {
        // Graceful degradation: this sequence burned its retry budget,
        // so the flow stops competing instead of retrying forever.
        abandon(f, t);
        return;
      }
    } else {
      if (f.next_seq >= f.total) return;
      seq = f.next_seq++;
    }
    send_seq(f, flow_index, seq, t);
    if (f.tries[seq] > 1) f.next_fast_rtx = t + rto_base(f);
  }
}

void Transport::cut_window(Flow& f, Tick t, bool ecn) {
  // One multiplicative decrease per RTT-estimate window: a whole burst
  // of marks/drops from one congestion event is one signal.
  if (t < f.next_cut_at) return;
  f.next_cut_at = t + (f.srtt_ns != 0 ? f.srtt_ns : options_.rto_min_ns);
  f.cwnd = std::max<std::uint32_t>(1, f.cwnd / 2);
  f.ack_credit = 0;
  if (ecn) {
    ++report_.ecn_cwnd_cuts;
    if (obs_.ecn_cuts != nullptr) obs_.ecn_cuts->add(1);
  } else {
    ++report_.drop_cwnd_cuts;
    if (obs_.drop_cuts != nullptr) obs_.drop_cuts->add(1);
  }
  if (obs_.cwnd != nullptr) obs_.cwnd->record(f.cwnd);
}

void Transport::abandon(Flow& f, Tick t) {
  (void)t;
  f.abandoned = true;
  f.lost.clear();
  disarm_timer(f);
  ++report_.abandoned_flows;
  if (obs_.abandoned != nullptr) obs_.abandoned->add(1);
}

void Transport::on_ecn(std::uint32_t sim_flow) {
  if (sim_flow >= flow_of_.size() || flow_of_[sim_flow] == kNone) return;
  Flow& f = flows_[flow_of_[sim_flow]];
  if (done(f)) return;
  cut_window(f, sim_.now(), /*ecn=*/true);
}

void Transport::on_delivered(Tick t, std::uint32_t sim_flow,
                             std::uint32_t packet) {
  (void)sim_flow;
  if (packet >= tags_.size()) return;
  const PacketTag tag = tags_[packet];
  Flow& f = flows_[tag.flow];
  const std::uint32_t seq = tag.seq;
  if (f.state[seq] == SeqState::kDelivered) {
    // A retransmitted copy of data that already arrived.
    ++report_.spurious_deliveries;
    if (obs_.spurious != nullptr) obs_.spurious->add(1);
    return;
  }
  if (f.state[seq] == SeqState::kOutstanding) {
    --f.outstanding;
    if (f.last_packet[seq] == packet) {
      // RTT sample from the live copy only; a stale copy's age says
      // nothing about the current path.
      const Tick sample = t - f.sent_at[seq];
      f.srtt_ns = f.srtt_ns == 0 ? sample : (7 * f.srtt_ns + sample) / 8;
    }
  }
  f.state[seq] = SeqState::kDelivered;
  ++f.delivered;
  f.last_delivery = std::max(f.last_delivery, t);
  report_.goodput_bytes += packet_bytes_;
  if (f.abandoned) return;  // late arrivals still count as goodput
  f.backoff = 0;  // fresh feedback resets the exponential backoff
  if (++f.ack_credit >= f.cwnd) {  // additive increase, once per window
    f.ack_credit = 0;
    if (f.cwnd < options_.max_cwnd) {
      ++f.cwnd;
      if (obs_.cwnd != nullptr) obs_.cwnd->record(f.cwnd);
    }
  }
  if (f.delivered == f.total) {
    ++completed_;
    if (obs_.completed != nullptr) obs_.completed->add(1);
    disarm_timer(f);
    return;
  }
  // Re-arm: the timeout now covers the oldest still-unresolved data.
  disarm_timer(f);
  arm_timer(f, tag.flow, t + rto_current(f));
  try_send(f, t);
}

void Transport::on_dropped(Tick t, std::uint32_t sim_flow,
                           std::uint32_t packet, DropCause cause) {
  (void)sim_flow;
  if (cause != DropCause::kTailDrop) {
    // A dead wire or a TTL kill gives the sender nothing to observe;
    // only the retransmission timer recovers these.
    return;
  }
  if (packet >= tags_.size()) return;
  const PacketTag tag = tags_[packet];
  Flow& f = flows_[tag.flow];
  const std::uint32_t seq = tag.seq;
  if (f.abandoned) return;
  if (f.last_packet[seq] != packet) return;  // stale copy; live one governs
  if (f.state[seq] != SeqState::kOutstanding) return;
  f.state[seq] = SeqState::kLost;
  --f.outstanding;
  f.lost.push_back(seq);
  cut_window(f, t, /*ecn=*/false);
  try_send(f, t);
}

void Transport::on_timer(Tick t, std::uint32_t rec_index) {
  HP_DCHECK(rec_index < timers_.size(), "Transport: unknown timer record");
  const TimerRec rec = timers_[rec_index];
  Flow& f = flows_[rec.flow];
  if (rec.id == 0) {  // flow-open kick
    if (!f.abandoned) try_send(f, t);
    return;
  }
  if (!f.timer_armed || rec.id != f.timer_id) return;  // stale arm
  f.timer_armed = false;
  if (done(f)) return;
  ++f.timeouts;
  f.timeout_at.push_back(t);
  ++report_.timeouts;
  if (obs_.timeouts != nullptr) obs_.timeouts->add(1);
  if (f.backoff < 63) ++f.backoff;  // exponential backoff (rto_max caps it)
  if (obs_.rto_ns != nullptr) obs_.rto_ns->record(rto_current(f));
  // Go-back-N: every outstanding sequence is presumed lost, oldest
  // first, and the window collapses to one packet.
  for (std::uint32_t seq = 0; seq < f.total && f.outstanding > 0; ++seq) {
    if (f.state[seq] == SeqState::kOutstanding) {
      f.state[seq] = SeqState::kLost;
      --f.outstanding;
      f.lost.push_back(seq);
    }
  }
  f.cwnd = 1;
  f.ack_credit = 0;
  if (obs_.cwnd != nullptr) obs_.cwnd->record(f.cwnd);
  f.next_fast_rtx = 0;  // the expiry overrides the fast-resend limit
  try_send(f, t);
}

Transport::FlowView Transport::flow_view(std::uint32_t flow) const {
  if (flow >= flows_.size()) {
    throw std::invalid_argument("Transport::flow_view: unknown flow");
  }
  const Flow& f = flows_[flow];
  FlowView view;
  view.cwnd = f.cwnd;
  view.rto_ns = rto_current(f);
  view.timeouts = f.timeouts;
  view.delivered = f.delivered;
  view.abandoned = f.abandoned;
  view.completed = !f.abandoned && f.delivered == f.total;
  view.fct_ns = view.completed ? f.last_delivery - f.first_send : 0;
  view.timeout_at = f.timeout_at;
  return view;
}

std::vector<Tick> Transport::completed_fct_ns() const {
  std::vector<Tick> out;
  out.reserve(completed_);
  for (const Flow& f : flows_) {
    if (!f.abandoned && f.delivered == f.total) {
      out.push_back(f.last_delivery - f.first_send);
    }
  }
  return out;
}

}  // namespace hp::sim
