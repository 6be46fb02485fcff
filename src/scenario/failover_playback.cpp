#include "scenario/failover_playback.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/contracts.hpp"

namespace hp::scenario {

namespace {

using PairList = std::vector<std::pair<netsim::NodeIndex, netsim::NodeIndex>>;

}  // namespace

std::size_t FailoverEvent::count(RerouteKind kind) const noexcept {
  const auto n = std::ranges::count(rerouted, kind, &LaneReroute::kind);
  return static_cast<std::size_t>(n);
}

FailoverPlayback::FailoverPlayback(BuiltFabric& fabric,
                                   std::span<const TrafficPair> lanes,
                                   std::vector<LinkFailure> schedule)
    : fabric_(fabric), schedule_(std::move(schedule)) {
  std::ranges::stable_sort(schedule_, {}, &LinkFailure::at_fraction);
  for (LinkFailure& f : schedule_) {
    f.at_fraction = std::clamp(f.at_fraction, 0.0, 1.0);
  }
  // Streams intern each (src, dst) once; resolve lanes by pair key once
  // instead of per event (flap schedules fire dozens).
  for (std::uint32_t lane = 0; lane < lanes.size(); ++lane) {
    const TrafficPair& pair = lanes[lane];
    lane_of_.emplace(netsim::node_pair_key(pair.src, pair.dst), lane);
  }
}

const LinkFailure& FailoverPlayback::next() const {
  HP_CHECK(!done(), "FailoverPlayback::next: schedule exhausted");
  return schedule_[next_];
}

FailoverEvent FailoverPlayback::step() {
  HP_CHECK(!done(), "FailoverPlayback::step: schedule exhausted");
  FailoverEvent event;
  event.failure = schedule_[next_++];
  const LinkFailure& f = event.failure;
  FailoverReport ev = f.restore ? fabric_.restore_link(f.a, f.b)
                                : fabric_.apply_failure(f.a, f.b);
  // Graceful degradation: failing a dead link (or restoring a live
  // one) is a no-op, not an error -- storms hit this constantly.
  if (ev.duplicate) {
    event.duplicate = true;
    return event;
  }
  // Pairs whose protection set died recompile lazily, after the window.
  FailoverReport lazy;
  if (fabric_.pending_repair_count() > 0) lazy = fabric_.repair_pending();

  // The fabric names every cached pair it touched; keep the lanes.
  const auto reroute = [&](const PairList& pairs, RerouteKind kind) {
    for (const auto& [src, dst] : pairs) {
      const auto it = lane_of_.find(netsim::node_pair_key(src, dst));
      if (it == lane_of_.end()) continue;
      const CompiledRoute* route = fabric_.cached_route(src, dst);
      HP_CHECK(route != nullptr && !route->segments.labels.empty(),
               "FailoverPlayback: rerouted pair has no cached route");
      event.rerouted.push_back({it->second, kind, route});
    }
  };
  const auto sever = [&](const PairList& pairs) {
    for (const auto& [src, dst] : pairs) {
      const auto it = lane_of_.find(netsim::node_pair_key(src, dst));
      if (it != lane_of_.end()) event.severed.push_back(it->second);
    }
  };
  reroute(ev.swapped, RerouteKind::kSwap);
  reroute(ev.repaired, RerouteKind::kRepair);
  reroute(lazy.repaired, RerouteKind::kLazyRepair);
  sever(ev.unroutable);
  sever(lazy.unroutable);
  event.swap_stretch = std::move(ev.swap_stretch);
  event.window_recompiles = ev.window_recompiles;
  return event;
}

}  // namespace hp::scenario
