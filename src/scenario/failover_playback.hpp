#pragma once
// FailoverPlayback: a failure schedule played against a BuiltFabric,
// one event at a time, reported as lane reroutes.
//
// In the paper's loop a network change makes the control plane pick
// new paths, and PolKA diverts the affected flows by swapping their
// source-route labels.  This is that step, written once for both
// runners: ScenarioRunner steps it between replay epochs, SimRunner
// plays the whole schedule up front and turns each reroute into a
// route epoch adopted at a later simulated tick.
//
// The playback owns every decision between "link a-b goes down (or
// up)" and "these lanes now carry these routes":
//  * the schedule's stable sort by at_fraction and the clamp to [0, 1];
//  * apply_failure / restore_link, with duplicate events (failing a
//    dead link, restoring a live one) reported and otherwise skipped;
//  * the lazy repair_pending for pairs whose protection set died;
//  * mapping the fabric's (src, dst) pairs onto the stream's lanes.
// The fabric reports every cached pair an event touched; only pairs
// that are lanes of the stream appear in an event, so every count a
// runner derives from it is a count of traffic lanes.

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "scenario/fabric_builder.hpp"
#include "scenario/runner.hpp"
#include "scenario/traffic.hpp"

namespace hp::scenario {

/// How a rerouted lane got its new route.
enum class RerouteKind : std::uint8_t {
  kSwap,        ///< pre-installed backup (or, on restore, the primary)
  kRepair,      ///< recompiled inside the event (unprotected fabric)
  kLazyRepair,  ///< recompiled by repair_pending after the event
};

struct LaneReroute {
  std::uint32_t lane = 0;
  RerouteKind kind = RerouteKind::kSwap;
  /// The lane's new cached route; valid until the next step().
  const CompiledRoute* route = nullptr;
};

/// One played schedule entry.
struct FailoverEvent {
  LinkFailure failure;  ///< the entry, at_fraction clamped to [0, 1]
  /// The link was already in the requested state: nothing changed and
  /// every list below is empty.
  bool duplicate = false;
  /// Swaps first, then in-event repairs, then lazy repairs; each in
  /// the fabric's deterministic pair order.
  std::vector<LaneReroute> rerouted;
  std::vector<std::uint32_t> severed;  ///< lanes left with no path
  /// Backup-over-primary stretch of every pair the event swapped
  /// (FailoverReport::swap_stretch, lanes or not).
  std::vector<double> swap_stretch;
  std::size_t window_recompiles = 0;  ///< routes compiled inside the event

  /// Rerouted lanes of one kind.
  [[nodiscard]] std::size_t count(RerouteKind kind) const noexcept;
};

class FailoverPlayback {
 public:
  /// `fabric` is borrowed and must outlive the playback; `lanes` is
  /// the stream's pair table (lane i is lanes[i]), read only by the
  /// constructor.  `schedule` need not be sorted.
  FailoverPlayback(BuiltFabric& fabric, std::span<const TrafficPair> lanes,
                   std::vector<LinkFailure> schedule);

  [[nodiscard]] bool done() const noexcept {
    return next_ == schedule_.size();
  }
  /// The entry the next step() plays, at_fraction clamped.  Requires
  /// !done().
  [[nodiscard]] const LinkFailure& next() const;

  /// Play the next entry against the fabric.  Throws
  /// core::ContractViolation when a rerouted pair has no cached route.
  /// Requires !done().
  FailoverEvent step();

 private:
  BuiltFabric& fabric_;
  std::vector<LinkFailure> schedule_;
  std::size_t next_ = 0;
  /// node_pair_key(src, dst) -> lane.
  std::unordered_map<std::uint64_t, std::uint32_t> lane_of_;
};

}  // namespace hp::scenario
