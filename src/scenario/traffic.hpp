#pragma once
// Traffic-matrix generators: packet streams over a BuiltFabric.
//
// A scenario's workload is a stream of packets, each naming its lane:
// the (src, dst) traffic pair it belongs to.  In PolKA every packet of
// a flow carries its tunnel's routeID, so a label belongs to a route,
// not to a packet; the lane record therefore holds the one copy of the
// ingress node, the route's first label, its pooled segment slice and
// the expected egress, and a failure that reroutes a lane rewrites
// that record alone.  Four matrix shapes: uniform-random pairs, a
// router permutation, hotspot (a weighted share of traffic converging
// on one destination) and the elephant/mice FCT mix reused from
// netsim::workload.

#include <cstdint>
#include <vector>

#include "netsim/workload.hpp"
#include "polka/label.hpp"
#include "scenario/fabric_builder.hpp"

namespace hp::scenario {

enum class TrafficPattern {
  kUniformRandom,  ///< random (src, dst) pairs, packets spread evenly
  kPermutation,    ///< each router sends to one fixed partner
  kHotspot,        ///< `hotspot_weight` of traffic targets one router
  kElephantMice,   ///< netsim::workload flow sizes over random pairs
};

[[nodiscard]] const char* to_string(TrafficPattern pattern);

struct TrafficParams {
  TrafficPattern pattern = TrafficPattern::kUniformRandom;
  std::size_t packets = 1 << 14;  ///< total stream length (exact)
  std::uint64_t seed = 1;
  /// Cap on distinct (src, dst) pairs sampled by the random patterns,
  /// bounding route-compilation work on large topologies.
  std::size_t max_pairs = 2048;
  /// kHotspot: share of packets whose destination is the hot router.
  double hotspot_weight = 0.5;
  /// kElephantMice: flow arrival/size shape and the packetization MTU.
  netsim::WorkloadParams workload;
  double mtu_bytes = 1500.0;
};

/// One traffic lane: an endpoint pair and the route its packets carry.
struct TrafficPair {
  netsim::NodeIndex src = 0;  ///< topology index
  netsim::NodeIndex dst = 0;
  std::uint32_t ingress = 0;  ///< fabric index of `src`
  polka::RouteLabel label{};  ///< the route's first label
  /// Slice of the stream's segment pools; label_count == 1 means the
  /// route is single-label and `label` is all of it.
  polka::SegmentRef ref{};
  polka::PacketResult expected;  ///< egress node/port/hops for the pair
};

/// A replayable packet stream: one lane index per packet, in emission
/// order, and one record per lane.  Routes that need more than one
/// 64-bit label pool their segments in seg_labels / seg_waypoints,
/// sliced by each lane's `ref`.
struct PacketStream {
  std::vector<std::uint32_t> pair;  ///< per packet: index into `pairs`
  std::vector<TrafficPair> pairs;
  std::vector<polka::RouteLabel> seg_labels;
  std::vector<std::uint32_t> seg_waypoints;
  std::size_t unreachable_pairs = 0;  ///< pairs skipped: no route at all

  [[nodiscard]] std::size_t size() const noexcept { return pair.size(); }
};

/// Pool a route's segment list into the stream's pooled arrays and
/// return the ref describing the slice.  A single-label route pools
/// nothing and returns the default (label_count == 1) ref.  Shared by
/// stream generation and the runner's failure repair so the ref layout
/// has exactly one author.
polka::SegmentRef append_segments(PacketStream& stream,
                                  const polka::SegmentedRoute& route);

/// Generate a packet stream over the fabric's routers.  Compiles every
/// route it uses (single-threaded; do this before sharding a replay).
/// Throws std::invalid_argument when the fabric has < 2 routers or
/// params.packets == 0.
[[nodiscard]] PacketStream generate_traffic(BuiltFabric& fabric,
                                            const TrafficParams& params);

}  // namespace hp::scenario
