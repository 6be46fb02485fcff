#include "scenario/traffic.hpp"

#include <algorithm>
#include <map>
#include <random>
#include <stdexcept>
#include <unordered_map>

#include "core/contracts.hpp"

namespace hp::scenario {

namespace {

using netsim::NodeIndex;

constexpr std::uint32_t kSkippedPair = 0xFFFFFFFFu;

/// Pair interning shared by the pattern generators: compiles the route
/// on first sight, records an unreachable pair once and keeps each lane's
/// topology path for the elephant/mice generator.
struct PairTable {
  BuiltFabric& fabric;
  PacketStream& stream;
  std::unordered_map<std::uint64_t, std::uint32_t> index;
  std::vector<netsim::Path> path;

  /// Index of the routable pair, or nullopt (unreachable).
  std::optional<std::uint32_t> intern(NodeIndex src, NodeIndex dst) {
    const std::uint64_t key = netsim::node_pair_key(src, dst);
    if (const auto it = index.find(key); it != index.end()) {
      if (it->second == kSkippedPair) return std::nullopt;
      return it->second;
    }
    const CompiledRoute* route = fabric.route(src, dst);
    if (!route) {
      ++stream.unreachable_pairs;
      index.emplace(key, kSkippedPair);
      return std::nullopt;
    }
    HP_DCHECK(!route->segments.labels.empty(),
              "generate_traffic: compiled route has no label");
    const auto id = static_cast<std::uint32_t>(stream.pairs.size());
    stream.pairs.push_back(TrafficPair{
        src, dst, route->ingress, route->segments.labels.front(),
        append_segments(stream, route->segments), route->expected});
    path.push_back(route->path);
    index.emplace(key, id);
    return id;
  }
};

/// Up to `want` distinct random router pairs that compiled cleanly.
std::vector<std::uint32_t> sample_pairs(PairTable& table,
                                        const std::vector<NodeIndex>& routers,
                                        std::size_t want,
                                        std::mt19937_64& rng) {
  std::vector<std::uint32_t> lanes;
  const std::size_t n = routers.size();
  want = std::min(want, n * (n - 1));
  // Random sampling with a bounded attempt budget: dense streams reuse
  // pairs anyway, so missing a few distinct pairs is harmless.
  for (std::size_t attempt = 0; lanes.size() < want && attempt < 20 * want + 64;
       ++attempt) {
    const NodeIndex src = routers[rng() % n];
    const NodeIndex dst = routers[rng() % n];
    if (src == dst) continue;
    const auto lane = table.intern(src, dst);
    if (lane && std::ranges::find(lanes, *lane) == lanes.end()) {
      lanes.push_back(*lane);
    }
  }
  return lanes;
}

void generate_elephant_mice(PacketStream& stream, PairTable& table,
                            std::vector<std::uint32_t> lanes,
                            const TrafficParams& params) {
  // Map each lane's topology path back to its lane so flows produced by
  // generate_workload (which round-robins over paths) find their pair.
  std::map<netsim::Path, std::uint32_t> lane_of_path;
  std::vector<netsim::Path> paths;
  for (const std::uint32_t lane : lanes) {
    lane_of_path.emplace(table.path[lane], lane);
    paths.push_back(table.path[lane]);
  }
  // One elephant must not monopolize the stream: cap per-flow packets.
  const std::size_t per_flow_cap = std::max<std::size_t>(1, params.packets / 8);
  netsim::WorkloadParams wp = params.workload;
  while (stream.size() < params.packets) {
    const auto flows = netsim::generate_workload(paths, wp);
    for (const auto& flow : flows) {
      const auto it = lane_of_path.find(flow.spec.path);
      if (it == lane_of_path.end()) continue;
      std::size_t count = std::min(
          netsim::packet_count(flow.spec, params.mtu_bytes, per_flow_cap),
          params.packets - stream.size());
      stream.pair.insert(stream.pair.end(), count, it->second);
      if (stream.size() == params.packets) break;
    }
    ++wp.seed;  // another arrival process if the budget is not yet full
  }
}

}  // namespace

polka::SegmentRef append_segments(PacketStream& stream,
                                  const polka::SegmentedRoute& route) {
  polka::SegmentRef ref;
  if (route.single_label()) return ref;
  ref.first_label = static_cast<std::uint32_t>(stream.seg_labels.size());
  ref.first_waypoint =
      static_cast<std::uint32_t>(stream.seg_waypoints.size());
  ref.label_count = static_cast<std::uint32_t>(route.labels.size());
  stream.seg_labels.insert(stream.seg_labels.end(), route.labels.begin(),
                           route.labels.end());
  stream.seg_waypoints.insert(stream.seg_waypoints.end(),
                              route.waypoints.begin(), route.waypoints.end());
  return ref;
}

const char* to_string(TrafficPattern pattern) {
  switch (pattern) {
    case TrafficPattern::kUniformRandom:
      return "uniform";
    case TrafficPattern::kPermutation:
      return "permutation";
    case TrafficPattern::kHotspot:
      return "hotspot";
    case TrafficPattern::kElephantMice:
      return "elephant_mice";
  }
  return "unknown";
}

PacketStream generate_traffic(BuiltFabric& fabric,
                              const TrafficParams& params) {
  const std::vector<NodeIndex>& routers = fabric.routers();
  if (routers.size() < 2) {
    throw std::invalid_argument("generate_traffic: need >= 2 routers");
  }
  if (params.packets == 0) {
    throw std::invalid_argument("generate_traffic: need >= 1 packet");
  }
  std::mt19937_64 rng(params.seed);
  PacketStream stream;
  PairTable table{fabric, stream, {}, {}};
  stream.pair.reserve(params.packets);

  std::vector<std::uint32_t> lanes;
  switch (params.pattern) {
    case TrafficPattern::kUniformRandom:
      lanes = sample_pairs(table, routers, params.max_pairs, rng);
      break;
    case TrafficPattern::kPermutation: {
      // A random cyclic permutation: every router sends to its
      // successor in a shuffled order, so src != dst by construction.
      std::vector<NodeIndex> order = routers;
      std::shuffle(order.begin(), order.end(), rng);
      const std::size_t count = std::min<std::size_t>(order.size(),
                                                      params.max_pairs);
      for (std::size_t i = 0; i < count; ++i) {
        const auto lane =
            table.intern(order[i], order[(i + 1) % order.size()]);
        if (lane) lanes.push_back(*lane);
      }
      break;
    }
    case TrafficPattern::kHotspot:
    case TrafficPattern::kElephantMice:
      lanes = sample_pairs(table, routers, params.max_pairs, rng);
      break;
  }
  if (params.pattern == TrafficPattern::kHotspot) {
    // Hot lanes: every router sends to one hot destination.
    const NodeIndex hot = routers[rng() % routers.size()];
    std::vector<std::uint32_t> hot_lanes;
    for (const NodeIndex src : routers) {
      if (src == hot || hot_lanes.size() >= params.max_pairs) continue;
      const auto lane = table.intern(src, hot);
      if (lane) hot_lanes.push_back(*lane);
    }
    if (hot_lanes.empty() && lanes.empty()) {
      throw std::runtime_error("generate_traffic: no routable pairs");
    }
    std::bernoulli_distribution to_hot(params.hotspot_weight);
    std::size_t next_hot = 0;
    std::size_t next_bg = 0;
    for (std::size_t i = 0; i < params.packets; ++i) {
      const bool hot_packet =
          !hot_lanes.empty() && (lanes.empty() || to_hot(rng));
      if (hot_packet) {
        stream.pair.push_back(hot_lanes[next_hot++ % hot_lanes.size()]);
      } else {
        stream.pair.push_back(lanes[next_bg++ % lanes.size()]);
      }
    }
    return stream;
  }
  if (lanes.empty()) {
    throw std::runtime_error("generate_traffic: no routable pairs");
  }
  if (params.pattern == TrafficPattern::kElephantMice) {
    generate_elephant_mice(stream, table, std::move(lanes), params);
    return stream;
  }
  for (std::size_t i = 0; i < params.packets; ++i) {
    stream.pair.push_back(lanes[i % lanes.size()]);
  }
  return stream;
}

}  // namespace hp::scenario
