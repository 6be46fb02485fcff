#pragma once
// Path computation over the topology: shortest paths, shortest-path
// trees, Yen's k-shortest loopless paths and link-disjoint path sets.
//
// The paper hand-plans its three tunnels; a Path Computation Element
// (Section I) must derive candidate paths itself, and Section II-A
// worries about topologies growing "from 10s to 100s of routers".
// These routines give the scenario engine its primary and backup
// routes and the scale-sweep bench its machinery.
//
// Every query runs one search that settles nodes in (distance, node)
// order and relaxes a link only on a strict improvement, so
// shortest_path, shortest_path_tree and the first k_disjoint_paths path
// break ties the same way.  Under kHopCount, where every link weighs 1,
// the search expands level by level, each level in ascending node
// order: no heap, same order, same paths.  The weighted metrics
// (kDelay, kInverseCapacity) run Dijkstra over a binary heap.

#include <optional>
#include <span>
#include <vector>

#include "netsim/topology.hpp"

namespace hp::netsim {

/// Edge weight used for path computation.
enum class PathMetric {
  kDelay,     ///< sum of link delay_ms (latency-optimal)
  kHopCount,  ///< number of links
  kInverseCapacity,  ///< sum of 1/capacity (prefers fat links)
};

/// Weight of one link under a metric.
[[nodiscard]] double link_weight(const Link& link, PathMetric metric);

/// Shortest path from `src` to `dst`.  Host nodes are only
/// allowed as endpoints, never as transit (they do not forward).
/// Returns nullopt when unreachable.
[[nodiscard]] std::optional<Path> shortest_path(
    const Topology& topo, NodeIndex src, NodeIndex dst,
    PathMetric metric = PathMetric::kDelay);

/// A full single-source shortest-path tree: one search answering every
/// destination, the shape the scenario engine's all-pairs route
/// compiler needs (per-pair shortest_path calls would be quadratic in
/// searches on dense generated topologies).
struct PathTree {
  NodeIndex src = kInvalidIndex;
  std::vector<double> dist;    ///< total weight; infinity = unreachable
  std::vector<LinkIndex> via;  ///< last link on the path; kInvalidIndex at src
};

/// Shortest paths to every destination (level order under kHopCount,
/// Dijkstra otherwise).  Host nodes never transit (same rule
/// as shortest_path); links in `banned` are skipped, which is how the
/// scenario engine routes around scheduled link failures.
[[nodiscard]] PathTree shortest_path_tree(
    const Topology& topo, NodeIndex src,
    PathMetric metric = PathMetric::kDelay,
    const std::vector<LinkIndex>& banned = {});

/// Extract the src -> dst path from a tree; nullopt when unreachable,
/// empty path when dst == src.
[[nodiscard]] std::optional<Path> tree_path(const PathTree& tree,
                                            const Topology& topo,
                                            NodeIndex dst);

/// Children of every node of a shortest-path tree, in CSR form: the
/// children of v are child[offset[v] .. offset[v + 1]), ascending.
/// Unreachable nodes and the source are nobody's child.
struct TreeChildren {
  std::vector<std::size_t> offset;  ///< node_count + 1 entries
  std::vector<NodeIndex> child;     ///< every reached node but the source

  [[nodiscard]] std::span<const NodeIndex> of(NodeIndex v) const {
    return std::span(child).subspan(offset[v], offset[v + 1] - offset[v]);
  }
};

/// Two counting passes over `via` and a fixed number of allocations,
/// however many inner nodes the tree has, so a full top-down tree walk
/// -- the shape the scenario engine's tree-incremental route compiler
/// descends -- costs O(n).
[[nodiscard]] TreeChildren tree_children(const PathTree& tree,
                                         const Topology& topo);

/// Yen's algorithm: up to `k` loopless shortest paths, best first.
/// Returns fewer when the graph has fewer distinct simple paths, and
/// none when src == dst.  Throws std::out_of_range for a bad node index.
[[nodiscard]] std::vector<Path> k_shortest_paths(
    const Topology& topo, NodeIndex src, NodeIndex dst, std::size_t k,
    PathMetric metric = PathMetric::kDelay);

/// Disjointness-filtered variant of k_shortest_paths: up to `k`
/// mutually link-disjoint paths, best first (the first is the shortest
/// path itself).  Disjointness is duplex -- once a path uses a link,
/// *both* directions are banned for later paths -- so any returned
/// path survives the duplex failure of every link the paths before it
/// used.  This is the protection-set planner: a primary plus the paths
/// returned with its links in `banned` form a 1:k protected pair.
/// Links in `banned` are excluded from every path.  Returns fewer than
/// `k` paths when the graph runs out of disjoint alternatives.
[[nodiscard]] std::vector<Path> k_disjoint_paths(
    const Topology& topo, NodeIndex src, NodeIndex dst, std::size_t k,
    PathMetric metric = PathMetric::kDelay,
    const std::vector<LinkIndex>& banned = {});

/// Total weight of a path under a metric.
[[nodiscard]] double path_weight(const Topology& topo, const Path& path,
                                 PathMetric metric);

/// The node sequence a path visits (src first).
[[nodiscard]] std::vector<NodeIndex> path_nodes(const Topology& topo,
                                                const Path& path);

}  // namespace hp::netsim
