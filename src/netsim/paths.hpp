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
// Every query runs one search, PathSearch, that settles nodes in
// (distance, node) order and relaxes a link only on a strict
// improvement, so shortest_path, shortest_path_tree and the first
// k_disjoint_paths path break ties the same way.  Under kHopCount,
// where every link weighs 1, a tree grows level by level, a node
// keeping its lowest-index parent, and a search toward one destination
// is an A* search bounded by hop distances with no bans: no heap and
// no sort, same paths.  The weighted metrics (kDelay, kInverseCapacity)
// run Dijkstra over a binary heap.
//
// A PathSearch is built once per topology: a CSR adjacency of (to,
// link) arcs, a reverse-link table, a forwards flag per node, stacked
// ban masks and a workspace that a run resets only where the previous
// run wrote; under kHopCount also the incoming arcs and, per
// destination searched toward, its hop bounds.  The free functions
// below each build one and run it; the scenario engine keeps one per
// fabric instead, so planning a backup for every pair -- one source at
// a time, the primary's links banned and lifted around each search --
// builds nothing per pair.

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
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

/// The one search behind every query here, built once per topology and
/// reused across runs.  Adjacency, reverse links, host flags and (for
/// weighted metrics) link weights are copied in at construction, so a
/// search holds no reference to the topology.  Bans stack: each
/// ban_link/ban_node needs one unban to lift it, so a caller's
/// temporary bans (a primary's links while its backup is planned)
/// never lift a standing one (a failed link); lifting a ban that is
/// not there throws core::ContractViolation.  A run resets only the
/// entries the previous run wrote and allocates nothing, except that
/// under kHopCount the first run toward a destination stores that
/// destination's hop bounds (two bytes a node).
class PathSearch {
 public:
  /// Throws core::ContractViolation when the node or link count does
  /// not fit the 32-bit indices the adjacency stores.
  PathSearch(const Topology& topo, PathMetric metric);

  [[nodiscard]] std::size_t link_count() const noexcept {
    return from_.size();
  }

  void ban_link(LinkIndex l);
  void unban_link(LinkIndex l);
  /// Ban (lift) `l` and its reverse -- the first link back from l's
  /// head to its tail, the one Topology::link_between names.
  void ban_duplex(LinkIndex l);
  void unban_duplex(LinkIndex l);
  void ban_node(NodeIndex v);
  void unban_node(NodeIndex v);

  /// Search from `src` until `dst` is reached; kInvalidIndex never is,
  /// which grows the full tree.  Ties go to the first predecessor in
  /// (dist, node) order, over its first arc in CSR order.  The heap
  /// settles nodes in that order and relaxes only on a strict
  /// improvement.  Under kHopCount a tree grows level by level, a node
  /// found again in its own level taking the lower-index parent; a run
  /// toward `dst` settles every node an A* search bounded by the hop
  /// distance to `dst` with no bans must, then walks the rule back from
  /// `dst` over incoming arcs.  Hosts do not forward: they may start a
  /// path but not extend one.  Indices are the caller's to validate.
  void run(NodeIndex src, NodeIndex dst = kInvalidIndex);

  /// The last run's path to `dst`: nullopt when it was not reached,
  /// empty when dst is the run's source.  One allocation.
  [[nodiscard]] std::optional<Path> path_to(NodeIndex dst) const;

  /// The last run's tree (complete after a run without a destination).
  [[nodiscard]] PathTree tree() const;
  /// The same, written into `out`, whose buffers are reused.
  void tree(PathTree& out) const;

  /// Append to `out` up to `k` mutually duplex-link-disjoint src -> dst
  /// paths under the current bans, best first (see k_disjoint_paths);
  /// returns how many.  The bans are as they were on return, and the
  /// only allocations are the paths themselves (and `out`'s growth).
  std::size_t disjoint_paths(NodeIndex src, NodeIndex dst, std::size_t k,
                             std::vector<Path>& out);

 private:
  /// The 32-bit "none": no reverse link.  Counts are checked to stay
  /// below it, so it is never a valid index.
  static constexpr std::uint32_t kNoLink = UINT32_MAX;

  struct Arc {
    std::uint32_t to;
    std::uint32_t link;
  };

  /// A hop bound: unreachable even with no bans.
  static constexpr std::uint16_t kFar = UINT16_MAX;

  void run_levels(NodeIndex src);
  void run_toward(NodeIndex src, NodeIndex dst);
  void run_heap(NodeIndex src, NodeIndex dst);
  /// Per node, its hop distance to `dst` with no bans (saturating below
  /// kFar), or kFar: a consistent lower bound on the distance left
  /// under any bans.  Computed on the first run toward `dst`.
  const std::uint16_t* hop_bounds(NodeIndex dst);
  /// The tie rule's link into `v` from a node at `parent_dist`: the
  /// lowest-index such tail, its first arc to `v` in CSR order.
  [[nodiscard]] LinkIndex parent_link(NodeIndex v, double parent_dist) const;

  PathMetric metric_;
  /// Node u's outgoing arcs are arcs_[offset_[u] .. offset_[u + 1]),
  /// in Topology::outgoing order.
  std::vector<std::uint32_t> offset_;
  std::vector<Arc> arcs_;
  std::vector<std::uint32_t> from_;     ///< per link: its tail
  std::vector<std::uint32_t> reverse_;  ///< per link: its reverse, or kNoLink
  std::vector<char> forwards_;          ///< per node: 1 for routers
  std::vector<double> weight_;          ///< per link; weighted metrics only
  /// kHopCount only: node v's incoming links are
  /// in_links_[in_offset_[v] .. in_offset_[v + 1]), by tail, then in
  /// the tail's CSR order.
  std::vector<std::uint32_t> in_offset_;
  std::vector<std::uint32_t> in_links_;
  /// kHopCount only: per destination, its row of hop bounds in bounds_,
  /// or kNoLink until a run goes toward it; n bounds a row.
  std::vector<std::uint32_t> bound_row_;
  std::vector<std::uint16_t> bounds_;
  /// kHopCount only: run_toward's listings at the current f (and
  /// hop_bounds' queue) and, with their f, at higher ones.
  std::vector<std::uint32_t> open_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> later_;
  std::vector<std::uint32_t> link_bans_;
  std::vector<std::uint32_t> node_bans_;
  NodeIndex src_ = kInvalidIndex;
  std::vector<double> dist_;     ///< infinity where the last run never wrote
  std::vector<LinkIndex> via_;   ///< kInvalidIndex where it never wrote
  /// Nodes the last run wrote, in discovery order; for a kHopCount tree
  /// also the level-order queue, each level one run.
  std::vector<NodeIndex> touched_;
  std::vector<std::pair<double, NodeIndex>> heap_;  ///< weighted metrics
};

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
/// The same, written into `out`, whose buffers are reused.
void tree_children(const PathTree& tree, const Topology& topo,
                   TreeChildren& out);

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
