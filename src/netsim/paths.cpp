#include "netsim/paths.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

namespace hp::netsim {

double link_weight(const Link& link, PathMetric metric) {
  switch (metric) {
    case PathMetric::kDelay:
      return link.delay_ms;
    case PathMetric::kHopCount:
      return 1.0;
    case PathMetric::kInverseCapacity:
      return 1.0 / link.capacity_mbps;
  }
  throw std::logic_error("link_weight: unknown metric");
}

namespace {

using QueueEntry = std::pair<double, NodeIndex>;

/// The one search behind every query here.  Bans are dense masks
/// indexed by LinkIndex / NodeIndex, and the tree and the queue are a
/// workspace that repeated searches (the disjoint-path planner, Yen's
/// spurs) reuse.  Nothing allocates per banned element: the frontiers
/// (hop count) hold each node at most once, and the heap (weighted
/// metrics) at most one entry per link plus the source, so each is
/// reserved once for its bound.
struct Search {
  Search(const Topology& topo, PathMetric metric)
      : topo(topo),
        metric(metric),
        banned_link(topo.link_count(), 0),
        banned_node(topo.node_count(), 0) {
    if (metric == PathMetric::kHopCount) {
      frontier.reserve(topo.node_count());
      next.reserve(topo.node_count());
    } else {
      heap.reserve(topo.link_count() + 1);
    }
  }

  /// Mask `links` out of every later run (ids past the topology name no
  /// link and are ignored).
  void ban_links(const std::vector<LinkIndex>& links) {
    for (const LinkIndex l : links) {
      if (l < banned_link.size()) banned_link[l] = 1;
    }
  }

  /// Search from `src` until `dst` is reached; kInvalidIndex never is,
  /// which grows the full tree.  Nodes settle in (dist, node) order and
  /// a relax needs a strict improvement, so the first settled
  /// predecessor keeps a tie.  Hosts do not forward: they may start a
  /// path but not extend one.
  void run(NodeIndex src, NodeIndex dst) {
    const std::size_t n = topo.node_count();
    tree.src = src;
    tree.dist.assign(n, std::numeric_limits<double>::infinity());
    tree.via.assign(n, kInvalidIndex);
    tree.dist[src] = 0.0;
    if (metric == PathMetric::kHopCount) {
      run_levels(src, dst);
    } else {
      run_heap(src, dst);
    }
  }

  /// Unit weights: a node's distance is final once it is discovered,
  /// so expanding one level at a time, each in ascending node order,
  /// settles nodes in exactly the heap's (dist, node) order without a
  /// heap.  `dst`'s via is final on discovery, so the run stops there.
  void run_levels(NodeIndex src, NodeIndex dst) {
    if (src == dst) return;
    frontier.assign(1, src);
    for (double d = 1.0; !frontier.empty(); d += 1.0) {
      next.clear();
      for (const NodeIndex u : frontier) {
        if (u != src && topo.node(u).kind == NodeKind::kHost) continue;
        for (const LinkIndex l : topo.outgoing(u)) {
          if (banned_link[l]) continue;
          const Link& link = topo.link(l);
          if (banned_node[link.to] || tree.dist[link.to] <= d) continue;
          tree.dist[link.to] = d;
          tree.via[link.to] = l;
          if (link.to == dst) return;
          next.push_back(link.to);
        }
      }
      std::ranges::sort(next);
      std::swap(frontier, next);
    }
  }

  /// Weighted metrics: Dijkstra over a binary heap of (dist, node).
  void run_heap(NodeIndex src, NodeIndex dst) {
    heap.clear();
    constexpr std::greater<> later;
    heap.emplace_back(0.0, src);
    while (!heap.empty()) {
      std::ranges::pop_heap(heap, later);
      const auto [d, u] = heap.back();
      heap.pop_back();
      if (d > tree.dist[u]) continue;
      if (u == dst) break;
      if (u != src && topo.node(u).kind == NodeKind::kHost) continue;
      for (const LinkIndex l : topo.outgoing(u)) {
        if (banned_link[l]) continue;
        const Link& link = topo.link(l);
        if (banned_node[link.to]) continue;
        const double nd = d + link_weight(link, metric);
        if (nd < tree.dist[link.to]) {
          tree.dist[link.to] = nd;
          tree.via[link.to] = l;
          heap.emplace_back(nd, link.to);
          std::ranges::push_heap(heap, later);
        }
      }
    }
  }

  const Topology& topo;
  PathMetric metric;
  std::vector<char> banned_link;
  std::vector<char> banned_node;
  PathTree tree;
  std::vector<NodeIndex> frontier;  ///< hop count: the level being expanded
  std::vector<NodeIndex> next;      ///< hop count: the level it discovers
  std::vector<QueueEntry> heap;     ///< weighted metrics
};

}  // namespace

PathTree shortest_path_tree(const Topology& topo, NodeIndex src,
                            PathMetric metric,
                            const std::vector<LinkIndex>& banned) {
  if (src >= topo.node_count()) {
    throw std::out_of_range("shortest_path_tree: bad node index");
  }
  Search search(topo, metric);
  search.ban_links(banned);
  search.run(src, kInvalidIndex);
  return std::move(search.tree);
}

std::optional<Path> tree_path(const PathTree& tree, const Topology& topo,
                              NodeIndex dst) {
  if (dst >= tree.via.size()) {
    throw std::out_of_range("tree_path: bad node index");
  }
  if (dst == tree.src) return Path{};
  if (tree.via[dst] == kInvalidIndex) return std::nullopt;
  Path path;
  for (NodeIndex cur = dst; cur != tree.src;) {
    const LinkIndex l = tree.via[cur];
    if (l == kInvalidIndex) return std::nullopt;
    path.push_back(l);
    cur = topo.link(l).from;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

TreeChildren tree_children(const PathTree& tree, const Topology& topo) {
  // Counting sort by parent: count each parent's children, prefix-sum
  // the counts into offsets, then place children in one ascending scan.
  const std::size_t n = tree.via.size();
  TreeChildren out;
  out.offset.assign(n + 1, 0);
  const auto parent_of = [&](NodeIndex c) {
    return c == tree.src || tree.via[c] == kInvalidIndex
               ? kInvalidIndex
               : topo.link(tree.via[c]).from;
  };
  for (NodeIndex c = 0; c < n; ++c) {
    if (const NodeIndex p = parent_of(c); p != kInvalidIndex) {
      ++out.offset[p + 1];
    }
  }
  for (std::size_t v = 0; v < n; ++v) out.offset[v + 1] += out.offset[v];
  out.child.resize(out.offset[n]);
  std::vector<std::size_t> fill(out.offset.begin(), out.offset.end() - 1);
  for (NodeIndex c = 0; c < n; ++c) {
    if (const NodeIndex p = parent_of(c); p != kInvalidIndex) {
      out.child[fill[p]++] = c;
    }
  }
  return out;
}

std::optional<Path> shortest_path(const Topology& topo, NodeIndex src,
                                  NodeIndex dst, PathMetric metric) {
  if (src >= topo.node_count() || dst >= topo.node_count()) {
    throw std::out_of_range("shortest_path: bad node index");
  }
  if (src == dst) return Path{};
  Search search(topo, metric);
  search.run(src, dst);
  return tree_path(search.tree, topo, dst);
}

double path_weight(const Topology& topo, const Path& path,
                   PathMetric metric) {
  double total = 0.0;
  for (const LinkIndex l : path) total += link_weight(topo.link(l), metric);
  return total;
}

std::vector<NodeIndex> path_nodes(const Topology& topo, const Path& path) {
  std::vector<NodeIndex> nodes;
  if (path.empty()) return nodes;
  nodes.push_back(topo.link(path.front()).from);
  for (const LinkIndex l : path) nodes.push_back(topo.link(l).to);
  return nodes;
}

std::vector<Path> k_shortest_paths(const Topology& topo, NodeIndex src,
                                   NodeIndex dst, std::size_t k,
                                   PathMetric metric) {
  if (src >= topo.node_count() || dst >= topo.node_count()) {
    throw std::out_of_range("k_shortest_paths: bad node index");
  }
  std::vector<Path> result;
  if (k == 0 || src == dst) return result;
  const auto first = shortest_path(topo, src, dst, metric);
  if (!first) return result;
  result.push_back(*first);

  // Candidate pool ordered by weight (then lexicographic for
  // determinism).
  auto cmp = [&](const Path& a, const Path& b) {
    const double wa = path_weight(topo, a, metric);
    const double wb = path_weight(topo, b, metric);
    if (wa != wb) return wa < wb;
    return a < b;
  };
  std::set<Path, decltype(cmp)> candidates(cmp);

  Search search(topo, metric);
  while (result.size() < k) {
    const Path& previous = result.back();
    const auto prev_nodes = path_nodes(topo, previous);
    // Spur from every node of the previous path (except the last).
    for (std::size_t i = 0; i + 1 < prev_nodes.size(); ++i) {
      const NodeIndex spur = prev_nodes[i];
      const Path root(previous.begin(),
                      previous.begin() + static_cast<std::ptrdiff_t>(i));

      // Ban links that would recreate an already-found path with this
      // root, and ban root nodes to keep paths loopless; the same walk
      // with 0 lifts the bans again after the spur search.
      const auto mark = [&](char banned) {
        for (const Path& found : result) {
          if (found.size() > i &&
              std::equal(root.begin(), root.end(), found.begin())) {
            search.banned_link[found[i]] = banned;
          }
        }
        for (std::size_t j = 0; j < i; ++j) {
          search.banned_node[prev_nodes[j]] = banned;
        }
      };
      mark(1);
      search.run(spur, dst);
      mark(0);
      const auto spur_path = tree_path(search.tree, topo, dst);
      if (!spur_path) continue;
      Path total = root;
      total.insert(total.end(), spur_path->begin(), spur_path->end());
      if (std::find(result.begin(), result.end(), total) == result.end()) {
        candidates.insert(std::move(total));
      }
    }
    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return result;
}

std::vector<Path> k_disjoint_paths(const Topology& topo, NodeIndex src,
                                   NodeIndex dst, std::size_t k,
                                   PathMetric metric,
                                   const std::vector<LinkIndex>& banned) {
  if (src >= topo.node_count() || dst >= topo.node_count()) {
    throw std::out_of_range("k_disjoint_paths: bad node index");
  }
  std::vector<Path> result;
  if (k == 0 || src == dst) return result;
  // Iterative search with an accumulating ban set: each found path
  // retires its links (both directions) before the next search, so the
  // results are mutually duplex-link-disjoint by construction.
  Search search(topo, metric);
  search.ban_links(banned);
  while (result.size() < k) {
    search.run(src, dst);
    auto path = tree_path(search.tree, topo, dst);
    if (!path || path->empty()) break;
    for (const LinkIndex l : *path) {
      search.banned_link[l] = 1;
      const Link& link = topo.link(l);
      if (const auto rev = topo.link_between(link.to, link.from)) {
        search.banned_link[*rev] = 1;
      }
    }
    result.push_back(std::move(*path));
  }
  return result;
}

}  // namespace hp::netsim
