#include "netsim/paths.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/contracts.hpp"

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

/// The path `via` records from `src` to `dst`, sized before it is
/// filled: one allocation.  `tail(l)` names link l's tail.
template <typename Tail>
std::optional<Path> walk_back(NodeIndex src, const std::vector<LinkIndex>& via,
                              NodeIndex dst, Tail tail) {
  if (dst == src) return Path{};
  std::size_t hops = 0;
  for (NodeIndex cur = dst; cur != src; cur = tail(via[cur])) {
    if (via[cur] == kInvalidIndex) return std::nullopt;
    ++hops;
  }
  Path path(hops);
  for (NodeIndex cur = dst; cur != src; cur = tail(via[cur])) {
    path[--hops] = via[cur];
  }
  return path;
}

}  // namespace

PathSearch::PathSearch(const Topology& topo, PathMetric metric)
    : metric_(metric) {
  const std::size_t n = topo.node_count();
  const std::size_t m = topo.link_count();
  HP_CHECK(n < kNoLink, "PathSearch: node count exceeds its 32-bit index");
  HP_CHECK(m < kNoLink, "PathSearch: link count exceeds its 32-bit index");
  offset_.reserve(n + 1);
  offset_.push_back(0);
  arcs_.reserve(m);
  forwards_.resize(n);
  for (NodeIndex u = 0; u < n; ++u) {
    forwards_[u] = topo.node(u).kind == NodeKind::kRouter ? 1 : 0;
    for (const LinkIndex l : topo.outgoing(u)) {
      arcs_.push_back(Arc{static_cast<std::uint32_t>(topo.link(l).to),
                          static_cast<std::uint32_t>(l)});
    }
    offset_.push_back(static_cast<std::uint32_t>(arcs_.size()));
  }
  from_.resize(m);
  for (LinkIndex l = 0; l < m; ++l) {
    from_[l] = static_cast<std::uint32_t>(topo.link(l).from);
  }
  // A link's reverse is the first arc back from its head, the link
  // Topology::link_between(to, from) names.
  reverse_.assign(m, kNoLink);
  for (LinkIndex l = 0; l < m; ++l) {
    const std::uint32_t tail = from_[l];
    const NodeIndex head = topo.link(l).to;
    for (std::uint32_t e = offset_[head]; e < offset_[head + 1]; ++e) {
      if (arcs_[e].to == tail) {
        reverse_[l] = arcs_[e].link;
        break;
      }
    }
  }
  if (metric != PathMetric::kHopCount) {
    weight_.resize(m);
    for (LinkIndex l = 0; l < m; ++l) {
      weight_[l] = link_weight(topo.link(l), metric);
    }
    heap_.reserve(m + 1);
  }
  link_bans_.assign(m, 0);
  node_bans_.assign(n, 0);
  dist_.assign(n, std::numeric_limits<double>::infinity());
  via_.assign(n, kInvalidIndex);
  touched_.reserve(n);
}

void PathSearch::ban_link(LinkIndex l) { ++link_bans_[l]; }

void PathSearch::unban_link(LinkIndex l) {
  HP_CHECK(link_bans_[l] > 0, "PathSearch: unban of an unbanned link");
  --link_bans_[l];
}

void PathSearch::ban_duplex(LinkIndex l) {
  ban_link(l);
  if (reverse_[l] != kNoLink) ban_link(reverse_[l]);
}

void PathSearch::unban_duplex(LinkIndex l) {
  unban_link(l);
  if (reverse_[l] != kNoLink) unban_link(reverse_[l]);
}

void PathSearch::ban_node(NodeIndex v) { ++node_bans_[v]; }

void PathSearch::unban_node(NodeIndex v) {
  HP_CHECK(node_bans_[v] > 0, "PathSearch: unban of an unbanned node");
  --node_bans_[v];
}

void PathSearch::run(NodeIndex src, NodeIndex dst) {
  for (const NodeIndex v : touched_) {
    dist_[v] = std::numeric_limits<double>::infinity();
    via_[v] = kInvalidIndex;
  }
  touched_.clear();
  src_ = src;
  dist_[src] = 0.0;
  touched_.push_back(src);
  if (metric_ == PathMetric::kHopCount) {
    run_levels(src, dst);
  } else {
    run_heap(src, dst);
  }
}

void PathSearch::run_levels(NodeIndex src, NodeIndex dst) {
  // Unit weights: a node's distance is final once it is discovered, so
  // expanding one level at a time, each in ascending node order,
  // settles nodes in exactly the heap's (dist, node) order without a
  // heap.  `dst`'s via is final on discovery, so the run stops there.
  // touched_ is the queue: each level is one sorted run of it.
  if (src == dst) return;
  std::size_t level = 0;
  for (double d = 1.0; level < touched_.size(); d += 1.0) {
    const std::size_t level_end = touched_.size();
    for (std::size_t i = level; i < level_end; ++i) {
      const NodeIndex u = touched_[i];
      if (u != src && forwards_[u] == 0) continue;
      for (std::uint32_t e = offset_[u]; e < offset_[u + 1]; ++e) {
        const Arc arc = arcs_[e];
        if (link_bans_[arc.link] != 0 || node_bans_[arc.to] != 0 ||
            dist_[arc.to] <= d) {
          continue;
        }
        dist_[arc.to] = d;
        via_[arc.to] = arc.link;
        touched_.push_back(arc.to);
        if (arc.to == dst) return;
      }
    }
    std::sort(touched_.begin() + static_cast<std::ptrdiff_t>(level_end),
              touched_.end());
    level = level_end;
  }
}

void PathSearch::run_heap(NodeIndex src, NodeIndex dst) {
  // Weighted metrics: Dijkstra over a binary heap of (dist, node).
  heap_.clear();
  constexpr std::greater<> later;
  heap_.emplace_back(0.0, src);
  while (!heap_.empty()) {
    std::ranges::pop_heap(heap_, later);
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > dist_[u]) continue;
    if (u == dst) break;
    if (u != src && forwards_[u] == 0) continue;
    for (std::uint32_t e = offset_[u]; e < offset_[u + 1]; ++e) {
      const Arc arc = arcs_[e];
      if (link_bans_[arc.link] != 0 || node_bans_[arc.to] != 0) continue;
      const double nd = d + weight_[arc.link];
      if (nd < dist_[arc.to]) {
        if (dist_[arc.to] == std::numeric_limits<double>::infinity()) {
          touched_.push_back(arc.to);
        }
        dist_[arc.to] = nd;
        via_[arc.to] = arc.link;
        heap_.emplace_back(nd, arc.to);
        std::ranges::push_heap(heap_, later);
      }
    }
  }
}

std::optional<Path> PathSearch::path_to(NodeIndex dst) const {
  return walk_back(src_, via_, dst, [&](LinkIndex l) { return from_[l]; });
}

PathTree PathSearch::tree() const { return PathTree{src_, dist_, via_}; }

void PathSearch::tree(PathTree& out) const {
  out.src = src_;
  out.dist.assign(dist_.begin(), dist_.end());
  out.via.assign(via_.begin(), via_.end());
}

std::size_t PathSearch::disjoint_paths(NodeIndex src, NodeIndex dst,
                                       std::size_t k, std::vector<Path>& out) {
  // Each found path retires its links (both directions) before the
  // next search, so the results are mutually duplex-link-disjoint by
  // construction; the last one needs no retiring.
  const std::size_t first = out.size();
  if (src == dst) return 0;
  std::size_t found = 0;
  std::size_t retired = 0;
  while (found < k) {
    run(src, dst);
    auto path = path_to(dst);
    if (!path || path->empty()) break;
    out.push_back(std::move(*path));
    if (++found == k) break;
    for (const LinkIndex l : out.back()) ban_duplex(l);
    ++retired;
  }
  for (std::size_t i = 0; i < retired; ++i) {
    for (const LinkIndex l : out[first + i]) unban_duplex(l);
  }
  return found;
}

PathTree shortest_path_tree(const Topology& topo, NodeIndex src,
                            PathMetric metric,
                            const std::vector<LinkIndex>& banned) {
  if (src >= topo.node_count()) {
    throw std::out_of_range("shortest_path_tree: bad node index");
  }
  PathSearch search(topo, metric);
  for (const LinkIndex l : banned) {
    if (l < search.link_count()) search.ban_link(l);
  }
  search.run(src);
  return search.tree();
}

std::optional<Path> tree_path(const PathTree& tree, const Topology& topo,
                              NodeIndex dst) {
  if (dst >= tree.via.size()) {
    throw std::out_of_range("tree_path: bad node index");
  }
  return walk_back(tree.src, tree.via, dst,
                   [&](LinkIndex l) { return topo.link(l).from; });
}

TreeChildren tree_children(const PathTree& tree, const Topology& topo) {
  TreeChildren out;
  tree_children(tree, topo, out);
  return out;
}

void tree_children(const PathTree& tree, const Topology& topo,
                   TreeChildren& out) {
  // Counting sort by parent: count each parent's children, prefix-sum
  // the counts into offsets, then place children in one ascending scan,
  // which advances offset[p] to p's end; one shift restores the starts.
  const std::size_t n = tree.via.size();
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
  for (NodeIndex c = 0; c < n; ++c) {
    if (const NodeIndex p = parent_of(c); p != kInvalidIndex) {
      out.child[out.offset[p]++] = c;
    }
  }
  for (std::size_t v = n; v > 0; --v) out.offset[v] = out.offset[v - 1];
  out.offset[0] = 0;
}

std::optional<Path> shortest_path(const Topology& topo, NodeIndex src,
                                  NodeIndex dst, PathMetric metric) {
  if (src >= topo.node_count() || dst >= topo.node_count()) {
    throw std::out_of_range("shortest_path: bad node index");
  }
  if (src == dst) return Path{};
  PathSearch search(topo, metric);
  search.run(src, dst);
  return search.path_to(dst);
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
  PathSearch search(topo, metric);
  search.run(src, dst);
  auto first = search.path_to(dst);
  if (!first) return result;
  result.push_back(std::move(*first));

  // Candidate pool ordered by weight (then lexicographic for
  // determinism).
  auto cmp = [&](const Path& a, const Path& b) {
    const double wa = path_weight(topo, a, metric);
    const double wb = path_weight(topo, b, metric);
    if (wa != wb) return wa < wb;
    return a < b;
  };
  std::set<Path, decltype(cmp)> candidates(cmp);

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
      const auto mark = [&](bool ban) {
        for (const Path& found : result) {
          if (found.size() > i &&
              std::equal(root.begin(), root.end(), found.begin())) {
            ban ? search.ban_link(found[i]) : search.unban_link(found[i]);
          }
        }
        for (std::size_t j = 0; j < i; ++j) {
          ban ? search.ban_node(prev_nodes[j])
              : search.unban_node(prev_nodes[j]);
        }
      };
      mark(true);
      search.run(spur, dst);
      mark(false);
      const auto spur_path = search.path_to(dst);
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
  if (k == 0) return result;
  PathSearch search(topo, metric);
  for (const LinkIndex l : banned) {
    if (l < search.link_count()) search.ban_link(l);
  }
  result.reserve(k);
  (void)search.disjoint_paths(src, dst, k, result);
  return result;
}

}  // namespace hp::netsim
