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
  if (metric == PathMetric::kHopCount) {
    // Incoming arcs by head, counting-sorted from the arcs in CSR
    // order: each head's run is ordered by tail, then by CSR position.
    in_offset_.assign(n + 1, 0);
    for (const Arc& arc : arcs_) ++in_offset_[arc.to + 1];
    for (std::size_t v = 0; v < n; ++v) in_offset_[v + 1] += in_offset_[v];
    in_links_.resize(m);
    std::vector<std::uint32_t> next(in_offset_.begin(), in_offset_.end() - 1);
    for (const Arc& arc : arcs_) in_links_[next[arc.to]++] = arc.link;
    bound_row_.assign(n, kNoLink);
    // A run lists a node only when its g improves, and expands it at
    // most once, so it lists at most one node per arc, and the source;
    // hop_bounds' queue holds dst and at most one node per arc too.
    open_.reserve(m + 1);
    later_.reserve(m + 1);
  } else {
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
  if (metric_ != PathMetric::kHopCount) {
    run_heap(src, dst);
  } else if (dst == kInvalidIndex) {
    run_levels(src);
  } else if (dst != src) {
    run_toward(src, dst);
  }
}

void PathSearch::run_levels(NodeIndex src) {
  // Unit weights: a node's distance is final once it is discovered, so
  // the tree grows one level at a time, touched_ its queue.  The tie
  // rule -- a node's parent is its lowest-index neighbour one level
  // nearer, over that neighbour's first arc in CSR order -- needs no
  // level order: a node found again by the level that found it takes
  // the lower-index parent.
  std::size_t level = 0;
  for (double d = 1.0; level < touched_.size(); d += 1.0) {
    const std::size_t level_end = touched_.size();
    for (std::size_t i = level; i < level_end; ++i) {
      const NodeIndex u = touched_[i];
      if (u != src && forwards_[u] == 0) continue;
      for (std::uint32_t e = offset_[u]; e < offset_[u + 1]; ++e) {
        const Arc arc = arcs_[e];
        const double seen = dist_[arc.to];
        if (seen < d || link_bans_[arc.link] != 0) continue;
        if (seen == d) {
          if (u < from_[via_[arc.to]]) via_[arc.to] = arc.link;
          continue;
        }
        if (node_bans_[arc.to] != 0) continue;
        dist_[arc.to] = d;
        via_[arc.to] = arc.link;
        touched_.push_back(arc.to);
      }
    }
    level = level_end;
  }
}

void PathSearch::run_toward(NodeIndex src, NodeIndex dst) {
  // A* on unit weights.  The bound h -- the hop distance to dst with no
  // bans -- never overestimates and drops by at most 1 along an arc, so
  // nodes settle in ascending f = g + h with their final g, and every
  // node on a shortest path to dst has f no greater than dst's.
  // Settling all of them (until nothing is left at dst's f) fixes g on
  // every node the tie rule may pick; the rule is then walked back from
  // dst.  A node whose g improves is listed again; its old listing,
  // whose f no longer matches, is skipped.  open_ holds the listings at
  // the current f, later_ the rest with their f.
  const std::uint16_t* h = hop_bounds(dst);
  if (h[src] == kFar) return;
  std::uint32_t f = h[src];
  std::uint32_t goal = UINT32_MAX;  // dst's f, once settled
  open_.assign(1, static_cast<std::uint32_t>(src));
  later_.clear();
  while (true) {
    while (!open_.empty()) {
      const std::uint32_t u = open_.back();
      open_.pop_back();
      const double g = dist_[u];
      if (g + h[u] != f) continue;  // listed again since, with a lower f
      if (u == dst) {
        goal = f;
        continue;
      }
      if (u != src && forwards_[u] == 0) continue;
      for (std::uint32_t e = offset_[u]; e < offset_[u + 1]; ++e) {
        const Arc arc = arcs_[e];
        if (dist_[arc.to] <= g + 1.0 || h[arc.to] == kFar ||
            link_bans_[arc.link] != 0 || node_bans_[arc.to] != 0) {
          continue;
        }
        const std::uint32_t nf =
            static_cast<std::uint32_t>(g) + 1 + h[arc.to];
        if (nf > goal) continue;
        if (dist_[arc.to] == std::numeric_limits<double>::infinity()) {
          touched_.push_back(arc.to);
        }
        dist_[arc.to] = g + 1.0;
        if (nf == f) {
          open_.push_back(arc.to);
        } else {
          later_.emplace_back(nf, arc.to);
        }
      }
    }
    if (goal != UINT32_MAX || later_.empty()) break;
    // Move on to the lowest f listed.
    f = UINT32_MAX;
    for (const auto& listing : later_) f = std::min(f, listing.first);
    std::erase_if(later_, [&](const auto& listing) {
      if (listing.first != f) return false;
      open_.push_back(listing.second);
      return true;
    });
  }
  if (goal == UINT32_MAX) return;
  for (NodeIndex v = dst; v != src; v = from_[via_[v]]) {
    via_[v] = parent_link(v, dist_[v] - 1.0);
  }
}

const std::uint16_t* PathSearch::hop_bounds(NodeIndex dst) {
  // A reverse level-order pass over incoming arcs, with no bans: a node
  // leads on only through a forwarding node, or straight into dst.
  // open_ is the queue; run_toward refills it after.
  const std::size_t n = forwards_.size();
  if (bound_row_[dst] == kNoLink) {
    bound_row_[dst] = static_cast<std::uint32_t>(bounds_.size() / n);
    bounds_.resize(bounds_.size() + n, kFar);
    std::uint16_t* h = bounds_.data() + bounds_.size() - n;
    h[dst] = 0;
    open_.assign(1, static_cast<std::uint32_t>(dst));
    for (std::size_t i = 0; i < open_.size(); ++i) {
      const std::uint32_t v = open_[i];
      if (v != dst && forwards_[v] == 0) continue;
      const auto next = static_cast<std::uint16_t>(
          std::min<std::uint32_t>(h[v] + 1U, kFar - 1U));
      for (std::uint32_t e = in_offset_[v]; e < in_offset_[v + 1]; ++e) {
        const std::uint32_t u = from_[in_links_[e]];
        if (h[u] != kFar) continue;
        h[u] = next;
        open_.push_back(u);
      }
    }
  }
  return bounds_.data() + std::size_t{bound_row_[dst]} * n;
}

LinkIndex PathSearch::parent_link(NodeIndex v, double parent_dist) const {
  // Incoming arcs are ordered by tail, then by the tail's CSR order, so
  // the first usable one is the tie rule's.
  for (std::uint32_t e = in_offset_[v]; e < in_offset_[v + 1]; ++e) {
    const std::uint32_t l = in_links_[e];
    const std::uint32_t u = from_[l];
    if (dist_[u] == parent_dist && link_bans_[l] == 0 &&
        (u == src_ || forwards_[u] != 0)) {
      return l;
    }
  }
  HP_CHECK(false, "PathSearch: a reached node has no parent arc");
  return kInvalidIndex;
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
