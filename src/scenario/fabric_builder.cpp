#include "scenario/fabric_builder.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "core/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/shard.hpp"

namespace hp::scenario {

namespace {

using netsim::kInvalidIndex;
using netsim::NodeIndex;
using KeysByLink = std::vector<std::vector<std::uint64_t>>;

/// Add `key` to the sorted list of every link on `path`.
void index_path(KeysByLink& by_link, std::uint64_t key,
                const netsim::Path& path) {
  for (const netsim::LinkIndex l : path) {
    auto& keys = by_link[l];
    keys.insert(std::ranges::lower_bound(keys, key), key);
  }
}

/// Remove `key` from the sorted list of every link on `path`.
void unindex_path(KeysByLink& by_link, std::uint64_t key,
                  const netsim::Path& path) {
  for (const netsim::LinkIndex l : path) {
    auto& keys = by_link[l];
    const auto pos = std::ranges::lower_bound(keys, key);
    if (pos != keys.end() && *pos == key) keys.erase(pos);
  }
}

/// Drop the sorted, non-empty `gone` from sorted `keys` in place: one
/// forward pass over both lists, so each kept key moves at most once
/// however many keys go.
void erase_keys(std::vector<std::uint64_t>& keys,
                std::span<const std::uint64_t> gone) {
  auto next = gone.begin();
  auto kept = static_cast<std::size_t>(
      std::ranges::lower_bound(keys, *next) - keys.begin());
  for (std::size_t i = kept; i < keys.size(); ++i) {
    while (next != gone.end() && *next < keys[i]) ++next;
    if (next != gone.end() && *next == keys[i]) continue;
    keys[kept++] = keys[i];
  }
  keys.resize(kept);
}

/// Merge sorted `added` into sorted `keys` in place, from the back, so
/// only the keys above the smallest addition move, each once.
void insert_keys(std::vector<std::uint64_t>& keys,
                 std::span<const std::uint64_t> added) {
  std::size_t i = keys.size();
  std::size_t j = added.size();
  keys.resize(i + j);
  std::size_t out = keys.size();
  while (j > 0) {
    if (i > 0 && keys[i - 1] > added[j - 1]) {
      keys[--out] = keys[--i];
    } else {
      keys[--out] = added[--j];
    }
  }
}

/// The (link, key) hops of many routes, applied to a link -> sorted-keys
/// index list by list: each touched list moves once per batch, where a
/// binary-search edit per hop would move its tail once per route.
/// Hops are grouped by a counting pass over the link ids, O(links +
/// hops), since a comparison sort of an event's hops costs more than
/// the edits it saves.
class LinkKeyBatch {
 public:
  void add(std::uint64_t key, const netsim::Path& path) {
    for (const netsim::LinkIndex l : path) hops_.emplace_back(l, key);
  }

  /// Remove every hop's key from its link's list (each must be there).
  void erase_from(KeysByLink& by_link) const {
    for_each_link(by_link.size(), [&](netsim::LinkIndex l, auto keys) {
      erase_keys(by_link[l], keys);
    });
  }

  /// Add every hop's key to its link's list.
  void insert_into(KeysByLink& by_link) const {
    for_each_link(by_link.size(), [&](netsim::LinkIndex l, auto keys) {
      insert_keys(by_link[l], keys);
    });
  }

 private:
  /// Calls fn(link, sorted keys) once per link some hop names.
  template <typename Fn>
  void for_each_link(std::size_t links, Fn&& fn) const {
    if (hops_.empty()) return;
    std::vector<std::size_t> begin(links + 1, 0);
    for (const auto& [l, key] : hops_) ++begin[l + 1];
    std::partial_sum(begin.begin(), begin.end(), begin.begin());
    std::vector<std::size_t> fill(begin.begin(), begin.end() - 1);
    std::vector<std::uint64_t> keys(hops_.size());
    for (const auto& [l, key] : hops_) keys[fill[l]++] = key;
    for (netsim::LinkIndex l = 0; l < links; ++l) {
      if (begin[l] == begin[l + 1]) continue;
      const std::span<std::uint64_t> group(keys.data() + begin[l],
                                           keys.data() + begin[l + 1]);
      // Callers add routes in key order, so this is nearly always a
      // pass over an already sorted handful.
      std::ranges::sort(group);
      fn(l, std::span<const std::uint64_t>(group));
    }
  }

  std::vector<std::pair<netsim::LinkIndex, std::uint64_t>> hops_;
};

/// Calls fn(run) once per source in ascending `keys`, each run the
/// keys (src << 32 | dst) of one source.
template <typename Fn>
void for_each_source(std::span<const std::uint64_t> keys, Fn&& fn) {
  for (std::size_t begin = 0; begin < keys.size();) {
    std::size_t end = begin + 1;
    while (end < keys.size() && keys[end] >> 32 == keys[begin] >> 32) ++end;
    fn(keys.subspan(begin, end - begin));
    begin = end;
  }
}

}  // namespace

/// Link-index edits of one event, applied together at its end: every
/// overwritten route's old hops leave, then every stored route's hops
/// arrive.  An event writes each key at most once.
struct BuiltFabric::IndexEdits {
  LinkKeyBatch erased;
  LinkKeyBatch inserted;

  void apply(KeysByLink& by_link) const {
    erased.erase_from(by_link);
    inserted.insert_into(by_link);
  }
};

void BuiltFabric::note_compile(
    const char* phase, const CompileStats& before,
    std::chrono::steady_clock::time_point start) const {
  if (metrics_ == nullptr) return;
  metrics_->counter("compile.routes")
      .add(stats_.routes_compiled - before.routes_compiled);
  metrics_->counter("compile.trees")
      .add(stats_.trees_built - before.trees_built);
  metrics_->counter("compile.crt_steps")
      .add(stats_.crt_steps - before.crt_steps);
  char name[48];
  std::snprintf(name, sizeof(name), "compile.%s_ns", phase);
  metrics_->histogram(name).record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
}

BuiltFabric::BuiltFabric(netsim::Topology topo)
    : topo_(std::move(topo)),
      search_(topo_, netsim::PathMetric::kHopCount) {
  topo_to_fabric_.assign(topo_.node_count(), kInvalidIndex);
  // First pass: distinct router neighbours of every router, in
  // outgoing-link order, so port numbering is deterministic.  A hash
  // set backs the dedup so high-degree nodes stay O(d), not O(d^2).
  std::vector<std::vector<NodeIndex>> neighbours(topo_.node_count());
  std::unordered_set<NodeIndex> seen;
  for (NodeIndex n = 0; n < topo_.node_count(); ++n) {
    if (topo_.node(n).kind != netsim::NodeKind::kRouter) continue;
    seen.clear();
    for (const netsim::LinkIndex l : topo_.outgoing(n)) {
      const NodeIndex peer = topo_.link(l).to;
      if (topo_.node(peer).kind != netsim::NodeKind::kRouter) continue;
      if (seen.insert(peer).second) neighbours[n].push_back(peer);
    }
  }
  for (NodeIndex n = 0; n < topo_.node_count(); ++n) {
    if (topo_.node(n).kind != netsim::NodeKind::kRouter) continue;
    const unsigned ports = static_cast<unsigned>(neighbours[n].size()) + 1;
    topo_to_fabric_[n] = fabric_.add_node(topo_.node(n).name, ports);
    fabric_to_topo_.push_back(n);
  }
  for (NodeIndex n = 0; n < topo_.node_count(); ++n) {
    if (topo_to_fabric_[n] == kInvalidIndex) continue;
    unsigned port = 0;
    for (const NodeIndex peer : neighbours[n]) {
      fabric_.connect(topo_to_fabric_[n], port++, topo_to_fabric_[peer]);
    }
  }
  link_down_.assign(topo_.link_count(), 0);
  routes_by_link_.resize(topo_.link_count());
  saved_by_link_.resize(topo_.link_count());
  node_bits_.resize(fabric_.node_count());
  node_degree_.resize(fabric_.node_count());
  for (std::size_t f = 0; f < fabric_.node_count(); ++f) {
    const gf2::Poly& id = fabric_.node(f).poly;
    node_bits_[f] = id.to_uint64();
    node_degree_[f] = id.degree();
  }
  link_port_.assign(topo_.link_count(), 0);
  for (netsim::LinkIndex l = 0; l < topo_.link_count(); ++l) {
    const netsim::Link& link = topo_.link(l);
    const std::size_t from = topo_to_fabric_[link.from];
    const std::size_t to = topo_to_fabric_[link.to];
    if (from == kInvalidIndex || to == kInvalidIndex) continue;
    if (const auto port = fabric_.port_between(from, to)) link_port_[l] = *port;
  }
}

std::size_t BuiltFabric::fabric_index(NodeIndex topo_node) const {
  if (topo_node >= topo_to_fabric_.size() ||
      topo_to_fabric_[topo_node] == kInvalidIndex) {
    throw std::invalid_argument("BuiltFabric: node is not a router");
  }
  return topo_to_fabric_[topo_node];
}

unsigned BuiltFabric::egress_port(std::size_t fabric_node) const {
  return fabric_.node(fabric_node).port_count - 1;
}

const netsim::PathTree& BuiltFabric::tree_for(NodeIndex src) {
  auto it = trees_.find(src);
  if (it == trees_.end()) {
    search_.run(src);
    it = trees_.emplace(src, search_.tree()).first;
    ++stats_.trees_built;
  }
  return it->second;
}

CompiledRoute& BuiltFabric::store_route(RouteKey key, CompiledRoute&& route,
                                        bool count_compile,
                                        IndexEdits* batch) {
  const auto [it, inserted] = routes_.try_emplace(key);
  if (!inserted) {
    if (batch != nullptr) {
      batch->erased.add(key, it->second.path);
    } else {
      unindex_path(routes_by_link_, key, it->second.path);
    }
  }
  it->second = std::move(route);
  if (batch != nullptr) {
    batch->inserted.add(key, it->second.path);
  } else {
    index_path(routes_by_link_, key, it->second.path);
  }
  if (count_compile) ++stats_.routes_compiled;
  return it->second;
}

bool BuiltFabric::crosses_failed_link(const netsim::Path& path) const {
  return std::ranges::any_of(
      path, [&](netsim::LinkIndex l) { return link_down_[l] != 0; });
}

const CompiledRoute* BuiltFabric::route(NodeIndex src, NodeIndex dst) {
  if (src == dst) {
    throw std::invalid_argument("BuiltFabric::route: src == dst");
  }
  const RouteKey key = netsim::node_pair_key(src, dst);
  if (const auto it = routes_.find(key); it != routes_.end()) {
    return &it->second;
  }
  (void)fabric_index(src);  // validates both endpoints are routers
  (void)fabric_index(dst);
  const CompileStats before = stats_;
  const auto t0 = std::chrono::steady_clock::now();
  auto path = netsim::tree_path(tree_for(src), topo_, dst);
  if (!path) return nullptr;

  // The one-path case of the route walk: every hop folds.
  cursor_.restart(topo_to_fabric_[src]);
  CompiledRoute& stored = store_route(
      key, walk_route(cursor_, std::move(*path), stats_.crt_steps));
  note_compile("route", before, t0);
  return &stored;
}

const CompiledRoute* BuiltFabric::cached_route(NodeIndex src,
                                               NodeIndex dst) const {
  const auto it = routes_.find(netsim::node_pair_key(src, dst));
  return it == routes_.end() ? nullptr : &it->second;
}

CompiledRoute BuiltFabric::make_route(std::size_t fsrc, std::size_t fdst,
                                      polka::SegmentedRoute segments,
                                      netsim::Path path) const {
  CompiledRoute route;
  route.segments = std::move(segments);
  route.ingress = static_cast<std::uint32_t>(fsrc);
  route.expected.egress_node = static_cast<std::uint32_t>(fdst);
  route.expected.egress_port = egress_port(fdst);
  route.expected.hops = static_cast<std::uint32_t>(path.size() + 1);
  route.path = std::move(path);
  return route;
}

void BuiltFabric::extend(PathCursor& cursor, netsim::LinkIndex link,
                         std::size_t& crt_steps) const {
  const std::size_t depth = cursor.links.size();
  if (cursor.builders.size() < depth + 2) cursor.builders.resize(depth + 2);
  const std::size_t fv = topo_to_fabric_[topo_.link(link).from];
  polka::SegmentBuilder& next = cursor.builders[depth + 1];
  next = cursor.builders[depth];
  next.transit(static_cast<std::uint32_t>(fv), node_bits_[fv],
               node_degree_[fv], link_port_[link]);
  ++crt_steps;
  cursor.links.push_back(link);
}

CompiledRoute BuiltFabric::finish(const PathCursor& cursor, netsim::Path path,
                                  std::size_t& crt_steps) const {
  const std::size_t fdst = topo_to_fabric_[topo_.link(path.back()).to];
  return make_route(cursor.fsrc, fdst,
                    cursor.builders[cursor.links.size()].finish(
                        static_cast<std::uint32_t>(fdst), node_bits_[fdst],
                        node_degree_[fdst], egress_port(fdst), crt_steps),
                    std::move(path));
}

CompiledRoute BuiltFabric::walk_route(PathCursor& cursor, netsim::Path path,
                                      std::size_t& crt_steps) const {
  const auto shared = static_cast<std::size_t>(
      std::ranges::mismatch(cursor.links, path).in1 - cursor.links.begin());
  cursor.links.resize(shared);
  for (std::size_t i = shared; i < path.size(); ++i) {
    extend(cursor, path[i], crt_steps);
  }
  return finish(cursor, std::move(path), crt_steps);
}

void BuiltFabric::compile_tree_routes(const netsim::PathTree& tree,
                                      const std::vector<char>* descend,
                                      const std::vector<char>* emit,
                                      PathCursor& cursor,
                                      std::vector<KeyedRoute>& out,
                                      std::size_t& crt_steps) const {
  const auto children = netsim::tree_children(tree, topo_);
  const NodeIndex src = tree.src;
  cursor.restart(topo_to_fabric_[src]);

  struct Frame {
    NodeIndex node;
    std::size_t next_child;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{src, 0});

  while (!stack.empty()) {
    // Pick this frame's next compilable child (routers only -- hosts
    // hang off the tree as leaves -- and, when pruning, marked nodes).
    Frame& frame = stack.back();
    const auto kids = children.of(frame.node);
    NodeIndex child = kInvalidIndex;
    while (frame.next_child < kids.size()) {
      const NodeIndex c = kids[frame.next_child++];
      if (topo_to_fabric_[c] == kInvalidIndex) continue;
      if (descend != nullptr && !(*descend)[c]) continue;
      child = c;
      break;
    }
    if (child == kInvalidIndex) {
      if (frame.node != src) cursor.links.pop_back();
      stack.pop_back();
      continue;
    }

    // Descend: one CRT step covers every destination under `child`,
    // which then finishes the shared prefix with its own egress
    // congruence (one fold at most).
    extend(cursor, tree.via[child], crt_steps);
    if (emit == nullptr || (*emit)[child]) {
      out.emplace_back(netsim::node_pair_key(src, child),
                       finish(cursor, cursor.links, crt_steps));
    }
    stack.push_back(Frame{child, 0});
  }
}

std::size_t BuiltFabric::compile_all_pairs(unsigned threads) {
  obs::TraceScope scope(trace_, "compile.all_pairs", "compile");
  const CompileStats before = stats_;
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t sources = fabric_to_topo_.size();
  struct SourceCompile {
    std::optional<netsim::PathTree> fresh;  ///< built when not cached
    std::vector<KeyedRoute> routes;
    std::size_t crt_steps = 0;
  };
  std::vector<SourceCompile> per_source(sources);

  // Workers only read shared state (trees_ is not mutated while they
  // run); new trees and routes are collected per source and merged
  // single-threaded after the join.  Each worker runs its own search
  // and cursor; the serial case uses the fabric's.
  auto compile_range = [&](std::size_t begin, std::size_t end,
                           netsim::PathSearch& search, PathCursor& cursor) {
    for (std::size_t i = begin; i < end; ++i) {
      const NodeIndex src = fabric_to_topo_[i];
      SourceCompile& out = per_source[i];
      out.routes.reserve(fabric_to_topo_.size());
      const netsim::PathTree* tree;
      if (const auto it = trees_.find(src); it != trees_.end()) {
        tree = &it->second;
      } else {
        search.run(src);
        out.fresh = search.tree();
        tree = &*out.fresh;
      }
      compile_tree_routes(*tree, nullptr, nullptr, cursor, out.routes,
                          out.crt_steps);
    }
  };

  std::size_t workers = std::max(1u, threads);
  workers = std::min<std::size_t>(workers, std::max<std::size_t>(sources, 1));
  if (workers <= 1) {
    compile_range(0, sources, search_, cursor_);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      const auto [begin, end] = shard_bounds(sources, w, workers);
      if (begin == end) continue;
      pool.emplace_back([this, &compile_range, begin = begin, end = end] {
        netsim::PathSearch search = search_;
        PathCursor cursor;
        compile_range(begin, end, search, cursor);
      });
    }
    for (auto& t : pool) t.join();
  }

  // Routes about to be overwritten leave the link index while every
  // key list is still sorted.  The merge then only appends, and each
  // list is sorted once at the end: a sorted insert per hop would cost
  // about 40% more compile time per route.
  LinkKeyBatch stale;
  for (const SourceCompile& out : per_source) {
    for (const auto& [key, route] : out.routes) {
      if (const auto it = routes_.find(key); it != routes_.end()) {
        stale.add(key, it->second.path);
      }
    }
  }
  stale.erase_from(routes_by_link_);
  std::size_t written = 0;
  routes_.reserve(sources * (sources - (sources > 0)));
  for (std::size_t i = 0; i < sources; ++i) {
    SourceCompile& out = per_source[i];
    if (out.fresh) {
      trees_.insert_or_assign(fabric_to_topo_[i], std::move(*out.fresh));
      ++stats_.trees_built;
    }
    stats_.crt_steps += out.crt_steps;
    for (auto& [key, route] : out.routes) {
      for (const netsim::LinkIndex l : route.path) {
        routes_by_link_[l].push_back(key);
      }
      routes_.insert_or_assign(key, std::move(route));
      ++written;
    }
  }
  for (auto& keys : routes_by_link_) std::ranges::sort(keys);
  stats_.routes_compiled += written;
  note_compile("all_pairs", before, t0);
  return written;
}

std::size_t BuiltFabric::compile_subtree(NodeIndex src,
                                         std::span<const NodeIndex> dsts) {
  obs::TraceScope scope(trace_, "compile.subtree", "compile");
  const CompileStats before = stats_;
  const auto t0 = std::chrono::steady_clock::now();
  (void)fabric_index(src);  // validates src is a router
  const netsim::PathTree& tree = tree_for(src);

  // Mark the union of tree paths src -> dst; the DFS below descends
  // only into marked branches, so CRT work scales with that union, not
  // with the whole tree.
  std::vector<char> descend(topo_.node_count(), 0);
  std::vector<char> emit(topo_.node_count(), 0);
  bool any = false;
  for (const NodeIndex dst : dsts) {
    if (dst == src || dst >= topo_.node_count()) continue;
    if (topo_to_fabric_[dst] == kInvalidIndex) continue;
    if (tree.via[dst] == kInvalidIndex) continue;  // unreachable now
    emit[dst] = 1;
    any = true;
    for (NodeIndex cur = dst; cur != src && !descend[cur];
         cur = topo_.link(tree.via[cur]).from) {
      descend[cur] = 1;
    }
  }
  if (!any) return 0;

  std::vector<KeyedRoute> out;
  std::size_t crt_steps = 0;
  compile_tree_routes(tree, &descend, &emit, cursor_, out, crt_steps);
  stats_.crt_steps += crt_steps;
  for (auto& [key, route] : out) store_route(key, std::move(route));
  note_compile("subtree", before, t0);
  return out.size();
}

std::size_t BuiltFabric::enable_protection(unsigned k) {
  obs::TraceScope scope(trace_, "compile.protect", "compile");
  const CompileStats before = stats_;
  const auto t0 = std::chrono::steady_clock::now();
  protection_k_ = k;
  if (k == 0) {
    backups_.clear();
    saved_primary_.clear();
    for (auto& keys : saved_by_link_) keys.clear();
    return 0;
  }
  std::size_t installed = 0;
  // Deterministic planning order (routes_ iteration order is not):
  // ascending keys, so each source's pairs are one run.
  std::vector<RouteKey> keys;
  keys.reserve(routes_.size());
  for (const auto& [key, route] : routes_) {
    if (!backups_.protects(key)) keys.push_back(key);
  }
  std::ranges::sort(keys);
  for_each_source(keys, [&](std::span<const RouteKey> same_source) {
    installed += protect_source(same_source);
  });
  if (metrics_ != nullptr) {
    metrics_->counter("compile.backup_routes")
        .add(stats_.backup_routes - before.backup_routes);
  }
  note_compile("protect", before, t0);
  return installed;
}

std::size_t BuiltFabric::protect_source(std::span<const RouteKey> keys) {
  const NodeIndex src = netsim::node_pair_from_key(keys.front()).first;
  std::vector<netsim::Path> paths;    // every backup path of the source
  std::vector<std::size_t> first{0};  // pair i's: [first[i], first[i + 1])
  std::vector<std::size_t> primary_hops;
  first.reserve(keys.size() + 1);
  primary_hops.reserve(keys.size());
  for (const RouteKey key : keys) {
    const netsim::Path& primary = routes_.at(key).path;
    // Disjoint alternates: the primary's links (both directions) are
    // banned on top of the failed ones for this one search.
    for (const netsim::LinkIndex l : primary) search_.ban_duplex(l);
    (void)search_.disjoint_paths(src, netsim::node_pair_from_key(key).second,
                                 protection_k_, paths);
    for (const netsim::LinkIndex l : primary) search_.unban_duplex(l);
    first.push_back(paths.size());
    primary_hops.push_back(primary.size());
  }

  // Lexicographic path order puts every shared prefix in one run, so
  // the cursor folds each distinct prefix once.
  std::vector<std::size_t> order(paths.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::ranges::sort(order, [&](std::size_t a, std::size_t b) {
    return paths[a] < paths[b];
  });
  std::vector<CompiledRoute> compiled(paths.size());
  cursor_.restart(topo_to_fabric_[src]);
  for (const std::size_t i : order) {
    compiled[i] = walk_route(cursor_, std::move(paths[i]), stats_.crt_steps);
  }

  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::vector<BackupRoute> backups;
    backups.reserve(first[i + 1] - first[i]);
    for (std::size_t j = first[i]; j < first[i + 1]; ++j) {
      const auto hops = static_cast<double>(compiled[j].path.size());
      const double stretch =
          primary_hops[i] == 0
              ? 1.0
              : hops / static_cast<double>(primary_hops[i]);
      backups.push_back(BackupRoute{std::move(compiled[j]), stretch});
    }
    stats_.backup_routes += backups.size();
    backups_.install(keys[i], std::move(backups));
  }
  return paths.size();
}

std::vector<std::pair<NodeIndex, NodeIndex>>
BuiltFabric::evict_crossing_routes(netsim::LinkIndex fwd,
                                   netsim::LinkIndex rev) {
  // The inverted index names exactly the crossing routes: O(affected),
  // not O(routes * hops).  Both lists are sorted, so their union is the
  // deterministic sorted-key return order.
  std::vector<RouteKey> keys;
  std::ranges::set_union(routes_by_link_[fwd], routes_by_link_[rev],
                         std::back_inserter(keys));

  LinkKeyBatch evicted;
  LinkKeyBatch saved_now;
  std::vector<std::pair<NodeIndex, NodeIndex>> affected;
  affected.reserve(keys.size());
  for (const RouteKey key : keys) {
    const auto it = routes_.find(key);
    evicted.add(key, it->second.path);
    // Protected fabrics remember the displaced route so restore_link
    // can revert hitlessly; the original primary wins over later
    // backup-on-backup displacements (try_emplace keeps the first).
    if (protection_k_ > 0) {
      const auto [saved, fresh] = saved_primary_.try_emplace(key);
      if (fresh) {
        saved->second.primary = std::move(it->second);
        saved_now.add(key, saved->second.primary.path);
      }
    }
    routes_.erase(it);
    affected.push_back(netsim::node_pair_from_key(key));
  }
  // Batch-evict: each touched key list is filtered once against its
  // sorted evicted keys.
  evicted.erase_from(routes_by_link_);
  saved_now.insert_into(saved_by_link_);
  return affected;
}

FailoverReport BuiltFabric::apply_failure(NodeIndex a, NodeIndex b) {
  obs::TraceScope scope(trace_, "compile.fail_link", "compile");
  const auto t0 = std::chrono::steady_clock::now();
  const auto fwd = topo_.link_between(a, b);
  const auto rev = topo_.link_between(b, a);
  if (!fwd || !rev) {
    throw std::invalid_argument("BuiltFabric::apply_failure: no such link");
  }
  FailoverReport report;
  if (link_down_[*fwd] != 0) {
    // Graceful degradation: failing a dead link must not throw, loop
    // or double-ban -- storms and flap schedules hit this constantly.
    report.duplicate = true;
    return report;
  }
  const CompileStats before = stats_;
  banned_links_.push_back(*fwd);
  banned_links_.push_back(*rev);
  link_down_[*fwd] = 1;
  link_down_[*rev] = 1;
  search_.ban_link(*fwd);
  search_.ban_link(*rev);

  report.affected = evict_crossing_routes(*fwd, *rev);

  // Drop only the trees that routed through the dead link.  Every other
  // cached tree remains a valid shortest-path tree: removing links it
  // never used cannot create a shorter alternative.  A tree can use
  // a->b only as b's parent link, so one lookup per tree settles it.
  for (auto it = trees_.begin(); it != trees_.end();) {
    const auto& via = it->second.via;
    const bool uses = via[b] == *fwd || via[a] == *rev;
    it = uses ? trees_.erase(it) : ++it;
  }

  if (protection_k_ > 0) {
    // Hitless path: each affected pair swaps to its best live backup.
    // The whole window is table lookups and label copies -- no
    // path search, no CRT, zero routes_compiled (the acceptance bar).
    IndexEdits edits;
    for (const auto& pr : report.affected) {
      const RouteKey key = netsim::node_pair_key(pr.first, pr.second);
      const BackupRoute* backup = backups_.live_backup(key, link_down_);
      if (backup == nullptr) {
        report.pending.push_back(pr);
        pending_.push_back(pr);
        continue;
      }
      // live_backup() only returns fully-live candidates; a backup that
      // still crosses the link we just banned would re-sever the pair.
      HP_DCHECK(!crosses_failed_link(backup->path),
                "apply_failure: live backup crosses a dead link");
      store_route(key, CompiledRoute(*backup), /*count_compile=*/false,
                  &edits);
      ++stats_.backup_swaps;
      report.swapped.push_back(pr);
      report.swap_stretch.push_back(backup->stretch);
    }
    edits.apply(routes_by_link_);
    if (metrics_ != nullptr && !report.swapped.empty()) {
      metrics_->counter("compile.backup_swaps").add(report.swapped.size());
    }
  } else {
    // Eager path (the pre-protection behaviour): subtree-scoped repair
    // of each source's severed destinations inside the event.
    std::unordered_map<NodeIndex, std::vector<NodeIndex>> by_source;
    for (const auto& [src, dst] : report.affected) {
      by_source[src].push_back(dst);
    }
    for (const auto& [src, dsts] : by_source) {
      (void)compile_subtree(src, dsts);
    }
    for (const auto& pr : report.affected) {
      if (routes_.contains(netsim::node_pair_key(pr.first, pr.second))) {
        report.repaired.push_back(pr);
      } else {
        report.unroutable.push_back(pr);
      }
    }
  }
  report.window_recompiles = stats_.routes_compiled - before.routes_compiled;
  // The hitless acceptance bar, now a contract: with protection
  // installed, the failure window is swaps and table lookups only --
  // any recompile inside it means the backup plane silently stopped
  // absorbing failures (PR 8's headline property).
  HP_CHECK(protection_k_ == 0 || report.window_recompiles == 0,
           "apply_failure: protected failover recompiled inside the window");
  // Inner compile_subtree calls recorded their own stats deltas; this
  // notes only the phase's wall clock.
  note_compile("fail_link", stats_, t0);
  return report;
}

FailoverReport BuiltFabric::repair_pending() {
  FailoverReport report;
  if (pending_.empty()) return report;
  obs::TraceScope scope(trace_, "compile.repair_pending", "compile");
  const auto t0 = std::chrono::steady_clock::now();
  const CompileStats before = stats_;
  std::vector<std::pair<NodeIndex, NodeIndex>> work;
  pending_.swap(work);
  std::ranges::sort(work);
  work.erase(std::unique(work.begin(), work.end()), work.end());

  std::unordered_map<NodeIndex, std::vector<NodeIndex>> by_source;
  for (const auto& [src, dst] : work) by_source[src].push_back(dst);
  for (const auto& [src, dsts] : by_source) {
    (void)compile_subtree(src, dsts);
  }
  std::vector<RouteKey> replan;
  for (const auto& pr : work) {
    const RouteKey key = netsim::node_pair_key(pr.first, pr.second);
    if (!routes_.contains(key)) {
      report.unroutable.push_back(pr);
      continue;
    }
    report.repaired.push_back(pr);
    replan.push_back(key);
  }
  // The repaired pairs' old protection sets are dead; replan them
  // against the repaired primaries and the degraded topology, one
  // source at a time (work is sorted, so replan is too).  The set
  // planned for a pair's original primary waits with it: restore_link
  // reinstalls both.
  if (protection_k_ > 0) {
    for (const RouteKey key : replan) {
      const auto saved = saved_primary_.find(key);
      if (saved != saved_primary_.end() && !saved->second.backups) {
        saved->second.backups = backups_.take(key);
      }
    }
    for_each_source(replan, [&](std::span<const RouteKey> same_source) {
      (void)protect_source(same_source);
    });
  }
  report.window_recompiles = stats_.routes_compiled - before.routes_compiled;
  note_compile("repair_pending", stats_, t0);
  return report;
}

FailoverReport BuiltFabric::restore_link(NodeIndex a, NodeIndex b) {
  obs::TraceScope scope(trace_, "compile.restore_link", "compile");
  const auto t0 = std::chrono::steady_clock::now();
  const auto fwd = topo_.link_between(a, b);
  const auto rev = topo_.link_between(b, a);
  if (!fwd || !rev) {
    throw std::invalid_argument("BuiltFabric::restore_link: no such link");
  }
  FailoverReport report;
  if (link_down_[*fwd] == 0) {
    report.duplicate = true;
    return report;
  }
  link_down_[*fwd] = 0;
  link_down_[*rev] = 0;
  std::erase(banned_links_, *fwd);
  std::erase(banned_links_, *rev);
  search_.unban_link(*fwd);
  search_.unban_link(*rev);
  // Any cached tree may now be improvable by the revived link; flush
  // them all (rebuilt lazily).  Cached routes stay valid -- their
  // paths still exist -- they are just possibly no longer shortest.
  trees_.clear();

  if (protection_k_ > 0) {
    // Revert every displaced pair whose saved primary is fully alive
    // again -- including pairs a failure had severed outright, whose
    // routes revive here without any recompile.  Only primaries over
    // the revived link are candidates: every other one still crosses a
    // dead link (the invariant checked below).
    std::vector<RouteKey> revived;
    std::ranges::set_union(saved_by_link_[*fwd], saved_by_link_[*rev],
                           std::back_inserter(revived));
    std::erase_if(revived, [&](RouteKey key) {
      return crosses_failed_link(saved_primary_.at(key).primary.path);
    });
    IndexEdits edits;
    LinkKeyBatch unsaved;
    for (const RouteKey key : revived) {
      const auto it = saved_primary_.find(key);
      const auto pr = netsim::node_pair_from_key(key);
      SavedRoute& saved = it->second;
      unsaved.add(key, saved.primary.path);
      store_route(key, std::move(saved.primary), /*count_compile=*/false,
                  &edits);
      // A repair replanned this pair against another primary; its
      // original set goes back with the original primary.
      if (saved.backups) backups_.install(key, std::move(*saved.backups));
      saved_primary_.erase(it);
      ++stats_.backup_swaps;
      report.affected.push_back(pr);
      report.swapped.push_back(pr);
      report.swap_stretch.push_back(1.0);  // back on the primary
    }
    edits.apply(routes_by_link_);
    unsaved.erase_from(saved_by_link_);
    // Revived pairs are no longer waiting on the lazy recompiler.
    std::erase_if(pending_, [&](const std::pair<NodeIndex, NodeIndex>& pr) {
      return std::ranges::binary_search(
          revived, netsim::node_pair_key(pr.first, pr.second));
    });
    HP_DCHECK(std::ranges::all_of(saved_primary_,
                                  [&](const auto& entry) {
                                    return crosses_failed_link(
                                        entry.second.primary.path);
                                  }),
              "restore_link: a fully alive saved primary was not reverted");
    if (metrics_ != nullptr && !report.swapped.empty()) {
      metrics_->counter("compile.backup_swaps").add(report.swapped.size());
    }
  }
  note_compile("restore_link", stats_, t0);
  return report;
}

}  // namespace hp::scenario
