#include "scenario/fabric_builder.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "core/contracts.hpp"
#include "gf2/crt.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "polka/route.hpp"
#include "scenario/shard.hpp"

namespace hp::scenario {

namespace {

using netsim::kInvalidIndex;
using netsim::NodeIndex;

}  // namespace

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

BuiltFabric::BuiltFabric(netsim::Topology topo) : topo_(std::move(topo)) {
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
  node_bits_.resize(fabric_.node_count());
  node_degree_.resize(fabric_.node_count());
  for (std::size_t f = 0; f < fabric_.node_count(); ++f) {
    const gf2::Poly& id = fabric_.node(f).poly;
    node_bits_[f] = id.degree() <= 63 ? id.to_uint64() : 0;
    node_degree_[f] = id.degree();
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
    it = trees_
             .emplace(src, netsim::shortest_path_tree(
                               topo_, src, netsim::PathMetric::kHopCount,
                               banned_links_))
             .first;
    ++stats_.trees_built;
  }
  return it->second;
}

CompiledRoute& BuiltFabric::store_route(RouteKey key, CompiledRoute&& route,
                                        bool count_compile) {
  const auto [it, inserted] = routes_.try_emplace(key);
  if (!inserted) unindex_route(key, it->second.path);
  it->second = std::move(route);
  for (const netsim::LinkIndex l : it->second.path) {
    routes_by_link_[l].push_back(key);
  }
  if (count_compile) ++stats_.routes_compiled;
  return it->second;
}

void BuiltFabric::unindex_route(RouteKey key, const netsim::Path& path) {
  for (const netsim::LinkIndex l : path) {
    if (const auto it = routes_by_link_.find(l); it != routes_by_link_.end()) {
      auto& keys = it->second;
      if (const auto pos = std::ranges::find(keys, key); pos != keys.end()) {
        *pos = keys.back();
        keys.pop_back();
      }
      if (keys.empty()) routes_by_link_.erase(it);
    }
  }
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
  const auto path = netsim::tree_path(tree_for(src), topo_, dst);
  if (!path) return nullptr;

  std::size_t crt_steps = 0;
  CompiledRoute route = compile_path_route(*path, crt_steps);
  stats_.crt_steps += crt_steps;
  CompiledRoute& stored = store_route(key, std::move(route));
  note_compile("route", before, t0);
  return &stored;
}

const CompiledRoute* BuiltFabric::cached_route(NodeIndex src,
                                               NodeIndex dst) const {
  const auto it = routes_.find(netsim::node_pair_key(src, dst));
  return it == routes_.end() ? nullptr : &it->second;
}

CompiledRoute BuiltFabric::compile_path_route(const netsim::Path& path,
                                              std::size_t& crt_steps) const {
  // Per-path baseline: derives the whole congruence system for this
  // one destination (one CRT fold per hop plus the egress fold),
  // cutting segments at the same 64-bit boundary as the tree compiler.
  CompiledRoute route;
  route.path = path;
  std::vector<std::size_t> fabric_path;
  fabric_path.reserve(path.size() + 1);
  for (const NodeIndex n : netsim::path_nodes(topo_, path)) {
    fabric_path.push_back(topo_to_fabric_[n]);
  }
  const std::size_t egress_node = fabric_path.back();
  route.segments =
      fabric_.segmented_route_for_path(fabric_path, egress_port(egress_node));
  if (route.segments.single_label()) {
    // The lone label *is* the full-path CRT solution; no recompute.
    route.label = route.segments.labels.front();
    route.id = polka::unpack_label(*route.label);
  }
  route.ingress = static_cast<std::uint32_t>(fabric_path.front());
  route.expected.egress_node = static_cast<std::uint32_t>(egress_node);
  route.expected.egress_port = egress_port(egress_node);
  route.expected.hops = static_cast<std::uint32_t>(fabric_path.size());
  crt_steps += fabric_path.size();
  return route;
}

void BuiltFabric::compile_tree_routes(const netsim::PathTree& tree,
                                      const std::vector<char>* descend,
                                      const std::vector<char>* emit,
                                      std::vector<KeyedRoute>& out,
                                      std::size_t& crt_steps) const {
  const auto children = netsim::tree_children(tree, topo_);
  const NodeIndex src = tree.src;
  const std::size_t fsrc = topo_to_fabric_[src];

  struct Frame {
    NodeIndex node;
    std::size_t next_child;
    gf2::CrtAccumulator acc;  ///< current segment's congruences so far
    int seg_degree;           ///< accumulated modulus degree of acc (0 = empty)
    polka::SegmentedRoute done;  ///< segments closed above this frame
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{src, 0, {}, 0, {}});
  netsim::Path links;  // tree links from src to the current node

  while (!stack.empty()) {
    // Pick this frame's next compilable child (routers only -- hosts
    // hang off the tree as leaves -- and, when pruning, marked nodes).
    Frame& frame = stack.back();
    const auto& kids = children[frame.node];
    NodeIndex child = kInvalidIndex;
    while (frame.next_child < kids.size()) {
      const NodeIndex c = kids[frame.next_child++];
      if (topo_to_fabric_[c] == kInvalidIndex) continue;
      if (descend != nullptr && !(*descend)[c]) continue;
      child = c;
      break;
    }
    if (child == kInvalidIndex) {
      if (frame.node != src) links.pop_back();
      stack.pop_back();
      continue;
    }

    // Descend: one CRT step covers every destination under `child`.
    const std::size_t fv = topo_to_fabric_[frame.node];
    const std::size_t fc = topo_to_fabric_[child];
    const auto port = fabric_.port_between(fv, fc);
    if (!port) {
      throw std::logic_error(
          "BuiltFabric: tree edge between routers is not wired");
    }
    gf2::CrtAccumulator acc = frame.acc;
    int seg_degree = frame.seg_degree;
    polka::SegmentedRoute done = frame.done;
    if (seg_degree > 0 && seg_degree + node_degree_[fv] > 64) {
      // This node would push the segment's modulus past 64 bits: close
      // the segment (its label packs by construction) and re-label
      // here.  The fresh accumulator keeps every deeper route on the
      // fast path no matter how far the tree goes.
      done.labels.push_back(
          polka::pack_label_checked(polka::RouteId{acc.solution()}));
      done.waypoints.push_back(static_cast<std::uint32_t>(fv));
      acc = {};
      seg_degree = 0;
    }
    if (node_bits_[fv] != 0) {
      acc.add(*port, node_bits_[fv]);
    } else {
      acc.add(gf2::Congruence{polka::port_polynomial(*port),
                              fabric_.node(fv).poly});
    }
    seg_degree += node_degree_[fv];
    // The segment-cut rule above must keep every open segment's CRT
    // modulus packable: one more violation here and pack_label_checked
    // would throw deep inside a worker thread instead.
    HP_CHECK(seg_degree <= 64,
             "compile_tree_routes: open segment modulus exceeds 64 bits");
    ++crt_steps;
    links.push_back(tree.via[child]);

    if (emit == nullptr || (*emit)[child]) {
      CompiledRoute route;
      route.segments = done;
      if (seg_degree + node_degree_[fc] > 64) {
        // The egress congruence does not fit the open segment either:
        // the destination re-labels to a final bare-port label.
        route.segments.labels.push_back(
            polka::pack_label_checked(polka::RouteId{acc.solution()}));
        route.segments.waypoints.push_back(static_cast<std::uint32_t>(fc));
        route.segments.labels.push_back(
            polka::RouteLabel{egress_port(fc)});
      } else {
        // The destination adds only its egress congruence.
        ++crt_steps;
        route.segments.labels.push_back(polka::pack_label_checked(
            polka::RouteId{
                node_bits_[fc] != 0
                    ? acc.solution_with(egress_port(fc), node_bits_[fc])
                    : acc.solution_with(gf2::Congruence{
                          polka::port_polynomial(egress_port(fc)),
                          fabric_.node(fc).poly})}));
      }
      if (route.segments.single_label()) {
        route.label = route.segments.labels.front();
        route.id = polka::unpack_label(*route.label);
      }
      route.ingress = static_cast<std::uint32_t>(fsrc);
      route.expected.egress_node = static_cast<std::uint32_t>(fc);
      route.expected.egress_port = egress_port(fc);
      route.expected.hops = static_cast<std::uint32_t>(links.size() + 1);
      route.path = links;
      out.emplace_back(netsim::node_pair_key(src, child), std::move(route));
    }
    stack.push_back(Frame{child, 0, std::move(acc), seg_degree,
                          std::move(done)});
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
  // single-threaded after the join.
  auto compile_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const NodeIndex src = fabric_to_topo_[i];
      SourceCompile& out = per_source[i];
      out.routes.reserve(fabric_to_topo_.size());
      const netsim::PathTree* tree;
      if (const auto it = trees_.find(src); it != trees_.end()) {
        tree = &it->second;
      } else {
        out.fresh = netsim::shortest_path_tree(
            topo_, src, netsim::PathMetric::kHopCount, banned_links_);
        tree = &*out.fresh;
      }
      compile_tree_routes(*tree, nullptr, nullptr, out.routes, out.crt_steps);
    }
  };

  std::size_t workers = std::max(1u, threads);
  workers = std::min<std::size_t>(workers, std::max<std::size_t>(sources, 1));
  if (workers <= 1) {
    compile_range(0, sources);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      const auto [begin, end] = shard_bounds(sources, w, workers);
      if (begin == end) continue;
      pool.emplace_back([&compile_range, begin = begin, end = end] {
        compile_range(begin, end);
      });
    }
    for (auto& t : pool) t.join();
  }

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
      store_route(key, std::move(route));
      ++written;
    }
  }
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
  compile_tree_routes(tree, &descend, &emit, out, crt_steps);
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
    return 0;
  }
  std::size_t installed = 0;
  // Deterministic planning order (routes_ iteration order is not).
  std::vector<RouteKey> keys;
  keys.reserve(routes_.size());
  for (const auto& [key, route] : routes_) keys.push_back(key);
  std::ranges::sort(keys);
  for (const RouteKey key : keys) {
    if (backups_.protects(key)) continue;
    installed += protect_pair(key, routes_.at(key));
  }
  if (metrics_ != nullptr) {
    metrics_->counter("compile.backup_routes")
        .add(stats_.backup_routes - before.backup_routes);
  }
  note_compile("protect", before, t0);
  return installed;
}

std::size_t BuiltFabric::protect_pair(RouteKey key,
                                      const CompiledRoute& primary) {
  const auto [src, dst] = netsim::node_pair_from_key(key);
  // Disjoint alternates: ban the primary's links (both directions) on
  // top of everything already failed, then peel off k disjoint paths.
  std::vector<netsim::LinkIndex> banned = banned_links_;
  for (const netsim::LinkIndex l : primary.path) {
    banned.push_back(l);
    const netsim::Link& link = topo_.link(l);
    if (const auto rev = topo_.link_between(link.to, link.from)) {
      banned.push_back(*rev);
    }
  }
  const auto paths = netsim::k_disjoint_paths(
      topo_, src, dst, protection_k_, netsim::PathMetric::kHopCount, banned);
  std::vector<BackupRoute> backups;
  backups.reserve(paths.size());
  for (const netsim::Path& path : paths) {
    std::size_t crt_steps = 0;
    CompiledRoute compiled = compile_path_route(path, crt_steps);
    stats_.crt_steps += crt_steps;
    BackupRoute backup;
    backup.segments = std::move(compiled.segments);
    backup.expected = compiled.expected;
    backup.path = std::move(compiled.path);
    backup.ingress = compiled.ingress;
    backup.stretch = primary.path.empty()
                         ? 1.0
                         : static_cast<double>(path.size()) /
                               static_cast<double>(primary.path.size());
    backups.push_back(std::move(backup));
  }
  const std::size_t count = backups.size();
  stats_.backup_routes += count;
  backups_.install(key, std::move(backups));
  return count;
}

std::vector<std::pair<NodeIndex, NodeIndex>>
BuiltFabric::evict_crossing_routes(netsim::LinkIndex fwd,
                                   netsim::LinkIndex rev) {
  // The inverted index names exactly the crossing routes: O(affected),
  // not O(routes * hops).  Sorted for a deterministic return order.
  std::vector<RouteKey> keys;
  for (const netsim::LinkIndex dead : {fwd, rev}) {
    if (const auto it = routes_by_link_.find(dead);
        it != routes_by_link_.end()) {
      keys.insert(keys.end(), it->second.begin(), it->second.end());
    }
  }
  std::ranges::sort(keys);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  // Batch-evict: filter each touched link's key list once against the
  // evicted set, instead of a per-route linear scan (which would make
  // a mass eviction quadratic in the keys-per-link).
  const std::unordered_set<RouteKey> evicted(keys.begin(), keys.end());
  std::vector<netsim::LinkIndex> touched;
  std::vector<std::pair<NodeIndex, NodeIndex>> affected;
  affected.reserve(keys.size());
  for (const RouteKey key : keys) {
    const auto it = routes_.find(key);
    // Protected fabrics remember the displaced route so restore_link
    // can revert hitlessly; the original primary wins over later
    // backup-on-backup displacements (try_emplace keeps the first).
    if (protection_k_ > 0) saved_primary_.try_emplace(key, it->second);
    touched.insert(touched.end(), it->second.path.begin(),
                   it->second.path.end());
    routes_.erase(it);
    affected.push_back(netsim::node_pair_from_key(key));
  }
  std::ranges::sort(touched);
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const netsim::LinkIndex l : touched) {
    const auto it = routes_by_link_.find(l);
    if (it == routes_by_link_.end()) continue;
    std::erase_if(it->second,
                  [&](RouteKey k) { return evicted.contains(k); });
    if (it->second.empty()) routes_by_link_.erase(it);
  }
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

  report.affected = evict_crossing_routes(*fwd, *rev);

  // Drop only the trees that routed through the dead link.  Every other
  // cached tree remains a valid shortest-path tree: removing links it
  // never used cannot create a shorter alternative.
  for (auto it = trees_.begin(); it != trees_.end();) {
    const bool uses = std::ranges::any_of(
        it->second.via,
        [&](netsim::LinkIndex l) { return l == *fwd || l == *rev; });
    it = uses ? trees_.erase(it) : ++it;
  }

  if (protection_k_ > 0) {
    // Hitless path: each affected pair swaps to its best live backup.
    // The whole window is table lookups and label copies -- no
    // Dijkstra, no CRT, zero routes_compiled (the acceptance bar).
    for (const auto& pr : report.affected) {
      const RouteKey key = netsim::node_pair_key(pr.first, pr.second);
      const BackupRoute* backup = backups_.activate(key, link_down_);
      if (backup == nullptr) {
        report.pending.push_back(pr);
        pending_.push_back(pr);
        continue;
      }
      // activate() only returns fully-live candidates; a backup that
      // still crosses the link we just banned would re-sever the pair.
      HP_DCHECK(std::ranges::none_of(backup->path,
                                     [&](netsim::LinkIndex l) {
                                       return l < link_down_.size() &&
                                              link_down_[l] != 0;
                                     }),
                "apply_failure: activated backup crosses a dead link");
      CompiledRoute route;
      route.segments = backup->segments;
      if (route.segments.single_label()) {
        route.label = route.segments.labels.front();
        route.id = polka::unpack_label(*route.label);
      }
      route.ingress = backup->ingress;
      route.expected = backup->expected;
      route.path = backup->path;
      store_route(key, std::move(route), /*count_compile=*/false);
      ++stats_.backup_swaps;
      report.swapped.push_back(pr);
      report.swap_stretch.push_back(backup->stretch);
    }
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
  for (const auto& pr : work) {
    const RouteKey key = netsim::node_pair_key(pr.first, pr.second);
    const auto it = routes_.find(key);
    if (it == routes_.end()) {
      report.unroutable.push_back(pr);
      continue;
    }
    report.repaired.push_back(pr);
    // The pair's old protection set is dead; replan it against the
    // repaired primary and the degraded topology.
    if (protection_k_ > 0) (void)protect_pair(key, it->second);
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
  // Any cached tree may now be improvable by the revived link; flush
  // them all (rebuilt lazily).  Cached routes stay valid -- their
  // paths still exist -- they are just possibly no longer shortest.
  trees_.clear();

  if (protection_k_ > 0) {
    // Revert every displaced pair whose saved primary is fully alive
    // again -- including pairs a failure had severed outright, whose
    // routes revive here without any recompile.
    std::vector<RouteKey> revived;
    for (const auto& [key, primary] : saved_primary_) {
      const bool alive = std::ranges::none_of(
          primary.path,
          [&](netsim::LinkIndex l) { return link_down_[l] != 0; });
      if (alive) revived.push_back(key);
    }
    std::ranges::sort(revived);
    for (const RouteKey key : revived) {
      auto it = saved_primary_.find(key);
      const auto pr = netsim::node_pair_from_key(key);
      store_route(key, std::move(it->second), /*count_compile=*/false);
      saved_primary_.erase(it);
      backups_.release(key);
      ++stats_.backup_swaps;
      report.affected.push_back(pr);
      report.swapped.push_back(pr);
      report.swap_stretch.push_back(1.0);  // back on the primary
      // A revived pair is no longer waiting on the lazy recompiler.
      std::erase(pending_, pr);
    }
    if (metrics_ != nullptr && !report.swapped.empty()) {
      metrics_->counter("compile.backup_swaps").add(report.swapped.size());
    }
  }
  note_compile("restore_link", stats_, t0);
  return report;
}

}  // namespace hp::scenario
