#include "scenario/fabric_builder.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <ranges>
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

/// A link-index entry: the record in the high word, then the route id
/// and the generation its slot had when the route was listed.
std::uint64_t index_entry(std::uint32_t rec, std::uint32_t id,
                          std::uint16_t gen) {
  return (static_cast<std::uint64_t>(rec) << 32) |
         (static_cast<std::uint64_t>(id) << 16) | gen;
}
std::uint32_t entry_record(std::uint64_t entry) {
  return static_cast<std::uint32_t>(entry >> 32);
}
std::uint32_t entry_route(std::uint64_t entry) {
  return static_cast<std::uint32_t>(entry >> 16) & 0xFFFFu;
}
std::uint16_t entry_gen(std::uint64_t entry) {
  return static_cast<std::uint16_t>(entry);
}

/// Calls fn(run) once per source in `items`, ascending by key, each run
/// the items of one source (key >> 32).
template <typename T, typename Key, typename Fn>
void for_each_source(std::span<T> items, Key key_of, Fn&& fn) {
  for (std::size_t begin = 0; begin < items.size();) {
    const std::uint64_t src = key_of(items[begin]) >> 32;
    std::size_t end = begin + 1;
    while (end < items.size() && key_of(items[end]) >> 32 == src) ++end;
    fn(items.subspan(begin, end - begin));
    begin = end;
  }
}

}  // namespace

/// Adds many routes' hops to the link index in two passes over them:
/// count the hops per link and reserve each list exactly, then append.
/// The bulk compiles (every pair, every backup) index this way, so the
/// index costs its entries and no slack.
class BuiltFabric::BulkAppend {
 public:
  explicit BulkAppend(std::vector<LinkRoutes>& by_link)
      : by_link_(by_link), added_(by_link.size(), 0) {}

  void count(const netsim::Path& path) {
    for (const netsim::LinkIndex l : path) ++added_[l];
  }

  /// After every count: make room for exactly the counted hops.
  void reserve() {
    for (netsim::LinkIndex l = 0; l < by_link_.size(); ++l) {
      auto& entries = by_link_[l].entries;
      if (added_[l] != 0) entries.reserve(entries.size() + added_[l]);
    }
  }

  void append(std::uint64_t entry, const netsim::Path& path) {
    for (const netsim::LinkIndex l : path) {
      by_link_[l].entries.push_back(entry);
      ++by_link_[l].compacted;
    }
  }

 private:
  std::vector<LinkRoutes>& by_link_;
  std::vector<std::size_t> added_;
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
  // Node indices fit the 32-bit slots of pair_slots_: search_'s
  // construction checked the node count.
  pair_slots_.resize(fabric_.node_count());
  trees_.resize(fabric_.node_count());
  marks_.assign(topo_.node_count(), 0);
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
  netsim::PathTree& tree = trees_[topo_to_fabric_[src]];
  if (tree.src == kInvalidIndex) {
    search_.run(src);
    search_.tree(tree);
    ++stats_.trees_built;
  }
  return tree;
}

std::size_t BuiltFabric::cached_tree_count() const {
  return static_cast<std::size_t>(std::ranges::count_if(
      trees_, [](const netsim::PathTree& t) { return t.src != kInvalidIndex; }));
}

std::size_t BuiltFabric::cached_route_count() const {
  std::size_t serving = 0;
  for (std::uint32_t rec = 0; rec < record_count_; ++rec) {
    serving += record(rec).serving != kNoRoute;
  }
  return serving;
}

std::uint32_t BuiltFabric::find_record(NodeIndex src, NodeIndex dst) const {
  if (src >= topo_to_fabric_.size() || topo_to_fabric_[src] == kInvalidIndex ||
      dst > UINT32_MAX) {
    return kNoRecord;
  }
  const auto& slots = pair_slots_[topo_to_fabric_[src]];
  const auto it = std::ranges::lower_bound(
      slots, static_cast<std::uint32_t>(dst), {}, &PairSlot::dst);
  return it != slots.end() && it->dst == dst ? it->rec : kNoRecord;
}

std::uint32_t BuiltFabric::append_record(RouteKey key) {
  HP_CHECK(record_count_ < kNoRecord,
           "BuiltFabric: pair records exceed the 32-bit record slots");
  if (record_count_ % kRecordChunk == 0) {
    record_chunks_.push_back(std::make_unique<PairRecord[]>(kRecordChunk));
  }
  const std::uint32_t rec = record_count_++;
  record(rec).key = key;
  gens_.resize(gens_.size() + 2 * ranks_, 0);
  return rec;
}

std::uint32_t BuiltFabric::record_for(NodeIndex src, NodeIndex dst) {
  auto& slots = pair_slots_[topo_to_fabric_[src]];
  const auto it = std::ranges::lower_bound(
      slots, static_cast<std::uint32_t>(dst), {}, &PairSlot::dst);
  if (it != slots.end() && it->dst == dst) return it->rec;
  const std::uint32_t rec = append_record(netsim::node_pair_key(src, dst));
  slots.insert(it, PairSlot{static_cast<std::uint32_t>(dst), rec});
  return rec;
}

const CompiledRoute* BuiltFabric::find_route(const PairRecord& r,
                                              std::uint32_t id) {
  const unsigned s = id >> kSetShift;
  if (s == 1 && !r.other) return nullptr;
  const RouteSet& set = r.set(s);
  const std::uint32_t rank = id & kRankMask;
  if (rank == 0) return set.primary.path.empty() ? nullptr : &set.primary;
  return rank <= set.backups.size() ? &set.backups[rank - 1] : nullptr;
}

std::uint64_t BuiltFabric::live_entry(std::uint32_t rec,
                                     std::uint32_t id) const {
  return index_entry(rec, id, gens_[slot(rec, id)]);
}

bool BuiltFabric::live(std::uint64_t entry) const {
  return gens_[slot(entry_record(entry), entry_route(entry))] ==
         entry_gen(entry);
}

void BuiltFabric::retire(std::uint32_t rec, std::uint32_t id) {
  std::uint16_t& gen = gens_[slot(rec, id)];
  if (gen != UINT16_MAX) {
    ++gen;
    return;
  }
  // Wrapping to 0 could revive the slot's entries from 2^16 bumps ago:
  // drop all of the slot's entries first, with every stale one.
  const std::uint64_t mine = index_entry(rec, id, 0);
  for (LinkRoutes& list : routes_by_link_) {
    std::erase_if(list.entries, [&](std::uint64_t entry) {
      return (entry & ~std::uint64_t{0xFFFF}) == mine || !live(entry);
    });
    list.compacted = list.entries.size();
  }
  gen = 0;
}

void BuiltFabric::retire_set(std::uint32_t rec, unsigned s) {
  const PairRecord& r = record(rec);
  if (s == 1 && !r.other) return;
  const RouteSet& set = r.set(s);
  if (!set.primary.path.empty()) retire(rec, route_id(s, 0));
  for (std::size_t rank = 1; rank <= set.backups.size(); ++rank) {
    retire(rec, route_id(s, rank));
  }
}

void BuiltFabric::widen(std::size_t ranks) {
  std::vector<std::uint16_t> gens(std::size_t{record_count_} * 2 * ranks, 0);
  for (std::size_t set = 0; set < std::size_t{record_count_} * 2; ++set) {
    for (std::size_t rank = 0; rank < ranks_; ++rank) {
      gens[set * ranks + rank] = gens_[set * ranks_ + rank];
    }
  }
  gens_ = std::move(gens);
  ranks_ = ranks;
}

void BuiltFabric::list_route(std::uint32_t rec, std::uint32_t id,
                             const netsim::Path& path) {
  // A list is compacted once it has grown by half since its last
  // compaction, and never holds more slots than that, so each listing
  // costs O(path), amortized, and the index stays within half again
  // its live entries.
  const std::uint64_t entry = live_entry(rec, id);
  for (const netsim::LinkIndex l : path) {
    LinkRoutes& list = routes_by_link_[l];
    if (list.entries.size() >= growth_bound(list.compacted)) compact(l);
    if (list.entries.size() == list.entries.capacity()) {
      list.entries.reserve(growth_bound(list.compacted) + 1);
    }
    list.entries.push_back(entry);
  }
}

void BuiltFabric::compact(netsim::LinkIndex l) {
  // A live route is listed once per link, so dropping the stale entries
  // leaves no duplicate: one filter, no sort, no record read.
  LinkRoutes& list = routes_by_link_[l];
  std::erase_if(list.entries,
                [&](std::uint64_t entry) { return !live(entry); });
  list.compacted = list.entries.size();
}

void BuiltFabric::validate() const {
  // Live entries per route slot.  With no live entry listed twice in a
  // list and each one on a link of its route's path, a held route is
  // listed on every link of its (simple) path exactly when its slot
  // counts as many live entries as the path has links.
  std::vector<std::uint32_t> listed(gens_.size(), 0);
  std::vector<std::uint64_t> seen;
  for (netsim::LinkIndex l = 0; l < routes_by_link_.size(); ++l) {
    const LinkRoutes& list = routes_by_link_[l];
    HP_CHECK(list.entries.size() <= growth_bound(list.compacted),
             "BuiltFabric::validate: a link's list outgrew its bound");
    seen.clear();
    for (const std::uint64_t entry : list.entries) {
      if (!live(entry)) continue;
      const CompiledRoute* route =
          find_route(record(entry_record(entry)), entry_route(entry));
      HP_CHECK(route != nullptr &&
                   std::ranges::find(route->path, l) != route->path.end(),
               "BuiltFabric::validate: a live entry's route is off its link");
      seen.push_back(entry);
      ++listed[slot(entry_record(entry), entry_route(entry))];
    }
    std::ranges::sort(seen);
    HP_CHECK(std::ranges::adjacent_find(seen) == seen.end(),
             "BuiltFabric::validate: a live entry is listed twice");
  }
  for (std::uint32_t rec = 0; rec < record_count_; ++rec) {
    const PairRecord& r = record(rec);
    for (unsigned s = 0; s < (r.other ? 2U : 1U); ++s) {
      for (std::size_t rank = 0; rank <= r.set(s).backups.size(); ++rank) {
        const std::uint32_t id = route_id(s, rank);
        const CompiledRoute* route = find_route(r, id);
        HP_CHECK(listed[slot(rec, id)] == (route ? route->path.size() : 0),
                 "BuiltFabric::validate: a route is unlisted on its path");
      }
    }
  }
}

const CompiledRoute* BuiltFabric::serving_route(std::uint32_t rec) const {
  const PairRecord& r = record(rec);
  return r.serving == kNoRoute ? nullptr : &r.route(r.serving);
}

unsigned BuiltFabric::primary_slot(PairRecord& r) {
  // A displaced original stays put for restore_link: write the other set.
  const unsigned s =
      r.original == r.primary_set ? 1U - r.original : r.primary_set;
  if (s == 1 && !r.other) r.other = std::make_unique<RouteSet>();
  return s;
}

void BuiltFabric::store_primary(std::uint32_t rec, CompiledRoute&& route) {
  PairRecord& r = record(rec);
  const unsigned s = primary_slot(r);
  CompiledRoute& primary = r.set(s).primary;
  retire(rec, route_id(s, 0));
  primary = std::move(route);
  list_route(rec, route_id(s, 0), primary.path);
  r.primary_set = static_cast<std::uint8_t>(s);
  r.serving = route_id(s, 0);
  ++stats_.routes_compiled;
}

bool BuiltFabric::crosses_failed_link(const netsim::Path& path) const {
  return std::ranges::any_of(
      path, [&](netsim::LinkIndex l) { return link_down_[l] != 0; });
}

const CompiledRoute* BuiltFabric::route(NodeIndex src, NodeIndex dst) {
  if (src == dst) {
    throw std::invalid_argument("BuiltFabric::route: src == dst");
  }
  if (const std::uint32_t rec = find_record(src, dst); rec != kNoRecord) {
    if (const CompiledRoute* serving = serving_route(rec)) return serving;
  }
  (void)fabric_index(src);  // validates both endpoints are routers
  (void)fabric_index(dst);
  const CompileStats before = stats_;
  const auto t0 = std::chrono::steady_clock::now();
  auto path = netsim::tree_path(tree_for(src), topo_, dst);
  if (!path) return nullptr;

  // The one-path case of the route walk: every hop folds.
  cursor_.restart(topo_to_fabric_[src]);
  CompiledRoute compiled =
      walk_route(cursor_, std::move(*path), stats_.crt_steps);
  const std::uint32_t rec = record_for(src, dst);
  store_primary(rec, std::move(compiled));
  note_compile("route", before, t0);
  return serving_route(rec);
}

const CompiledRoute* BuiltFabric::cached_route(NodeIndex src,
                                               NodeIndex dst) const {
  const std::uint32_t rec = find_record(src, dst);
  return rec == kNoRecord ? nullptr : serving_route(rec);
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
                                      const std::vector<char>* marks,
                                      PathCursor& cursor,
                                      std::vector<KeyedRoute>& out,
                                      std::size_t& crt_steps) const {
  netsim::tree_children(tree, topo_, cursor.children);
  const NodeIndex src = tree.src;
  cursor.restart(topo_to_fabric_[src]);
  auto& stack = cursor.stack;  // (node, next child to try)
  stack.clear();
  stack.emplace_back(src, 0);

  while (!stack.empty()) {
    // Pick this frame's next compilable child (routers only -- hosts
    // hang off the tree as leaves -- and, when pruning, marked nodes).
    auto& [node, next_child] = stack.back();
    const auto kids = cursor.children.of(node);
    NodeIndex child = kInvalidIndex;
    while (next_child < kids.size()) {
      const NodeIndex c = kids[next_child++];
      if (topo_to_fabric_[c] == kInvalidIndex) continue;
      if (marks != nullptr && ((*marks)[c] & kDescend) == 0) continue;
      child = c;
      break;
    }
    if (child == kInvalidIndex) {
      if (node != src) cursor.links.pop_back();
      stack.pop_back();
      continue;
    }

    // Descend: one CRT step covers every destination under `child`,
    // which then finishes the shared prefix with its own egress
    // congruence (one fold at most).
    extend(cursor, tree.via[child], crt_steps);
    if (marks == nullptr || ((*marks)[child] & kEmit) != 0) {
      out.emplace_back(netsim::node_pair_key(src, child),
                       finish(cursor, cursor.links, crt_steps));
    }
    stack.emplace_back(child, 0);
  }
}

std::size_t BuiltFabric::compile_all_pairs(unsigned threads) {
  obs::TraceScope scope(trace_, "compile.all_pairs", "compile");
  const CompileStats before = stats_;
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t sources = fabric_to_topo_.size();
  struct SourceCompile {
    bool fresh_tree = false;  ///< built here, not cached before
    std::vector<KeyedRoute> routes;
    std::size_t crt_steps = 0;
  };
  std::vector<SourceCompile> per_source(sources);

  // Each worker owns its sources' tree slots and per_source entries and
  // runs its own search and cursor (the serial case uses the fabric's);
  // records and the index are written single-threaded after the join.
  auto compile_range = [&](std::size_t begin, std::size_t end,
                           netsim::PathSearch& search, PathCursor& cursor) {
    for (std::size_t i = begin; i < end; ++i) {
      const NodeIndex src = fabric_to_topo_[i];
      SourceCompile& out = per_source[i];
      out.routes.reserve(fabric_to_topo_.size());
      netsim::PathTree& tree = trees_[i];
      if (tree.src == kInvalidIndex) {
        search.run(src);
        search.tree(tree);
        out.fresh_tree = true;
      }
      compile_tree_routes(tree, nullptr, cursor, out.routes, out.crt_steps);
      // Records are made in key order, so events find them in key order.
      std::ranges::sort(out.routes, {}, &KeyedRoute::first);
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

  // New pairs' routes are counted, then appended into exactly reserved
  // lists; a cached pair's new primary replaces its old one in place.
  BulkAppend fresh(routes_by_link_);
  std::size_t records = record_count_;
  for (std::size_t i = 0; i < sources; ++i) {
    for (const auto& [key, route] : per_source[i].routes) {
      if (find_record(fabric_to_topo_[i], key & 0xFFFFFFFFu) == kNoRecord) {
        fresh.count(route.path);
        ++records;
      }
    }
  }
  fresh.reserve();
  gens_.reserve(records * 2 * ranks_);
  std::size_t written = 0;
  for (std::size_t i = 0; i < sources; ++i) {
    SourceCompile& out = per_source[i];
    stats_.trees_built += out.fresh_tree;
    stats_.crt_steps += out.crt_steps;
    auto& slots = pair_slots_[i];
    const std::size_t cached = slots.size();
    slots.reserve(cached + out.routes.size());
    for (auto& [key, route] : out.routes) {
      const NodeIndex dst = key & 0xFFFFFFFFu;
      std::uint32_t rec = kNoRecord;
      if (cached != 0) {  // only the sorted head: new slots are appended
        const auto head = std::span(slots).first(cached);
        const auto it = std::ranges::lower_bound(
            head, static_cast<std::uint32_t>(dst), {}, &PairSlot::dst);
        if (it != head.end() && it->dst == dst) rec = it->rec;
      }
      ++written;
      if (rec != kNoRecord) {
        store_primary(rec, std::move(route));
        continue;
      }
      rec = append_record(key);
      slots.push_back(PairSlot{static_cast<std::uint32_t>(dst), rec});
      PairRecord& r = record(rec);
      r.own.primary = std::move(route);
      r.serving = route_id(0, 0);
      fresh.append(live_entry(rec, route_id(0, 0)), r.own.primary.path);
      ++stats_.routes_compiled;
    }
    if (cached != 0) std::ranges::sort(slots, {}, &PairSlot::dst);
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
  // with the whole tree.  marked_ lists what to unmark afterwards.
  marked_.clear();
  const auto mark = [&](NodeIndex n, char bit) {
    if (marks_[n] == 0) marked_.push_back(n);
    marks_[n] = static_cast<char>(marks_[n] | bit);
  };
  for (const NodeIndex dst : dsts) {
    if (dst == src || dst >= topo_.node_count()) continue;
    if (topo_to_fabric_[dst] == kInvalidIndex) continue;
    if (tree.via[dst] == kInvalidIndex) continue;  // unreachable now
    mark(dst, kEmit);
    for (NodeIndex cur = dst; cur != src && (marks_[cur] & kDescend) == 0;
         cur = topo_.link(tree.via[cur]).from) {
      mark(cur, kDescend);
    }
  }
  if (marked_.empty()) return 0;

  subtree_routes_.clear();
  std::size_t crt_steps = 0;
  compile_tree_routes(tree, &marks_, cursor_, subtree_routes_, crt_steps);
  for (const NodeIndex n : marked_) marks_[n] = 0;
  stats_.crt_steps += crt_steps;
  for (auto& [key, route] : subtree_routes_) {
    store_primary(record_for(src, key & 0xFFFFFFFFu), std::move(route));
  }
  note_compile("subtree", before, t0);
  return subtree_routes_.size();
}

void BuiltFabric::disarm() {
  // Each pair keeps only the route it serves, as its one primary; the
  // index is rebuilt from those.
  BulkAppend kept(routes_by_link_);
  for (LinkRoutes& list : routes_by_link_) list = LinkRoutes{};
  for (std::uint32_t rec = 0; rec < record_count_; ++rec) {
    PairRecord& r = record(rec);
    if (r.serving == kNoRoute) {
      r.own.primary = CompiledRoute{};
    } else if (r.serving != route_id(0, 0)) {
      r.own.primary = std::move(r.route(r.serving));
    }
    r.own.backups.clear();
    r.other.reset();
    r.primary_set = 0;
    r.backup_set = 0;
    r.original = kNoSet;
    if (r.serving != kNoRoute) r.serving = route_id(0, 0);
    kept.count(r.own.primary.path);
  }
  kept.reserve();
  for (std::uint32_t rec = 0; rec < record_count_; ++rec) {
    kept.append(live_entry(rec, route_id(0, 0)), record(rec).own.primary.path);
  }
}

std::size_t BuiltFabric::enable_protection(unsigned k) {
  obs::TraceScope scope(trace_, "compile.protect", "compile");
  HP_CHECK(k <= kMaxProtection,
           "BuiltFabric: protection k exceeds kMaxProtection, the 15-bit "
           "route ranks of the link index");
  const CompileStats before = stats_;
  const auto t0 = std::chrono::steady_clock::now();
  protection_k_ = k;
  if (k == 0) {
    disarm();
    return 0;
  }
  // Every serving pair without a protection set, planned in ascending
  // key order, so each source's pairs are one run.
  std::vector<std::uint32_t> recs;
  for (std::uint32_t rec = 0; rec < record_count_; ++rec) {
    const PairRecord& r = record(rec);
    if (r.serving != kNoRoute && r.set(r.backup_set).backups.empty()) {
      recs.push_back(rec);
    }
  }
  const auto key_of = [this](std::uint32_t rec) { return record(rec).key; };
  if (!std::ranges::is_sorted(recs, {}, key_of)) {
    std::ranges::sort(recs, {}, key_of);
  }
  std::size_t installed = 0;
  for_each_source(std::span<const std::uint32_t>(recs), key_of,
                  [&](std::span<const std::uint32_t> same_source) {
                    installed += protect_source(same_source, false);
                  });
  // The new backups join the index as the primaries did: counted, then
  // appended into exactly reserved lists.
  BulkAppend fresh(routes_by_link_);
  for (const std::uint32_t rec : recs) {
    const PairRecord& r = record(rec);
    for (const BackupRoute& b : r.set(r.backup_set).backups) {
      fresh.count(b.path);
    }
  }
  fresh.reserve();
  for (const std::uint32_t rec : recs) {
    const PairRecord& r = record(rec);
    const auto& backups = r.set(r.backup_set).backups;
    for (std::size_t i = 0; i < backups.size(); ++i) {
      fresh.append(live_entry(rec, route_id(r.backup_set, i + 1)),
                   backups[i].path);
    }
  }
  if (metrics_ != nullptr) {
    metrics_->counter("compile.backup_routes")
        .add(stats_.backup_routes - before.backup_routes);
  }
  note_compile("protect", before, t0);
  return installed;
}

std::size_t BuiltFabric::protect_source(std::span<const std::uint32_t> recs,
                                        bool reindex_old) {
  const NodeIndex src =
      netsim::node_pair_from_key(record(recs.front()).key).first;
  std::vector<netsim::Path> paths;    // every backup path of the source
  std::vector<std::size_t> first{0};  // pair i's: [first[i], first[i + 1])
  std::vector<std::size_t> primary_hops;
  first.reserve(recs.size() + 1);
  primary_hops.reserve(recs.size());
  for (const std::uint32_t rec : recs) {
    const netsim::Path& primary = serving_route(rec)->path;
    // Disjoint alternates: the primary's links (both directions) are
    // banned on top of the failed ones for this one search.
    for (const netsim::LinkIndex l : primary) search_.ban_duplex(l);
    (void)search_.disjoint_paths(
        src, netsim::node_pair_from_key(record(rec).key).second,
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

  for (std::size_t i = 0; i < recs.size(); ++i) {
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
    check_installable(backups);
    stats_.backup_routes += backups.size();
    if (backups.size() >= ranks_) widen(backups.size() + 1);
    PairRecord& r = record(recs[i]);
    HP_DCHECK(r.serving == kNoRoute || (r.serving & kRankMask) == 0 ||
                  r.serving >> kSetShift != r.backup_set,
              "protect_source: replacing the backups a pair serves");
    auto& current = r.set(r.backup_set).backups;
    std::swap(current, backups);  // `backups` now holds the old set
    const std::size_t ranks =
        reindex_old ? std::max(current.size(), backups.size()) : 0;
    for (std::size_t j = 0; j < ranks; ++j) {
      const std::uint32_t id = route_id(r.backup_set, j + 1);
      retire(recs[i], id);
      if (j < current.size()) list_route(recs[i], id, current[j].path);
    }
  }
  return paths.size();
}

template <typename Keep>
void BuiltFabric::collect_hits(netsim::LinkIndex fwd, netsim::LinkIndex rev,
                               Keep keep) {
  event_hits_.clear();
  event_hits_.reserve(routes_by_link_[fwd].entries.size() +
                      routes_by_link_[rev].entries.size());
  for (const netsim::LinkIndex l : {fwd, rev}) {
    for (const std::uint64_t entry : routes_by_link_[l].entries) {
      // A live entry's route crosses l: only its record is read.
      if (!live(entry)) continue;
      const std::uint32_t rec = entry_record(entry);
      const PairRecord& r = record(rec);
      if (keep(r, entry_route(entry))) event_hits_.emplace_back(r.key, rec);
    }
  }
  // Lists are unordered.  A route is listed live once per link, and a
  // path, being simple, never crosses both directions of a link.
  std::ranges::sort(event_hits_);
  HP_DCHECK(std::ranges::adjacent_find(event_hits_) == event_hits_.end(),
            "collect_hits: a route listed twice");
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

  // The index names exactly the routes served over the dead link:
  // O(routes over it), not O(routes * hops).
  collect_hits(*fwd, *rev, [](const PairRecord& r, std::uint32_t id) {
    return r.serving == id;
  });
  report.affected.reserve(event_hits_.size());
  for (const auto& [key, rec] : event_hits_) {
    report.affected.push_back(netsim::node_pair_from_key(key));
  }

  // Drop only the trees that routed through the dead link.  Every other
  // cached tree remains a valid shortest-path tree: removing links it
  // never used cannot create a shorter alternative.  A tree can use
  // a->b only as b's parent link, so one lookup per tree settles it.
  for (netsim::PathTree& tree : trees_) {
    if (tree.src != kInvalidIndex &&
        (tree.via[b] == *fwd || tree.via[a] == *rev)) {
      tree.src = kInvalidIndex;
    }
  }

  if (protection_k_ > 0) {
    // Hitless path: each affected pair serves its first live backup in
    // rank order.  The displaced primary stays in place as the pair's
    // original (a first displacement only) for restore_link.  The
    // whole window is rank scans and serving flips -- no path search,
    // no CRT, no copy, zero routes_compiled (the acceptance bar).
    report.swapped.reserve(event_hits_.size());
    report.swap_stretch.reserve(event_hits_.size());
    for (const auto& [key, rec] : event_hits_) {
      PairRecord& r = record(rec);
      if (r.original == kNoSet) r.original = r.primary_set;
      const auto& backups = r.set(r.backup_set).backups;
      const auto rank = first_live_backup(backups, link_down_);
      const auto pr = netsim::node_pair_from_key(key);
      if (!rank) {
        r.serving = kNoRoute;
        report.pending.push_back(pr);
        pending_.push_back(pr);
        continue;
      }
      r.serving = route_id(r.backup_set, *rank + 1);
      ++stats_.backup_swaps;
      report.swapped.push_back(pr);
      report.swap_stretch.push_back(backups[*rank].stretch);
    }
    if (metrics_ != nullptr && !report.swapped.empty()) {
      metrics_->counter("compile.backup_swaps").add(report.swapped.size());
    }
  } else {
    // Eager path (the pre-protection behaviour): subtree-scoped repair
    // of each source's severed destinations inside the event.
    for (const auto& [key, rec] : event_hits_) record(rec).serving = kNoRoute;
    compile_by_source(report.affected);
    for (const auto& [key, rec] : event_hits_) {
      const auto pr = netsim::node_pair_from_key(key);
      if (record(rec).serving != kNoRoute) {
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

void BuiltFabric::compile_by_source(
    std::span<const std::pair<NodeIndex, NodeIndex>> pairs) {
  const auto key_of = [](const std::pair<NodeIndex, NodeIndex>& pr) {
    return netsim::node_pair_key(pr.first, pr.second);
  };
  for_each_source(pairs, key_of, [&](auto same_source) {
    dsts_.clear();
    for (const auto& pr : same_source) dsts_.push_back(pr.second);
    (void)compile_subtree(same_source.front().first, dsts_);
  });
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

  compile_by_source(work);
  std::vector<std::uint32_t> replan;
  for (const auto& pr : work) {
    const std::uint32_t rec = find_record(pr.first, pr.second);
    if (rec == kNoRecord || record(rec).serving == kNoRoute) {
      report.unroutable.push_back(pr);
      continue;
    }
    report.repaired.push_back(pr);
    replan.push_back(rec);
  }
  // The repaired pairs' old protection sets are dead; replan them
  // against the repaired primaries and the degraded topology, one
  // source at a time (work is sorted, so replan is too).  The set
  // planned for a pair's original primary stays with it: the repaired
  // primary went to the other set, and the new backups follow it there,
  // so restore_link finds both where they were.
  if (protection_k_ > 0) {
    for (const std::uint32_t rec : replan) {
      PairRecord& r = record(rec);
      if (r.backup_set == r.original) r.backup_set = r.primary_set;
    }
    const auto rec_key = [this](std::uint32_t rec) { return record(rec).key; };
    for_each_source(std::span<const std::uint32_t>(replan), rec_key,
                    [&](std::span<const std::uint32_t> same_source) {
                      (void)protect_source(same_source, true);
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
  // them all (rebuilt lazily into the same buffers).  Cached routes stay
  // valid -- their paths still exist -- they are just possibly no
  // longer shortest.
  for (netsim::PathTree& tree : trees_) tree.src = kInvalidIndex;

  if (protection_k_ > 0) {
    // Revert every displaced pair whose original primary is fully alive
    // again -- including pairs a failure had severed outright, whose
    // routes revive here without any recompile.  Only originals over
    // the revived link are candidates: every other one still crosses a
    // dead link (the invariant checked below).
    collect_hits(*fwd, *rev, [&](const PairRecord& r, std::uint32_t id) {
      return r.original != kNoSet && id == route_id(r.original, 0) &&
             !crosses_failed_link(r.set(r.original).primary.path);
    });
    report.affected.reserve(event_hits_.size());
    report.swapped.reserve(event_hits_.size());
    report.swap_stretch.reserve(event_hits_.size());
    for (const auto& [key, rec] : event_hits_) {
      // The original primary serves again under the protection set
      // planned for it, wherever a repair left later ones.
      PairRecord& r = record(rec);
      const std::uint8_t original = r.original;
      r.serving = route_id(original, 0);
      r.primary_set = original;
      r.backup_set = original;
      r.original = kNoSet;
      // What repairs compiled beside the original is unreachable now:
      // free it.  Its index entries go stale.
      retire_set(rec, 1U - original);
      if (original == 0) {
        r.other.reset();
      } else {
        r.own = RouteSet{};
      }
      ++stats_.backup_swaps;
      const auto pr = netsim::node_pair_from_key(key);
      report.affected.push_back(pr);
      report.swapped.push_back(pr);
      report.swap_stretch.push_back(1.0);  // back on the primary
    }
    // Revived pairs are no longer waiting on the lazy recompiler.
    std::erase_if(pending_, [&](const std::pair<NodeIndex, NodeIndex>& pr) {
      return std::ranges::binary_search(
          event_hits_, netsim::node_pair_key(pr.first, pr.second), {},
          &std::pair<RouteKey, std::uint32_t>::first);
    });
    HP_DCHECK(std::ranges::all_of(
                  std::views::iota(std::uint32_t{0}, record_count_),
                  [&](std::uint32_t rec) {
                    const PairRecord& r = record(rec);
                    return r.original == kNoSet ||
                           crosses_failed_link(r.set(r.original).primary.path);
                  }),
              "restore_link: a fully alive original was not reverted");
    if (metrics_ != nullptr && !report.swapped.empty()) {
      metrics_->counter("compile.backup_swaps").add(report.swapped.size());
    }
  }
  note_compile("restore_link", stats_, t0);
  return report;
}

}  // namespace hp::scenario
