#pragma once
// FabricBuilder: turn any netsim::Topology into a wired PolkaFabric
// with compiled per-pair routes.
//
// The router subgraph of the topology becomes the PolKA core: each
// router gets one fabric port per distinct router neighbour plus one
// extra, deliberately unwired, egress port (the host-facing side on
// which a packet leaves the fabric).  Routes between router pairs are
// shortest paths (hop count) computed from cached single-source
// shortest-path trees and CRT-encoded into routeIDs.
//
// One route compiler, a cursor walk: a stack of polka::SegmentBuilders,
// one per link of the current path from a source, so moving to another
// path from the same source keeps the builders of the prefix the two
// share and folds only the rest.  Three callers drive it:
//  - route() compiles one pair per call from a fresh cursor, folding
//    one congruence per hop (O(depth) CRT steps per route);
//  - compile_all_pairs() / compile_subtree() walk a source's tree
//    depth-first.  Every tree edge v->c serves all destinations in c's
//    subtree with the same port congruence at v, so descending adds
//    exactly one CRT step and each destination needs only its final
//    egress congruence: O(n) steps for a whole source instead of
//    O(n * depth);
//  - enable_protection() and repair_pending() plan backups one source
//    at a time: one disjoint search per pair on the fabric's one
//    netsim::PathSearch, the primary's duplex links banned around it,
//    then the source's backup paths compile in lexicographic order, so
//    each distinct prefix is folded once.  Nothing is rebuilt per pair.
//
// polka::SegmentBuilder is the only author of a route's wire form: the
// moment the accumulated CRT modulus would pass 64 coefficient bits it
// closes the open segment into one <= 64-bit label and makes the node a
// re-label waypoint -- so deep ring/torus paths never leave the uint64
// fast path and the compiler never materializes a wide Poly.
//
// Scheduled link failures remove links from path computation.  Each
// cached pair has one record, in storage that never moves: its
// primary, its ranked backups, its displaced original (the primary a
// failure displaced and the protection set planned for it, kept while
// a repair replaces them) and a "serving" index naming the route
// route() hands out.  One link -> route index lists, per directed
// link, every compiled route over it -- primaries and backups alike --
// from the time it is compiled until it is dropped.  A failure filters
// the dead link's two lists to serving routes and flips each crossing
// pair to its first live backup in rank order; a restore filters the
// same lists to displaced originals that are fully alive again and
// flips back.  Neither copies a route, allocates per pair, hashes or
// edits the index: only compiles and drops do (compile_all_pairs,
// compile_subtree, enable_protection, repair_pending, route(), and the
// frees of restore_link).  Every route slot -- record, set, rank --
// has a generation that each re-store or free of the slot bumps, and
// an entry carries the generation it was listed under, so the entries
// of a replaced or freed route go stale where they lie, and a re-store
// lists the route afresh on every link of its new path.  Telling a
// stale entry reads no record and no path.
// Only the shortest-path trees that used the dead link are rebuilt,
// and pairs with no live backup are recompiled subtree-scoped.

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "netsim/paths.hpp"
#include "netsim/topology.hpp"
#include "polka/forwarding.hpp"
#include "polka/label.hpp"
#include "scenario/protection.hpp"

namespace hp::obs {
class MetricRegistry;
class TraceSink;
}  // namespace hp::obs

namespace hp::scenario {

/// Counters behind the route compiler, exposed so tests and benches can
/// assert *how much* work a call performed (e.g. that apply_failure
/// recompiled only the routes crossing the dead link).
struct CompileStats {
  std::size_t routes_compiled = 0;  ///< CompiledRoute entries written
  std::size_t trees_built = 0;      ///< single-source tree searches
  std::size_t crt_steps = 0;        ///< congruences folded into solutions
  std::size_t backup_routes = 0;    ///< protection backups precompiled
  /// Hitless primary<->backup label swaps (failures and restore
  /// reverts).  Swaps never count in routes_compiled: the whole point
  /// of protection is that the failure window compiles nothing.
  std::size_t backup_swaps = 0;
};

/// Outcome of one failure or restore event, pair-classified.  Pairs
/// are (src, dst) topology indices; `affected` is every pair whose
/// cached route the event touched, in deterministic (sorted-key)
/// order, and the other lists partition it:
///  * swapped     served hitlessly by a pre-installed backup (or, on
///                restore, reverted to its revived primary);
///                swap_stretch is parallel to it;
///  * repaired    eagerly recompiled inside the event (unprotected
///                fabrics only);
///  * pending     protection set entirely dead; parked for
///                repair_pending() (the lazy window);
///  * unroutable  no path left in the degraded topology (repair_pending
///                moves pending pairs here when the search agrees).
struct FailoverReport {
  std::vector<std::pair<netsim::NodeIndex, netsim::NodeIndex>> affected;
  std::vector<std::pair<netsim::NodeIndex, netsim::NodeIndex>> swapped;
  std::vector<double> swap_stretch;
  std::vector<std::pair<netsim::NodeIndex, netsim::NodeIndex>> repaired;
  std::vector<std::pair<netsim::NodeIndex, netsim::NodeIndex>> pending;
  std::vector<std::pair<netsim::NodeIndex, netsim::NodeIndex>> unroutable;
  std::size_t window_recompiles = 0;  ///< routes compiled inside the event
  bool duplicate = false;  ///< link already in the requested state: no-op
};

/// A topology wired as a PolKA fabric, with route compilation on top.
class BuiltFabric {
 public:
  explicit BuiltFabric(netsim::Topology topo);

  [[nodiscard]] const netsim::Topology& topology() const noexcept {
    return topo_;
  }
  [[nodiscard]] const polka::PolkaFabric& fabric() const noexcept {
    return fabric_;
  }
  [[nodiscard]] const polka::CompiledFabric& compiled() const {
    return fabric_.compiled();
  }

  /// Topology indices of the router nodes, in fabric-index order.
  [[nodiscard]] const std::vector<netsim::NodeIndex>& routers() const noexcept {
    return fabric_to_topo_;
  }
  [[nodiscard]] std::size_t router_count() const noexcept {
    return fabric_to_topo_.size();
  }

  /// Fabric index of a router topology node (throws std::invalid_argument
  /// for hosts).
  [[nodiscard]] std::size_t fabric_index(netsim::NodeIndex topo_node) const;
  [[nodiscard]] netsim::NodeIndex topo_index(std::size_t fabric_node) const {
    return fabric_to_topo_.at(fabric_node);
  }

  /// The unwired host-facing port of a fabric node (always the last).
  [[nodiscard]] unsigned egress_port(std::size_t fabric_node) const;

  /// Compile (and cache) the shortest-hop route between two distinct
  /// routers, given as topology indices.  Returns nullptr when `dst` is
  /// unreachable from `src` (possible after link failures).  The
  /// returned pointer stays valid until an event (apply_failure,
  /// repair_pending, restore_link) changes the route the pair serves.
  /// Not thread-safe:
  /// compile every route before sharding a replay across threads.
  [[nodiscard]] const CompiledRoute* route(netsim::NodeIndex src,
                                           netsim::NodeIndex dst);

  /// The cached route src -> dst, or nullptr when none is cached.
  /// Never compiles; same pointer lifetime as route().
  [[nodiscard]] const CompiledRoute* cached_route(netsim::NodeIndex src,
                                                  netsim::NodeIndex dst) const;

  /// Tree-incremental all-pairs compilation: one shortest-path-tree
  /// walk per source, sharing CRT prefixes down the DFS -- O(n) CRT
  /// steps per source where per-pair route() calls cost O(n * depth).
  /// `threads` shards sources across workers (0 behaves as 1; the
  /// merge into the route cache stays single-threaded).  Returns the
  /// number of routes written (every ordered reachable router pair).
  std::size_t compile_all_pairs(unsigned threads = 1);

  /// Recompile the routes src -> each of `dsts`, sharing prefix CRT
  /// work along the source's tree and walking only branches that lead
  /// to a requested destination.  Destinations equal to src, not
  /// routers, or currently unreachable are skipped.  Returns the number
  /// of routes written.  This is the primitive failure repair uses.
  std::size_t compile_subtree(netsim::NodeIndex src,
                              std::span<const netsim::NodeIndex> dsts);

  /// Pre-plan k mutually link-disjoint backups for every *currently
  /// cached* route (compile or generate traffic first) and arm the
  /// protection layer: subsequent apply_failure calls swap crossing
  /// primaries to backups instead of recompiling.  Pairs with no
  /// disjoint alternative stay unprotected and fall back to the lazy
  /// recompiler.  Idempotent per pair; k = 0 disarms.  Returns the
  /// number of backups installed by this call.
  std::size_t enable_protection(unsigned k);

  [[nodiscard]] unsigned protection_k() const noexcept {
    return protection_k_;
  }

  /// Remove the duplex link a<->b from path computation (the fabric
  /// wiring is untouched: ports still exist, packets simply route
  /// around).  Throws std::invalid_argument when no such link exists;
  /// failing an already-failed link is a graceful no-op (duplicate set
  /// in the report).  Pairs served over the link stop serving it and
  /// then, with protection armed, hitlessly serve their first live
  /// pre-installed backup -- zero path computation, zero CRT work and
  /// no route copy in the window; pairs whose
  /// whole protection set died are parked in `pending` until
  /// repair_pending().  Without protection they are eagerly recompiled
  /// subtree-scoped inside the call.  Pairs the
  /// failure disconnected land in `unroutable` and report unreachable
  /// from route().
  FailoverReport apply_failure(netsim::NodeIndex a, netsim::NodeIndex b);

  /// Bring the duplex link a<->b back.  Dirty shortest-path trees are
  /// flushed (rebuilt lazily); with protection armed, every pair whose
  /// displaced primary is fully alive again reverts to it, with the
  /// protection set planned for it -- a hitless swap back, listed in
  /// `swapped` -- including pairs a failure had severed entirely
  /// (their routes revive without a recompile or a search).
  /// Restoring a link that is not failed is a no-op (duplicate set).
  FailoverReport restore_link(netsim::NodeIndex a, netsim::NodeIndex b);

  /// Lazily recompile the pairs apply_failure parked in `pending`
  /// (their protection set was dead).  Pairs that recompile land in
  /// `repaired` and get a fresh protection set planned against the
  /// degraded topology (their original set waits with their displaced
  /// primary for restore_link); pairs with no path left land in
  /// `unroutable`.
  FailoverReport repair_pending();

  [[nodiscard]] std::size_t pending_repair_count() const noexcept {
    return pending_.size();
  }

  /// The largest k enable_protection takes: a set's ranks 0..k must fit
  /// the 15-bit rank field of the link index's entries.
  static constexpr unsigned kMaxProtection = (1U << 15) - 1;

  /// Check the link -> route index against the records, in O(index +
  /// routes) time; throws core::ContractViolation naming the first
  /// broken invariant:
  ///  * every route a record holds has a live entry on every link of
  ///    its path;
  ///  * every live entry names a held route that crosses its link;
  ///  * no live entry is listed twice in one list;
  ///  * no list holds more entries than its compaction bound.
  /// A test hook: no event calls it.
  void validate() const;

  /// Directed links currently excluded from path computation.
  [[nodiscard]] const std::vector<netsim::LinkIndex>& failed_links()
      const noexcept {
    return banned_links_;
  }

  /// Attach observability taps (borrowed, both optional; nullptr
  /// detaches).  With metrics set, every compile entry point (route,
  /// compile_all_pairs, compile_subtree, apply_failure as phase
  /// "fail_link", repair_pending, restore_link) adds its
  /// CompileStats deltas to the compile.routes/.trees/.crt_steps
  /// counters and records its wall clock in a compile.<phase>_ns
  /// histogram; with trace set, the batch entry points emit one
  /// complete phase event each.
  void set_observability(obs::MetricRegistry* metrics,
                         obs::TraceSink* trace) noexcept {
    metrics_ = metrics;
    trace_ = trace;
  }

  [[nodiscard]] const CompileStats& compile_stats() const noexcept {
    return stats_;
  }
  /// Pairs with a route to serve (a pair a failure left without one
  /// does not count).
  [[nodiscard]] std::size_t cached_route_count() const;
  [[nodiscard]] std::size_t cached_tree_count() const;

 private:
  using RouteKey = std::uint64_t;
  using KeyedRoute = std::pair<RouteKey, CompiledRoute>;

  /// A primary and the backups planned around it, best first.
  struct RouteSet {
    CompiledRoute primary;
    std::vector<BackupRoute> backups;
  };

  /// "No set": a record's `original` when its pair is not displaced.
  static constexpr std::uint8_t kNoSet = 0xFF;
  /// "No route": a record's `serving` when its pair has none to serve.
  static constexpr std::uint32_t kNoRoute = 0xFFFFFFFFu;
  /// "No record", and the bound of the 32-bit record slots.
  static constexpr std::uint32_t kNoRecord = 0xFFFFFFFFu;

  /// A route's id inside its record, as serving and index entries name
  /// it: the set in bit 15, then the rank -- 0 for the set's primary,
  /// i + 1 for its backup i.
  static constexpr unsigned kSetShift = 15;
  static constexpr std::uint32_t kRankMask = kMaxProtection;
  static constexpr std::uint32_t route_id(unsigned set, std::size_t rank) {
    return (static_cast<std::uint32_t>(set) << kSetShift) |
           static_cast<std::uint32_t>(rank);
  }

  /// Everything cached for one (src, dst) pair.  Set 0 is inline; set 1
  /// is made by the first compile that must keep a displaced original.
  /// The current primary is sets[primary_set].primary and the current
  /// protection set sets[backup_set].backups.  A failure marks the
  /// primary it displaces as the pair's `original` and serves a backup;
  /// a later compile writes the other set, so the original and the set
  /// planned for it stay where they are until restore_link points
  /// `serving` back at them and frees the other set.  Nothing in a
  /// record moves while it serves.
  struct PairRecord {
    RouteKey key = 0;
    RouteSet own;
    std::unique_ptr<RouteSet> other;
    std::uint32_t serving = kNoRoute;
    std::uint8_t primary_set = 0;
    std::uint8_t backup_set = 0;
    std::uint8_t original = kNoSet;

    [[nodiscard]] RouteSet& set(unsigned s) { return s == 0 ? own : *other; }
    [[nodiscard]] const RouteSet& set(unsigned s) const {
      return s == 0 ? own : *other;
    }
    [[nodiscard]] CompiledRoute& route(std::uint32_t id) {
      RouteSet& rs = set(id >> kSetShift);
      const std::uint32_t rank = id & kRankMask;
      return rank == 0 ? rs.primary : rs.backups[rank - 1];
    }
    [[nodiscard]] const CompiledRoute& route(std::uint32_t id) const {
      const RouteSet& rs = set(id >> kSetShift);
      const std::uint32_t rank = id & kRankMask;
      return rank == 0 ? rs.primary : rs.backups[rank - 1];
    }
  };

  /// A record's slot in a source's lookup list, sorted by destination.
  struct PairSlot {
    std::uint32_t dst;
    std::uint32_t rec;
  };

  [[nodiscard]] PairRecord& record(std::uint32_t rec) {
    return record_chunks_[rec / kRecordChunk][rec % kRecordChunk];
  }
  [[nodiscard]] const PairRecord& record(std::uint32_t rec) const {
    return record_chunks_[rec / kRecordChunk][rec % kRecordChunk];
  }
  /// The record of src -> dst, or kNoRecord.
  [[nodiscard]] std::uint32_t find_record(netsim::NodeIndex src,
                                          netsim::NodeIndex dst) const;
  /// A fresh record for `key`, appended to storage (its lookup slot is
  /// the caller's to place).
  std::uint32_t append_record(RouteKey key);
  /// The record of router pair src -> dst, made (and slotted) if new.
  std::uint32_t record_for(netsim::NodeIndex src, netsim::NodeIndex dst);
  /// The set a new primary of `r` goes to (made if missing): its
  /// current one, or the other while the current holds the original.
  unsigned primary_slot(PairRecord& r);
  /// One directed link's index list, in no particular order: an entry
  /// rec << 32 | route id << 16 | generation per listing of a compiled
  /// route over the link.  An entry is live while its generation is its
  /// route slot's (gens_); a re-store or free of the slot makes it
  /// stale, wherever it lies.  A live route is listed once on every
  /// link of its path, so compaction is one filter on generations that
  /// reads no record.  `compacted` is the list's size after its last
  /// compaction (or bulk build); a list never holds more than
  /// growth_bound(compacted) entries.
  struct LinkRoutes {
    std::vector<std::uint64_t> entries;
    std::size_t compacted = 0;
  };
  [[nodiscard]] static constexpr std::size_t growth_bound(
      std::size_t compacted) {
    return compacted + compacted / 2 + 32;
  }

  /// Route slot (rec, id)'s place in gens_.
  [[nodiscard]] std::size_t slot(std::uint32_t rec, std::uint32_t id) const {
    return (std::size_t{rec} * 2 + (id >> kSetShift)) * ranks_ +
           (id & kRankMask);
  }
  /// The index entry that lists route `id` of `rec` live, now.
  [[nodiscard]] std::uint64_t live_entry(std::uint32_t rec,
                                         std::uint32_t id) const;
  /// True while `entry` carries its route slot's generation.
  [[nodiscard]] bool live(std::uint64_t entry) const;
  /// Bump the generation of route slot (rec, id), staling every entry
  /// that lists it.  A generation about to wrap first drops the slot's
  /// entries (and every stale one) from the whole index, so an old
  /// entry never reads live again.
  void retire(std::uint32_t rec, std::uint32_t id);
  /// retire() every route that set `s` of `rec` holds.
  void retire_set(std::uint32_t rec, unsigned s);
  /// Make gens_ hold `ranks` ranks per set (more than it does).
  void widen(std::size_t ranks);

  /// Bulk appends to the index: count, reserve exactly, append.
  class BulkAppend;

  /// Route `id` of `r`, or nullptr when `r` holds none under that id.
  [[nodiscard]] static const CompiledRoute* find_route(const PairRecord& r,
                                                       std::uint32_t id);
  /// List route `id` of `rec`, just stored (and its slot retired), on
  /// every link of `path`.
  void list_route(std::uint32_t rec, std::uint32_t id,
                  const netsim::Path& path);
  /// Drop link `l`'s stale entries.
  void compact(netsim::LinkIndex l);

  /// The route `rec` serves, or nullptr.
  [[nodiscard]] const CompiledRoute* serving_route(std::uint32_t rec) const;

  /// Cached tree for `src`, built on first use (counts in stats_).
  const netsim::PathTree& tree_for(netsim::NodeIndex src);

  /// A compiler's position on the routes out of one source: the links
  /// from the source to the current node, and in builders[i] the
  /// SegmentBuilder that has folded the first i of them.  Rewinding to
  /// a shared prefix keeps its builder, and slots are reused, so a warm
  /// cursor walks any number of paths without allocating.  The tree
  /// walk's children table and stack live here too, reused per walk.
  struct PathCursor {
    std::size_t fsrc = 0;  ///< fabric index of the source
    netsim::Path links;
    std::vector<polka::SegmentBuilder> builders =
        std::vector<polka::SegmentBuilder>(1);
    netsim::TreeChildren children;
    std::vector<std::pair<netsim::NodeIndex, std::size_t>> stack;

    void restart(std::size_t fabric_src) {
      fsrc = fabric_src;
      links.clear();
    }
  };

  /// Step `cursor` over `link`, leaving its tail: one transit fold.
  void extend(PathCursor& cursor, netsim::LinkIndex link,
              std::size_t& crt_steps) const;

  /// The route from the cursor's source to its current node over
  /// `path` (the cursor's links), finished there: one egress fold at
  /// most.
  [[nodiscard]] CompiledRoute finish(const PathCursor& cursor,
                                     netsim::Path path,
                                     std::size_t& crt_steps) const;

  /// The route compiler.  Walk `cursor` from the prefix `path` shares
  /// with the cursor's links to the end of `path`, and compile the
  /// route there; `crt_steps` gains the folds made.  Thread-safe given
  /// a cursor per thread.
  [[nodiscard]] CompiledRoute walk_route(PathCursor& cursor, netsim::Path path,
                                         std::size_t& crt_steps) const;

  /// DFS down `tree` with one cursor, emitting one route per visited
  /// router destination: each tree edge is one fold, shared by every
  /// destination below it.  `marks`, when given, prunes the walk to
  /// nodes marked kDescend and emits only nodes marked kEmit.
  /// Thread-safe given a cursor per thread.
  void compile_tree_routes(const netsim::PathTree& tree,
                           const std::vector<char>* marks, PathCursor& cursor,
                           std::vector<KeyedRoute>& out,
                           std::size_t& crt_steps) const;
  static constexpr char kDescend = 1;
  static constexpr char kEmit = 2;

  /// compile_subtree once per source of the sorted `pairs`.
  void compile_by_source(
      std::span<const std::pair<netsim::NodeIndex, netsim::NodeIndex>> pairs);

  /// Compile `route` into `rec` as its primary and serve it.  A
  /// displaced original is kept: the route goes to the other set.
  void store_primary(std::uint32_t rec, CompiledRoute&& route);

  /// True when `path` crosses a link that is currently down.
  [[nodiscard]] bool crosses_failed_link(const netsim::Path& path) const;

  /// The route from fabric node `fsrc` to `fdst` over `path`, carrying
  /// `segments`: ingress and expectation, written once for every
  /// compiler.
  [[nodiscard]] CompiledRoute make_route(std::size_t fsrc, std::size_t fdst,
                                         polka::SegmentedRoute segments,
                                         netsim::Path path) const;

  /// Plan and install `protection_k_` disjoint backups as the current
  /// protection sets of the records `recs`, all of one source and
  /// ascending by key; each set replaces the record's current one.
  /// Each pair costs one disjoint search on search_, its serving
  /// route's duplex links banned around it; then every backup path of
  /// the source compiles in one walk of cursor_ in lexicographic order,
  /// so backups that share a prefix share its folds.  With
  /// `reindex_old` the new sets replace the old ones in the index;
  /// without, the caller indexes them (the old ones must be empty).
  /// Returns how many backups were installed.
  std::size_t protect_source(std::span<const std::uint32_t> recs,
                             bool reindex_old);

  /// enable_protection(0): every pair keeps only the route it serves,
  /// as its one primary, and the index is rebuilt from those.
  void disarm();

  /// The (key, record) pairs whose entry in the lists of `fwd` or `rev`
  /// passes `keep`, in ascending key order, into event_hits_.
  template <typename Keep>
  void collect_hits(netsim::LinkIndex fwd, netsim::LinkIndex rev, Keep keep);

  /// Record one compile phase's stats deltas and wall clock into the
  /// attached registry (no-op when detached).
  void note_compile(const char* phase, const CompileStats& before,
                    std::chrono::steady_clock::time_point start) const;

  netsim::Topology topo_;
  /// The fabric's one path search; its link bans are the failed links
  /// between calls.
  netsim::PathSearch search_;
  /// The cursor of the single-threaded compiles (route(), subtree
  /// repair, backup planning).
  PathCursor cursor_;
  polka::PolkaFabric fabric_;
  std::vector<std::size_t> topo_to_fabric_;  // kInvalidIndex for hosts
  std::vector<netsim::NodeIndex> fabric_to_topo_;
  /// Per fabric node: the nodeID's coefficient word and degree, the
  /// SegmentBuilder's inputs (every nodeID fits one word).
  std::vector<std::uint64_t> node_bits_;
  std::vector<int> node_degree_;
  /// Per directed router-router link: the fabric port its tail leaves
  /// through.
  std::vector<unsigned> link_port_;
  std::vector<netsim::LinkIndex> banned_links_;
  /// Per directed link: 1 while failed.  The O(1) form of
  /// banned_links_, sized at construction, consulted by backup
  /// selection and restore reverts.
  std::vector<char> link_down_;
  unsigned protection_k_ = 0;

  /// Pair records, kRecordChunk to a chunk, so none ever moves.
  static constexpr std::size_t kRecordChunk = 1024;
  std::vector<std::unique_ptr<PairRecord[]>> record_chunks_;
  std::uint32_t record_count_ = 0;
  /// Per fabric source: its records' slots, sorted by destination.
  /// Memory grows with the cached pairs, not with router pairs.
  std::vector<std::vector<PairSlot>> pair_slots_;
  /// The link -> route index, per directed link (indexed by LinkIndex,
  /// sized at construction).
  std::vector<LinkRoutes> routes_by_link_;
  /// Per route slot (record, set, rank): its generation.  Dense, in
  /// record order, ranks_ slots per set: 2 bytes per slot, so a reader
  /// tells a stale entry without loading its record.
  std::vector<std::uint16_t> gens_;
  /// Slots per set in gens_: 1 + the most backups any set has held.
  std::size_t ranks_ = 1;

  /// Pairs whose protection set died, awaiting repair_pending().
  std::vector<std::pair<netsim::NodeIndex, netsim::NodeIndex>> pending_;
  /// Per fabric source: its shortest-path tree, valid while its src is
  /// set.  A flush clears the src and keeps the buffers.
  std::vector<netsim::PathTree> trees_;
  /// Scratch reused across calls: an event's (key, record) hits, a
  /// subtree compile's marks and the nodes it marked, its routes, and
  /// one source's destinations.
  std::vector<std::pair<RouteKey, std::uint32_t>> event_hits_;
  std::vector<char> marks_;
  std::vector<netsim::NodeIndex> marked_;
  std::vector<KeyedRoute> subtree_routes_;
  std::vector<netsim::NodeIndex> dsts_;
  CompileStats stats_;
  obs::MetricRegistry* metrics_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace hp::scenario
