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
// Scheduled link failures remove links from path computation; a
// link -> route-keys inverted index names the crossing routes in
// O(affected), only the shortest-path trees that used the dead link are
// rebuilt, and the severed destinations are recompiled subtree-scoped.
// With protection armed, a second link -> saved-primary index lets a
// restore examine only the primaries over the revived link.  Both
// indexes are dense vectors over LinkIndex holding sorted key lists:
// naming an event's keys and editing the lists are merges of sorted
// lists, with no hash lookup per link or per listed key.

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
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
  /// returned pointer stays valid until a failure event (apply_failure,
  /// repair_pending, restore_link) replaces the route.  Not thread-safe:
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
  /// in the report).  Crossing routes are evicted and then, with
  /// protection armed, hitlessly swapped to pre-installed backups --
  /// zero path computation, zero CRT work in the window; pairs whose
  /// whole protection set died are parked in `pending` until
  /// repair_pending().  Without protection they are eagerly recompiled
  /// subtree-scoped inside the call.  Pairs the
  /// failure disconnected land in `unroutable` and report unreachable
  /// from route().
  FailoverReport apply_failure(netsim::NodeIndex a, netsim::NodeIndex b);

  /// Bring the duplex link a<->b back.  Dirty shortest-path trees are
  /// flushed (rebuilt lazily); with protection armed, every pair whose
  /// saved primary is fully alive again reverts to it, with the
  /// protection set planned for it -- a hitless swap back, listed in
  /// `swapped` -- including pairs a failure had severed entirely
  /// (their routes revive without a recompile or a search).
  /// Restoring a link that is not failed is a no-op (duplicate set).
  FailoverReport restore_link(netsim::NodeIndex a, netsim::NodeIndex b);

  /// Lazily recompile the pairs apply_failure parked in `pending`
  /// (their protection set was dead).  Pairs that recompile land in
  /// `repaired` and get a fresh protection set planned against the
  /// degraded topology (their original set waits with their saved
  /// primary for restore_link); pairs with no path left land in
  /// `unroutable`.
  FailoverReport repair_pending();

  [[nodiscard]] std::size_t pending_repair_count() const noexcept {
    return pending_.size();
  }

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
  [[nodiscard]] std::size_t cached_route_count() const noexcept {
    return routes_.size();
  }
  [[nodiscard]] std::size_t cached_tree_count() const noexcept {
    return trees_.size();
  }

 private:
  using RouteKey = std::uint64_t;
  using KeyedRoute = std::pair<RouteKey, CompiledRoute>;

  /// Cached tree for `src`, built on first use (counts in stats_).
  const netsim::PathTree& tree_for(netsim::NodeIndex src);

  /// A compiler's position on the routes out of one source: the links
  /// from the source to the current node, and in builders[i] the
  /// SegmentBuilder that has folded the first i of them.  Rewinding to
  /// a shared prefix keeps its builder, and slots are reused, so a warm
  /// cursor walks any number of paths without allocating.
  struct PathCursor {
    std::size_t fsrc = 0;  ///< fabric index of the source
    netsim::Path links;
    std::vector<polka::SegmentBuilder> builders =
        std::vector<polka::SegmentBuilder>(1);

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
  /// destination below it.  `descend`, when given, prunes the walk to
  /// marked nodes; `emit`, when given, selects which visited nodes
  /// produce a route.  Thread-safe given a cursor per thread.
  void compile_tree_routes(const netsim::PathTree& tree,
                           const std::vector<char>* descend,
                           const std::vector<char>* emit, PathCursor& cursor,
                           std::vector<KeyedRoute>& out,
                           std::size_t& crt_steps) const;

  /// Link-index edits an event gathers and applies at its end.
  struct IndexEdits;

  /// Insert or overwrite one cache entry and return it.  The link index
  /// is edited at once, or, given `batch`, when the caller applies the
  /// batch: events that swap many routes pass one, so each key list
  /// moves once per event.  Hitless backup swaps pass count_compile =
  /// false: installing a pre-compiled label is not a route compilation.
  CompiledRoute& store_route(RouteKey key, CompiledRoute&& route,
                             bool count_compile = true,
                             IndexEdits* batch = nullptr);

  /// True when `path` crosses a link that is currently down.
  [[nodiscard]] bool crosses_failed_link(const netsim::Path& path) const;

  /// The route from fabric node `fsrc` to `fdst` over `path`, carrying
  /// `segments`: ingress and expectation, written once for every
  /// compiler.
  [[nodiscard]] CompiledRoute make_route(std::size_t fsrc, std::size_t fdst,
                                         polka::SegmentedRoute segments,
                                         netsim::Path path) const;

  /// Plan and install `protection_k_` disjoint backups for the cached
  /// pairs `keys`, all from one source and ascending.  Each pair costs
  /// one disjoint search on search_, its primary's duplex links banned
  /// around it; then every backup path of the source compiles in one
  /// walk of cursor_ in lexicographic order, so backups that share a
  /// prefix share its folds.  Returns how many backups were installed.
  std::size_t protect_source(std::span<const RouteKey> keys);

  /// Evict every cached route crossing the two directed links; returns
  /// the affected pairs in sorted-key order.  Protected fabrics move
  /// each pair's pre-failure primary into saved_primary_ for
  /// revert-on-restore.
  std::vector<std::pair<netsim::NodeIndex, netsim::NodeIndex>>
  evict_crossing_routes(netsim::LinkIndex fwd, netsim::LinkIndex rev);

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
  BackupTable backups_;
  /// A displaced pair's original route.  Its protection set stays
  /// installed while the pair rides a backup; the first repair that
  /// replans the pair sets that set aside here, so it is the set of
  /// the first displacement, as the primary is.
  struct SavedRoute {
    CompiledRoute primary;
    std::optional<std::vector<BackupRoute>> backups;
  };
  /// Pre-failure primaries of pairs a failure displaced (or severed),
  /// keyed like routes_; restore_link reverts from here, reinstalling
  /// a set-aside protection set with its primary (no search).  The
  /// *original* primary is kept across repeated failures.  Invariant
  /// after every public call: each saved primary crosses at least one
  /// failed link, since restore_link reverts every primary the moment
  /// its last dead link revives.
  std::unordered_map<RouteKey, SavedRoute> saved_primary_;
  /// Per directed link (indexed by LinkIndex, sized at construction):
  /// the sorted keys of the saved primaries crossing it.  By the
  /// invariant above, a restore of a<->b can revive only the primaries
  /// listed under a->b or b->a, so it never scans saved_primary_.
  std::vector<std::vector<RouteKey>> saved_by_link_;
  /// Pairs whose protection set died, awaiting repair_pending().
  std::vector<std::pair<netsim::NodeIndex, netsim::NodeIndex>> pending_;
  std::unordered_map<netsim::NodeIndex, netsim::PathTree> trees_;
  std::unordered_map<RouteKey, CompiledRoute> routes_;
  /// Inverted index, per directed link (indexed by LinkIndex, sized at
  /// construction): the sorted keys of cached routes over it, so
  /// apply_failure names the crossing routes in O(affected) instead of
  /// scanning every cached path.  A single store_route inserts and
  /// removes by binary search; failure and restore events batch their
  /// edits into one merge per touched list; compile_all_pairs appends
  /// its whole merge and sorts each list once.
  std::vector<std::vector<RouteKey>> routes_by_link_;
  CompileStats stats_;
  obs::MetricRegistry* metrics_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace hp::scenario
