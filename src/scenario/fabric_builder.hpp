#pragma once
// FabricBuilder: turn any netsim::Topology into a wired PolkaFabric
// with compiled per-pair routes.
//
// The router subgraph of the topology becomes the PolKA core: each
// router gets one fabric port per distinct router neighbour plus one
// extra, deliberately unwired, egress port (the host-facing side on
// which a packet leaves the fabric).  Routes between router pairs are
// shortest paths (hop count) computed from cached single-source
// Dijkstra trees and CRT-encoded into routeIDs.
//
// Two compilation strategies coexist:
//  - route() compiles one pair per call, folding one congruence per hop
//    (the per-path baseline: O(depth) CRT steps per route);
//  - compile_all_pairs() / compile_subtree() walk a source's tree once
//    with a CrtAccumulator carried down the DFS.  Every tree edge v->c
//    serves all destinations in c's subtree with the same port
//    congruence at v, so descending adds exactly one CRT step and each
//    destination needs only its final egress congruence: O(n) steps for
//    a whole source instead of O(n * depth).
//
// Both strategies cut multi-segment routes at the same boundary: while
// descending (or walking a path), the moment the accumulated CRT
// modulus would pass 64 coefficient bits the current segment is closed
// into one <= 64-bit label, the node becomes a re-label waypoint, and a
// fresh accumulator starts -- so deep ring/torus paths never leave the
// uint64 fast path and the compiler never materializes a wide Poly.
//
// Scheduled link failures remove links from path computation; a
// link -> route-keys inverted index names the crossing routes in
// O(affected), only the Dijkstra trees that used the dead link are
// rebuilt, and the severed destinations are recompiled subtree-scoped.

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
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

/// A compiled router-to-router route through the fabric.
///
/// Every route is carried by `segments`, whose labels each fit 64 bits
/// (one label when the whole path's CRT modulus stays within 64
/// coefficient bits, more with re-label waypoints otherwise), so every
/// compiled route replays on the uint64 fast path.  `id` and `label`
/// are the single-label forms: populated exactly when
/// segments.single_label(), zero/nullopt for multi-segment routes (the
/// full-path polynomial is never materialized for those).
struct CompiledRoute {
  polka::RouteId id;                        ///< CRT routeID (single-label only)
  std::optional<polka::RouteLabel> label;   ///< 64-bit form, when it fits
  polka::SegmentedRoute segments;           ///< fast-path wire form, always set
  std::uint32_t ingress = 0;                ///< fabric index of the source
  polka::PacketResult expected;             ///< egress node/port and hop count
  netsim::Path path;                        ///< topology links traversed
};

/// Counters behind the route compiler, exposed so tests and benches can
/// assert *how much* work a call performed (e.g. that fail_link
/// recompiled only the routes crossing the dead link).
struct CompileStats {
  std::size_t routes_compiled = 0;  ///< CompiledRoute entries written
  std::size_t trees_built = 0;      ///< single-source Dijkstra runs
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
///                moves pending pairs here when Dijkstra agrees).
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
  explicit BuiltFabric(netsim::Topology topo,
                       polka::ModEngine engine = polka::ModEngine::kTable);

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
  /// returned pointer stays valid until the route is invalidated by
  /// fail_link.  Not thread-safe: compile every route before sharding
  /// a replay across threads.
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
  /// of routes written.  This is the primitive fail_link repairs with.
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
  [[nodiscard]] const BackupTable& backup_table() const noexcept {
    return backups_;
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
  /// subtree-scoped, exactly as fail_link always did.  Pairs the
  /// failure disconnected land in `unroutable` and report unreachable
  /// from route().
  FailoverReport apply_failure(netsim::NodeIndex a, netsim::NodeIndex b);

  /// Bring the duplex link a<->b back.  Dirty shortest-path trees are
  /// flushed (rebuilt lazily); with protection armed, every pair whose
  /// saved primary is fully alive again reverts to it -- a hitless
  /// swap back, listed in `swapped` -- including pairs a failure had
  /// severed entirely (their routes revive without a recompile).
  /// Restoring a link that is not failed is a no-op (duplicate set).
  FailoverReport restore_link(netsim::NodeIndex a, netsim::NodeIndex b);

  /// Lazily recompile the pairs apply_failure parked in `pending`
  /// (their protection set was dead).  Pairs that recompile land in
  /// `repaired` and get a fresh protection set planned against the
  /// degraded topology; pairs with no path left land in `unroutable`.
  FailoverReport repair_pending();

  [[nodiscard]] std::size_t pending_repair_count() const noexcept {
    return pending_.size();
  }

  /// Legacy eager entry point, kept for callers that want the
  /// "everything handled before return" contract: apply_failure plus
  /// an immediate repair_pending.  Returns every affected (src, dst)
  /// pair, as before.
  std::vector<std::pair<netsim::NodeIndex, netsim::NodeIndex>> fail_link(
      netsim::NodeIndex a, netsim::NodeIndex b);

  /// Directed links currently excluded from path computation.
  [[nodiscard]] const std::vector<netsim::LinkIndex>& failed_links()
      const noexcept {
    return banned_links_;
  }

  /// Attach observability taps (borrowed, both optional; nullptr
  /// detaches).  With metrics set, every compile entry point (route,
  /// compile_all_pairs, compile_subtree, fail_link) adds its
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

  /// DFS down `tree` carrying a CrtAccumulator, emitting one route per
  /// visited router destination.  `descend`, when given, prunes the
  /// walk to marked nodes; `emit`, when given, selects which visited
  /// nodes produce a route.  Thread-safe (touches no mutable state).
  void compile_tree_routes(const netsim::PathTree& tree,
                           const std::vector<char>* descend,
                           const std::vector<char>* emit,
                           std::vector<KeyedRoute>& out,
                           std::size_t& crt_steps) const;

  /// Insert or overwrite one cache entry, keeping the link index true;
  /// returns the stored entry.  Hitless backup swaps pass
  /// count_compile = false: installing a pre-compiled label is not a
  /// route compilation.
  CompiledRoute& store_route(RouteKey key, CompiledRoute&& route,
                             bool count_compile = true);
  void unindex_route(RouteKey key, const netsim::Path& path);

  /// Compile one explicit path into a route (segments, expectation,
  /// ingress) without touching the cache or stats; `crt_steps` gets
  /// the fold count.  Shared by route() and the backup planner.
  [[nodiscard]] CompiledRoute compile_path_route(const netsim::Path& path,
                                                 std::size_t& crt_steps) const;

  /// Plan and install `protection_k_` disjoint backups for one pair
  /// against its primary; returns how many were installed.
  std::size_t protect_pair(RouteKey key, const CompiledRoute& primary);

  /// Evict every cached route crossing the two directed links; returns
  /// the affected pairs in sorted-key order.  Protected fabrics save
  /// each pair's pre-failure primary for revert-on-restore.
  std::vector<std::pair<netsim::NodeIndex, netsim::NodeIndex>>
  evict_crossing_routes(netsim::LinkIndex fwd, netsim::LinkIndex rev);

  /// Record one compile phase's stats deltas and wall clock into the
  /// attached registry (no-op when detached).
  void note_compile(const char* phase, const CompileStats& before,
                    std::chrono::steady_clock::time_point start) const;

  netsim::Topology topo_;
  polka::PolkaFabric fabric_;
  std::vector<std::size_t> topo_to_fabric_;  // kInvalidIndex for hosts
  std::vector<netsim::NodeIndex> fabric_to_topo_;
  /// Per fabric node: the nodeID's coefficient words when its degree
  /// fits 64 bits (the common case), else 0 -- lets the compiler fold
  /// congruences through the word-form CRT API without building Polys.
  std::vector<std::uint64_t> node_bits_;
  /// Per fabric node: deg(nodeID), driving the segment-cut rule (a
  /// segment closes when its accumulated modulus degree would pass 64).
  std::vector<int> node_degree_;
  std::vector<netsim::LinkIndex> banned_links_;
  /// Per directed link: 1 while failed.  The O(1) form of
  /// banned_links_, sized at construction, consulted by backup
  /// selection and restore reverts.
  std::vector<char> link_down_;
  unsigned protection_k_ = 0;
  BackupTable backups_;
  /// Pre-failure primaries of pairs a failure displaced (or severed),
  /// keyed like routes_; restore_link reverts from here.  The
  /// *original* primary is kept across repeated failures.
  std::unordered_map<RouteKey, CompiledRoute> saved_primary_;
  /// Pairs whose protection set died, awaiting repair_pending().
  std::vector<std::pair<netsim::NodeIndex, netsim::NodeIndex>> pending_;
  std::unordered_map<netsim::NodeIndex, netsim::PathTree> trees_;
  std::unordered_map<RouteKey, CompiledRoute> routes_;
  /// Inverted index: directed link -> keys of cached routes over it,
  /// so fail_link names the crossing routes in O(affected) instead of
  /// scanning every cached path.  Vector-backed: appends are the hot
  /// path (every compiled hop), removals happen only on recompiles and
  /// failures and swap-erase a linear scan.
  std::unordered_map<netsim::LinkIndex, std::vector<RouteKey>>
      routes_by_link_;
  CompileStats stats_;
  obs::MetricRegistry* metrics_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace hp::scenario
