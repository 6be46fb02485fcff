#pragma once
// BackupTable: pre-installed protection routes for hitless failover.
//
// The paper pitches PolKA source routing as failure-resilient, and the
// fabric's incremental recompiler (fabric_builder.hpp) already repairs
// routes in O(affected) -- but a recompile is still path search + CRT work
// *inside* the packet-loss window.  The protection layer moves that
// work to compile time: for every primary route, BuiltFabric plans up
// to k mutually link-disjoint alternates (a disjoint-path search with
// the primary's links banned, one source at a time), compiles each into
// segmented labels once, and parks them here.  A failure then swaps the pair's
// primary for the first backup that avoids every dead link -- an O(1)
// table lookup plus a label copy, no path computation at all.  Only
// pairs whose entire protection set is dead fall back to the lazy
// recompiler.
//
// The table is pure bookkeeping: it never computes paths or labels
// itself (BuiltFabric owns both), which keeps it trivially reusable by
// the replay runner and the timed simulator alike.  CompiledRoute, the
// one record of a compiled route, lives here because a backup is one.

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "netsim/topology.hpp"
#include "polka/label.hpp"

namespace hp::scenario {

/// A compiled router-to-router route through the fabric.  `segments` is
/// its only wire form: each label fits 64 bits (one label when the
/// whole path's CRT modulus stays within 64 coefficient bits, more with
/// re-label waypoints otherwise), so every compiled route replays on
/// the uint64 fast path.
struct CompiledRoute {
  polka::SegmentedRoute segments;  ///< fast-path wire form, always set
  std::uint32_t ingress = 0;       ///< fabric index of the source
  polka::PacketResult expected;    ///< egress node/port and hop count
  netsim::Path path;               ///< topology links traversed
};

/// One pre-installed backup: a fully compiled alternate route, ready to
/// serve as the pair's primary the moment a failure demands it (a swap
/// installs its CompiledRoute part as is).
struct BackupRoute : CompiledRoute {
  /// Backup hops over primary hops at protection time: the path
  /// stretch a swap pays (1.0 = equal length).
  double stretch = 1.0;
};

/// Per-pair protection sets plus the selection logic.  Pair keys are
/// netsim::node_pair_key(src, dst) over topology indices, matching the
/// fabric's route-cache keys.
class BackupTable {
 public:
  using PairKey = std::uint64_t;

  /// Install (or replace) a pair's protection set, best backup first.
  /// An empty set erases the pair.
  void install(PairKey pair, std::vector<BackupRoute> backups);

  /// Remove a pair's protection set and return it (empty when the pair
  /// is unprotected).
  [[nodiscard]] std::vector<BackupRoute> take(PairKey pair);

  void clear();

  [[nodiscard]] std::size_t pair_count() const noexcept {
    return pairs_.size();
  }
  [[nodiscard]] bool protects(PairKey pair) const {
    return pairs_.contains(pair);
  }

  /// The pair's best live backup: the first (best-ranked) backup whose
  /// path avoids every link marked in `link_down` (indexed by directed
  /// LinkIndex).  nullptr when the pair is unprotected or its whole
  /// protection set is dead -- the caller then falls back to a lazy
  /// recompile.
  [[nodiscard]] const BackupRoute* live_backup(
      PairKey pair, const std::vector<char>& link_down) const;

 private:
  std::unordered_map<PairKey, std::vector<BackupRoute>> pairs_;
};

}  // namespace hp::scenario
