#pragma once
// BackupTable: pre-installed protection routes for hitless failover.
//
// The paper pitches PolKA source routing as failure-resilient, and the
// fabric's incremental recompiler (fabric_builder.hpp) already repairs
// routes in O(affected) -- but a recompile is still path search + CRT work
// *inside* the packet-loss window.  The protection layer moves that
// work to compile time: for every primary route, BuiltFabric plans up
// to k mutually link-disjoint alternates (netsim::k_disjoint_paths
// seeded with the primary's links banned), compiles each into segmented
// labels once, and parks them here.  A failure then swaps the pair's
// primary for the first backup that avoids every dead link -- an O(1)
// table lookup plus a label copy, no path computation at all.  Only
// pairs whose entire protection set is dead fall back to the lazy
// recompiler.
//
// The table is pure bookkeeping: it never computes paths or labels
// itself (BuiltFabric owns both), which keeps it trivially reusable by
// the replay runner and the timed simulator alike.

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "netsim/topology.hpp"
#include "polka/label.hpp"

namespace hp::scenario {

/// One pre-installed backup: a fully compiled alternate route, ready to
/// serve as the pair's primary the moment a failure demands it.
struct BackupRoute {
  polka::SegmentedRoute segments;  ///< fast-path wire form, always set
  polka::PacketResult expected;    ///< egress node/port/hops on the backup
  netsim::Path path;               ///< topology links traversed
  std::uint32_t ingress = 0;       ///< fabric index of the source
  /// Backup hops over primary hops at protection time: the path
  /// stretch a swap pays (1.0 = equal length).
  double stretch = 1.0;
};

/// Per-pair protection state plus the selection logic.  Pair keys are
/// netsim::node_pair_key(src, dst) over topology indices, matching the
/// fabric's route-cache keys.
class BackupTable {
 public:
  using PairKey = std::uint64_t;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Install (or replace) a pair's protection set, best backup first.
  /// An empty set erases the pair.
  void install(PairKey pair, std::vector<BackupRoute> backups);

  void clear();

  [[nodiscard]] std::size_t pair_count() const noexcept {
    return pairs_.size();
  }
  [[nodiscard]] std::size_t backup_count() const noexcept {
    return backup_count_;
  }
  [[nodiscard]] bool protects(PairKey pair) const {
    return pairs_.contains(pair);
  }
  /// The pair's protection set (nullptr when unprotected).
  [[nodiscard]] const std::vector<BackupRoute>* backups_for(
      PairKey pair) const;

  /// Select the pair's best live backup: the first (best-ranked) backup
  /// whose path avoids every link marked in `link_down` (indexed by
  /// directed LinkIndex).  Marks it active and returns it; nullptr when
  /// the pair is unprotected or its whole protection set is dead --
  /// the caller then falls back to a lazy recompile.
  const BackupRoute* activate(PairKey pair,
                              const std::vector<char>& link_down);

  /// The pair's primary is back in service: its active backup returns
  /// to standby.
  void release(PairKey pair);

  /// Index of the backup currently serving as the pair's primary
  /// (kNone when the pair rides its real primary).
  [[nodiscard]] std::size_t active_index(PairKey pair) const;

 private:
  struct PairProtection {
    std::vector<BackupRoute> backups;
    std::size_t active = kNone;
  };
  std::unordered_map<PairKey, PairProtection> pairs_;
  std::size_t backup_count_ = 0;
};

}  // namespace hp::scenario
