#pragma once
// Protection routes for hitless failover: the route records and the
// rules that pick and admit backups.
//
// The paper pitches PolKA source routing as failure-resilient, and the
// fabric's incremental recompiler (fabric_builder.hpp) already repairs
// routes in O(affected) -- but a recompile is still path search + CRT
// work *inside* the packet-loss window.  The protection layer moves
// that work to compile time: for every primary route, BuiltFabric
// plans up to k mutually link-disjoint alternates (a disjoint-path
// search with the primary's links banned, one source at a time),
// compiles each into segmented labels once, and keeps them, ranked, in
// the pair's record beside the primary.  A failure then serves the
// first backup that avoids every dead link -- a rank scan and a
// serving flip, no path computation and no copy.  Only pairs whose
// entire protection set is dead fall back to the lazy recompiler.
//
// The two rules here are pure functions over one pair's ranked set:
// first_live_backup() is the rank rule every swap follows, and
// check_installable() is the admission check every installed set
// passes.  BuiltFabric owns the records, the paths and the labels.
// CompiledRoute, the one record of a compiled route, lives here
// because a backup is one.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
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
/// serve the pair the moment a failure demands it.
struct BackupRoute : CompiledRoute {
  /// Backup hops over primary hops at protection time: the path
  /// stretch a swap pays (1.0 = equal length).
  double stretch = 1.0;
};

/// The rank rule: the rank (index into `backups`, best first) of the
/// first backup whose path avoids every link marked in `link_down`
/// (indexed by directed LinkIndex).  nullopt when the set is empty or
/// wholly dead -- the caller then falls back to a lazy recompile.
[[nodiscard]] std::optional<std::size_t> first_live_backup(
    std::span<const BackupRoute> backups, const std::vector<char>& link_down);

/// The admission check of a protection set: a swap serves a backup as
/// is, so one without labels (an unroutable "backup" that would only
/// surface as lost packets later) or without a link path (which no
/// failure could ever name) throws core::ContractViolation here, at
/// install time.
void check_installable(std::span<const BackupRoute> backups);

}  // namespace hp::scenario
