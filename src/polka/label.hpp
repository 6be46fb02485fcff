#pragma once
// Packed 64-bit route labels: the wire form of a routeID.
//
// A RouteId is a gf2::Poly of arbitrary degree, which is the right shape
// for the control plane but allocates and chases pointers.  Real PolKA
// headers carry a fixed-width label; RouteLabel is that form -- the
// coefficient bits of a routeID packed into one uint64.  The packing is
// exact whenever the CRT degree bound (sum of nodeID degrees along the
// path) stays below 64; longer routes are cut into segments that each
// fit (SegmentedRoute, built by SegmentBuilder).  Labels are trivially
// copyable so batches live in flat contiguous arrays.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/contracts.hpp"
#include "gf2/crt.hpp"
#include "polka/route.hpp"

namespace hp::polka {

/// A routeID packed into 64 coefficient bits (bit i => t^i).
struct RouteLabel {
  std::uint64_t bits = 0;

  friend bool operator==(RouteLabel, RouteLabel) noexcept = default;
};

// The wire form: exactly the packed coefficient word, nothing else.
// Batches alias RouteLabel arrays as uint64 streams; any growth here
// breaks that layout silently, so pin it.
HP_ASSERT_HOT_POD(RouteLabel, 8);

/// A route too long for one 64-bit label, cut into segments that each
/// do fit: labels[0] is active from the ingress, and when the packet
/// arrives at fabric node waypoints[i] it swaps in labels[i + 1]
/// *before* that node computes its port (the waypoint re-labels, every
/// other node stays oblivious).  Invariant: waypoints.size() ==
/// labels.size() - 1; a single-label route has no waypoints.  This is
/// the wire form PolKA segment routing carries -- each segment stays on
/// the uint64 fold fast path regardless of total path length.
struct SegmentedRoute {
  std::vector<RouteLabel> labels;
  std::vector<std::uint32_t> waypoints;

  [[nodiscard]] bool single_label() const noexcept {
    return labels.size() == 1;
  }

  friend bool operator==(const SegmentedRoute&, const SegmentedRoute&) =
      default;
};

/// The one implementation of the 64-bit segment cut, shared by the
/// per-path compiler (PolkaFabric::segmented_route_for_path) and
/// BuiltFabric's route compiler.  Feed a path's transit hops in order,
/// then finish at the destination.  Copies are cheap (one CRT
/// accumulator plus the closed segments), so the route compiler keeps
/// one builder per link of its current path, copy-assigned into reused
/// slots, and finishes one per destination.
class SegmentBuilder {
 public:
  /// Fold "leave `node` through `port`" into the open segment: exactly
  /// one CRT fold.  When the nodeID (coefficient word `id_bits`, degree
  /// `degree`) would push the segment's modulus past 64 bits, the
  /// segment is closed first and `node` becomes a re-label waypoint.
  /// Throws core::ContractViolation unless 1 <= degree <= 63.
  void transit(std::uint32_t node, std::uint64_t id_bits, int degree,
               unsigned port);

  /// The finished route: the open segment plus the egress congruence
  /// at `node`, cut there too when it does not fit (the destination
  /// then re-labels to the bare egress-port bits).  Adds to `folds` the
  /// CRT folds this made: 1 when the egress congruence joins a segment,
  /// 0 when it re-labels.  The builder is unchanged.  Throws
  /// std::domain_error when `egress_port` does not fit `degree`.
  [[nodiscard]] SegmentedRoute finish(std::uint32_t node,
                                      std::uint64_t id_bits, int degree,
                                      unsigned egress_port,
                                      std::size_t& folds) const;

 private:
  gf2::CrtAccumulator acc_;  ///< the open segment's congruences
  int degree_ = 0;           ///< its modulus degree (0 = empty)
  SegmentedRoute closed_;    ///< segments closed so far
};

/// One route's slice of pooled segment arrays (the flat storage batch
/// replay consumes): labels [first_label, first_label + label_count),
/// waypoints [first_waypoint, first_waypoint + label_count - 1).  A
/// default-constructed ref (label_count == 1) means "single-label,
/// nothing pooled".
struct SegmentRef {
  std::uint32_t first_label = 0;
  std::uint32_t first_waypoint = 0;
  std::uint32_t label_count = 1;
};

// Three pool offsets, no padding: a ref rides in every lane record and
// in every batch-replay and simulated packet.
HP_ASSERT_HOT_POD(SegmentRef, 12);

/// Outcome of one packet's walk through the fast path.  Mirrors the tail
/// of PolkaFabric::Trace without recording intermediate hops, so batch
/// results stay fixed-size and allocation-free.
struct PacketResult {
  std::uint32_t egress_node = 0;  ///< last node visited
  std::uint32_t egress_port = 0;  ///< port computed at that node
  std::uint32_t hops = 0;         ///< nodes visited == mod operations
  /// The walk exhausted max_hops with the packet still in flight; the
  /// egress fields are where it was killed, not a delivery.
  bool ttl_expired = false;

  friend bool operator==(const PacketResult&, const PacketResult&) noexcept =
      default;
};

// Batch result arrays are preallocated and rewritten wholesale; the
// record must stay fixed-size (16 bytes: 3 words + flag + padding).
HP_ASSERT_HOT_POD(PacketResult, 16);

/// Pack a routeID into its wire form; nullopt when it does not fit
/// (degree >= 64) and the polynomial slow path must be used.
[[nodiscard]] std::optional<RouteLabel> pack_label(const RouteId& route);

/// Pack a routeID that is known to fit; throws std::domain_error when it
/// does not.
[[nodiscard]] RouteLabel pack_label_checked(const RouteId& route);

/// Expand a wire label back into a routeID (exact inverse of packing).
[[nodiscard]] RouteId unpack_label(RouteLabel label);

}  // namespace hp::polka
