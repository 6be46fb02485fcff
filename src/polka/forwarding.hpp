#pragma once
// Stateless PolKA forwarding over an abstract switching fabric.
//
// A PolkaFabric owns the core nodes and their port wiring.  Packets carry
// only a routeID; each node computes its output port with a single mod
// and hands the packet to the neighbour on that port.  No per-node route
// tables exist.  forward() is the exact gf2::Poly reference walk; every
// batched data-plane path goes through compiled() (polka/fastpath.hpp).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "polka/label.hpp"
#include "polka/node_id.hpp"
#include "polka/route.hpp"

namespace hp::polka {

class CompiledFabric;

/// A switching fabric of PolKA core nodes.
class PolkaFabric {
 public:
  PolkaFabric() = default;
  ~PolkaFabric();  // out of line: compiled_ is incomplete here

  // Copies do not inherit the compiled_ cache (see CompiledCache): a
  // copy that carried the source's flattened view would keep serving
  // the source's wiring if any mutator forgot to invalidate it.  Each
  // copy recompiles lazily on first fast-path use instead.
  PolkaFabric(const PolkaFabric&) = default;
  PolkaFabric& operator=(const PolkaFabric&) = default;
  PolkaFabric(PolkaFabric&&) noexcept = default;
  PolkaFabric& operator=(PolkaFabric&&) noexcept = default;

  /// Add a core node with `port_count` output ports; returns its index.
  /// Node names must be unique (throws std::invalid_argument).
  std::size_t add_node(const std::string& name, unsigned port_count);

  /// Wire `port` of node `from` to node `to` (unidirectional at this
  /// layer; call twice for duplex).  Throws std::out_of_range on bad
  /// indices or ports.
  void connect(std::size_t from, unsigned port, std::size_t to);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const NodeId& node(std::size_t i) const {
    return nodes_.at(i);
  }
  [[nodiscard]] std::size_t index_of(const std::string& name) const;

  /// Build the routeID for an explicit node-index path; transit ports
  /// are derived from the wiring (consecutive path nodes must be
  /// connected).  `egress_port`, when given, adds a congruence for the
  /// *last* node so it deterministically emits the packet on that port
  /// (typically an unwired host-facing port); without it the last node's
  /// behaviour is unspecified, as in real PolKA where the edge strips
  /// the header.
  [[nodiscard]] RouteId route_for_path(
      const std::vector<std::size_t>& node_path,
      std::optional<unsigned> egress_port = std::nullopt) const;

  /// Result of pushing one packet through the fabric.
  struct Trace {
    std::vector<std::size_t> nodes;  ///< nodes visited, in order
    std::vector<unsigned> ports;     ///< port taken at each visited node
    std::size_t mod_operations = 0;  ///< data-plane work performed
    /// The hop limit cut the walk short -- the packet never egressed.
    bool ttl_expired = false;
  };

  /// Forward a packet carrying `route` starting at node `first`, for at
  /// most `max_hops` hops (guards against misconfigured loops).  Each
  /// hop is output_port(route, node): exact polynomial division, any
  /// routeID width.  The trace ends when a node's computed port is
  /// unwired (egress) or the hop limit is reached (then ttl_expired is
  /// set).
  [[nodiscard]] Trace forward(const RouteId& route, std::size_t first,
                              std::size_t max_hops = 64) const;

  /// Cut an explicit node-index path into a multi-segment route whose
  /// every label fits 64 bits: transit congruences accumulate into one
  /// segment while the CRT modulus stays within 64 coefficient bits;
  /// when the next node would push it past, the segment is closed and
  /// that node becomes a re-label waypoint.  The final segment carries
  /// the egress congruence at the last node (cut there too when it does
  /// not fit, leaving a final label of the bare egress-port bits).
  /// Consecutive nodes must be wired (throws std::invalid_argument);
  /// the egress port polynomial must fit the last node's degree (throws
  /// std::domain_error, mirroring compute_route_id).  A path whose full
  /// routeID already fits returns exactly one label, bit-identical to
  /// pack_label(route_for_path(...)).
  [[nodiscard]] SegmentedRoute segmented_route_for_path(
      const std::vector<std::size_t>& node_path, unsigned egress_port) const;

  /// The port `from` uses to reach `to`, if wired.
  [[nodiscard]] std::optional<unsigned> port_between(std::size_t from,
                                                     std::size_t to) const;

  /// The neighbour wired to `port` of `node`, if any.
  [[nodiscard]] std::optional<std::size_t> neighbour(std::size_t node,
                                                     unsigned port) const;

  // --- batched uint64 fast path ---------------------------------------

  /// The flattened data-plane view of this fabric, compiled on first use
  /// and cached until the topology next changes (add_node / connect).
  [[nodiscard]] const CompiledFabric& compiled() const;

 private:
  NodeIdAllocator allocator_;
  std::vector<NodeId> nodes_;
  std::unordered_map<std::string, std::size_t> by_name_;
  // wiring_[node][port] = neighbour index (or npos when unwired).
  std::vector<std::vector<std::size_t>> wiring_;

  /// Cache holder whose copies start empty, so the fabric's defaulted
  /// copy operations never carry a (potentially soon-stale) compiled
  /// view -- and adding fabric members later cannot reintroduce the
  /// hazard by missing a hand-written copy constructor.
  struct CompiledCache {
    CompiledCache() = default;
    CompiledCache(const CompiledCache&) noexcept {}
    CompiledCache& operator=(const CompiledCache&) noexcept {
      ptr.reset();
      return *this;
    }
    CompiledCache(CompiledCache&&) noexcept = default;
    CompiledCache& operator=(CompiledCache&&) noexcept = default;

    std::shared_ptr<const CompiledFabric> ptr;
  };
  /// Lazily-built flattened view.  Reset by add_node / connect.
  mutable CompiledCache compiled_;

  static constexpr std::size_t kUnwired = static_cast<std::size_t>(-1);
};

}  // namespace hp::polka
