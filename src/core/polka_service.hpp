#pragma once
// PolKA Service: the source-routing side of the framework.
//
// Owns the PolKA fabric mirror of the router topology, computes routeIDs
// for explicit tunnels (the freeRtr "tunnel domain-name" conversion the
// paper describes), and programs the ingress edge router through the
// message-queue reconfiguration service.  Flow steering is always a
// single PBR rewrite at the edge -- the property Figs 11/12 demonstrate.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "freertr/router_service.hpp"
#include "netsim/topology.hpp"
#include "polka/forwarding.hpp"

namespace hp::core {

/// A configured PolKA tunnel.
struct Tunnel {
  unsigned id = 0;
  std::vector<std::string> routers;  ///< explicit path, ingress first
  hp::netsim::Path netsim_path;      ///< router-to-router directed links
  hp::polka::RouteId route_id;       ///< CRT-encoded label
  std::string name;                  ///< e.g. "tunnel1"
};

class PolkaService {
 public:
  /// Builds the PolKA fabric from the router subgraph of `topo` and
  /// attaches to the ingress edge's reconfiguration service.
  PolkaService(const hp::netsim::Topology& topo,
               hp::freertr::RouterConfigService& edge);

  /// Define a tunnel along `routers` (>= 2 names, consecutive ones must
  /// be linked in the topology).  Computes the routeID and pushes the
  /// interface/tunnel configuration to the edge router.  The tunnel's
  /// egress port points at `egress_host`.
  const Tunnel& define_tunnel(unsigned id,
                              const std::vector<std::string>& routers,
                              const std::string& egress_host,
                              const std::string& destination_ip);

  /// Install a flow-classification ACL on the edge.
  void install_access_list(const hp::freertr::AccessList& acl);

  /// Bind (or re-bind) an ACL to a tunnel -- the one-line PBR migration.
  /// Returns the edge config revision after the change.
  std::uint64_t bind_flow(const std::string& acl_name, unsigned tunnel_id,
                          const std::string& nexthop_ip);

  [[nodiscard]] const Tunnel& tunnel(unsigned id) const;
  [[nodiscard]] bool has_tunnel(unsigned id) const {
    return tunnels_.contains(id);
  }
  [[nodiscard]] const std::map<unsigned, Tunnel>& tunnels() const noexcept {
    return tunnels_;
  }

  /// Full netsim path for traffic from `src_host` through a tunnel to
  /// `dst_host` (host access links prepended/appended).
  [[nodiscard]] hp::netsim::Path host_to_host_path(
      unsigned tunnel_id, const std::string& src_host,
      const std::string& dst_host) const;

  /// Verify in the fabric that the routeID actually traverses the
  /// tunnel's routers (a data-plane self-check; throws std::logic_error
  /// on mismatch).  Returns the number of mod operations performed.
  std::size_t verify_tunnel(unsigned id) const;

  [[nodiscard]] const hp::polka::PolkaFabric& fabric() const noexcept {
    return fabric_;
  }

 private:
  const hp::netsim::Topology* topo_;
  hp::freertr::RouterConfigService* edge_;
  hp::polka::PolkaFabric fabric_;
  std::map<unsigned, Tunnel> tunnels_;
  std::map<unsigned, std::string> tunnel_egress_host_;
  std::uint64_t next_message_id_ = 1;

  void push_config(const std::string& commands);
};

}  // namespace hp::core
