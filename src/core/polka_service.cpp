#include "core/polka_service.hpp"

#include <sstream>
#include <stdexcept>

namespace hp::core {

using hp::netsim::LinkIndex;
using hp::netsim::NodeIndex;
using hp::netsim::NodeKind;

PolkaService::PolkaService(const hp::netsim::Topology& topo,
                           hp::freertr::RouterConfigService& edge)
    : topo_(&topo), edge_(&edge) {
  // Mirror the router subgraph into the PolKA fabric.  Fabric port p of
  // a router corresponds to topo.outgoing(router)[p]; ports toward
  // hosts stay unwired in the fabric (they are egress ports).
  for (NodeIndex n = 0; n < topo.node_count(); ++n) {
    if (topo.node(n).kind != NodeKind::kRouter) continue;
    const unsigned ports =
        static_cast<unsigned>(topo.outgoing(n).size());
    fabric_.add_node(topo.node(n).name, std::max(ports, 1U));
  }
  for (NodeIndex n = 0; n < topo.node_count(); ++n) {
    if (topo.node(n).kind != NodeKind::kRouter) continue;
    const std::size_t from = fabric_.index_of(topo.node(n).name);
    const auto& out = topo.outgoing(n);
    for (unsigned p = 0; p < out.size(); ++p) {
      const NodeIndex neighbour = topo.link(out[p]).to;
      if (topo.node(neighbour).kind == NodeKind::kRouter) {
        fabric_.connect(from, p, fabric_.index_of(topo.node(neighbour).name));
      }
    }
  }
}

void PolkaService::push_config(const std::string& commands) {
  edge_->queue().push(
      hp::freertr::ConfigMessage{next_message_id_++, commands});
  edge_->process_pending();
  const auto& acks = edge_->acks();
  if (!acks.empty() && !acks.back().ok) {
    throw std::invalid_argument("PolkaService: edge rejected config: " +
                                acks.back().error);
  }
}

const Tunnel& PolkaService::define_tunnel(
    unsigned id, const std::vector<std::string>& routers,
    const std::string& egress_host, const std::string& destination_ip) {
  if (routers.size() < 2) {
    throw std::invalid_argument("define_tunnel: need >= 2 routers");
  }
  Tunnel tunnel;
  tunnel.id = id;
  tunnel.routers = routers;
  tunnel.name = "tunnel" + std::to_string(id);
  tunnel.netsim_path = topo_->path_through(routers);

  // Egress port: the last router's topology port toward the host.
  const NodeIndex last = topo_->index_of(routers.back());
  const NodeIndex host = topo_->index_of(egress_host);
  const auto& out = topo_->outgoing(last);
  std::optional<unsigned> egress_port;
  for (unsigned p = 0; p < out.size(); ++p) {
    if (topo_->link(out[p]).to == host) {
      egress_port = p;
      break;
    }
  }
  if (!egress_port) {
    throw std::invalid_argument("define_tunnel: " + routers.back() +
                                " has no link to host " + egress_host);
  }

  std::vector<std::size_t> fabric_path;
  fabric_path.reserve(routers.size());
  for (const std::string& name : routers) {
    fabric_path.push_back(fabric_.index_of(name));
  }
  tunnel.route_id = fabric_.route_for_path(fabric_path, egress_port);

  // Push the freeRtr tunnel definition to the edge.
  std::ostringstream cfg;
  cfg << "interface tunnel" << id << '\n';
  cfg << " tunnel destination " << destination_ip << '\n';
  cfg << " tunnel domain-name";
  for (const std::string& name : routers) cfg << ' ' << name;
  cfg << '\n';
  cfg << " tunnel mode polka\n";
  cfg << "exit\n";
  push_config(cfg.str());

  tunnel_egress_host_[id] = egress_host;
  auto [it, _] = tunnels_.insert_or_assign(id, std::move(tunnel));
  return it->second;
}

void PolkaService::install_access_list(const hp::freertr::AccessList& acl) {
  std::ostringstream cfg;
  cfg << "access-list " << acl.name << " permit " << acl.protocol << ' '
      << acl.source.to_string() << ' ' << acl.destination.to_string();
  if (acl.tos) cfg << " tos " << *acl.tos;
  cfg << '\n';
  push_config(cfg.str());
}

std::uint64_t PolkaService::bind_flow(const std::string& acl_name,
                                      unsigned tunnel_id,
                                      const std::string& nexthop_ip) {
  if (!tunnels_.contains(tunnel_id)) {
    throw std::invalid_argument("bind_flow: unknown tunnel " +
                                std::to_string(tunnel_id));
  }
  std::ostringstream cfg;
  cfg << "pbr " << acl_name << " tunnel " << tunnel_id << " nexthop "
      << nexthop_ip << '\n';
  push_config(cfg.str());
  return edge_->config().revision();
}

const Tunnel& PolkaService::tunnel(unsigned id) const {
  const auto it = tunnels_.find(id);
  if (it == tunnels_.end()) {
    throw std::out_of_range("PolkaService: unknown tunnel " +
                            std::to_string(id));
  }
  return it->second;
}

hp::netsim::Path PolkaService::host_to_host_path(
    unsigned tunnel_id, const std::string& src_host,
    const std::string& dst_host) const {
  const Tunnel& t = tunnel(tunnel_id);
  const NodeIndex src = topo_->index_of(src_host);
  const NodeIndex ingress = topo_->index_of(t.routers.front());
  const NodeIndex egress = topo_->index_of(t.routers.back());
  const NodeIndex dst = topo_->index_of(dst_host);
  const auto in_link = topo_->link_between(src, ingress);
  const auto out_link = topo_->link_between(egress, dst);
  if (!in_link || !out_link) {
    throw std::invalid_argument("host_to_host_path: hosts not attached");
  }
  hp::netsim::Path path;
  path.push_back(*in_link);
  path.insert(path.end(), t.netsim_path.begin(), t.netsim_path.end());
  path.push_back(*out_link);
  return path;
}

std::size_t PolkaService::verify_tunnel(unsigned id) const {
  const Tunnel& t = tunnel(id);
  const std::size_t first = fabric_.index_of(t.routers.front());
  const auto trace = fabric_.forward(t.route_id, first);
  if (trace.nodes.size() != t.routers.size()) {
    throw std::logic_error("verify_tunnel: trace length mismatch for " +
                           t.name);
  }
  for (std::size_t i = 0; i < t.routers.size(); ++i) {
    if (fabric_.node(trace.nodes[i]).name != t.routers[i]) {
      throw std::logic_error("verify_tunnel: trace diverges at hop " +
                             std::to_string(i) + " for " + t.name);
    }
  }
  return trace.mod_operations;
}

}  // namespace hp::core
