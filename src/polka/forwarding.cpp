#include "polka/forwarding.hpp"

#include <stdexcept>

#include "polka/fastpath.hpp"

namespace hp::polka {

PolkaFabric::~PolkaFabric() = default;

std::size_t PolkaFabric::add_node(const std::string& name,
                                  unsigned port_count) {
  if (by_name_.contains(name)) {
    throw std::invalid_argument("PolkaFabric: duplicate node name " + name);
  }
  const std::size_t idx = nodes_.size();
  nodes_.push_back(allocator_.allocate(name, port_count));
  wiring_.emplace_back(port_count, kUnwired);
  by_name_.emplace(name, idx);
  compiled_.ptr.reset();
  return idx;
}

void PolkaFabric::connect(std::size_t from, unsigned port, std::size_t to) {
  if (from >= nodes_.size() || to >= nodes_.size()) {
    throw std::out_of_range("PolkaFabric::connect: bad node index");
  }
  auto& ports = wiring_.at(from);
  if (port >= ports.size()) {
    throw std::out_of_range("PolkaFabric::connect: bad port");
  }
  ports[port] = to;
  compiled_.ptr.reset();
}

std::size_t PolkaFabric::index_of(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw std::out_of_range("PolkaFabric: unknown node " + name);
  }
  return it->second;
}

RouteId PolkaFabric::route_for_path(
    const std::vector<std::size_t>& node_path,
    std::optional<unsigned> egress_port) const {
  if (node_path.empty()) {
    throw std::invalid_argument("route_for_path: empty path");
  }
  std::vector<Hop> hops;
  hops.reserve(node_path.size());
  for (std::size_t i = 0; i + 1 < node_path.size(); ++i) {
    const auto port = port_between(node_path[i], node_path[i + 1]);
    if (!port) {
      throw std::invalid_argument("route_for_path: consecutive nodes " +
                                  nodes_.at(node_path[i]).name + " -> " +
                                  nodes_.at(node_path[i + 1]).name +
                                  " are not wired");
    }
    hops.push_back(Hop{nodes_.at(node_path[i]), *port});
  }
  if (egress_port) {
    hops.push_back(Hop{nodes_.at(node_path.back()), *egress_port});
  }
  if (hops.empty()) {
    throw std::invalid_argument(
        "route_for_path: path needs >= 2 nodes or an egress port");
  }
  return compute_route_id(hops);
}

PolkaFabric::Trace PolkaFabric::forward(const RouteId& route,
                                        std::size_t first,
                                        std::size_t max_hops) const {
  if (first >= nodes_.size()) {
    throw std::out_of_range("PolkaFabric::forward: bad start node");
  }
  Trace trace;
  std::size_t current = first;
  for (std::size_t hop = 0; hop < max_hops; ++hop) {
    const unsigned port = output_port(route, nodes_[current]);
    ++trace.mod_operations;
    trace.nodes.push_back(current);
    trace.ports.push_back(port);
    const auto& ports = wiring_.at(current);
    if (port >= ports.size() || ports[port] == kUnwired) return trace;  // egress
    current = ports[port];
  }
  trace.ttl_expired = true;
  return trace;
}

SegmentedRoute PolkaFabric::segmented_route_for_path(
    const std::vector<std::size_t>& node_path, unsigned egress_port) const {
  if (node_path.empty()) {
    throw std::invalid_argument("segmented_route_for_path: empty path");
  }
  SegmentedRoute out;
  gf2::CrtAccumulator acc;
  int seg_degree = 0;  // 0 <=> the current segment holds no congruence
  const auto cut_at = [&](std::size_t node) {
    // A closed segment always packs: a multi-congruence segment has
    // modulus degree <= 64, and a lone congruence's solution is its
    // reduced residue (the port bits).
    out.labels.push_back(pack_label_checked(RouteId{acc.solution()}));
    out.waypoints.push_back(static_cast<std::uint32_t>(node));
    acc = {};
    seg_degree = 0;
  };
  for (std::size_t i = 0; i + 1 < node_path.size(); ++i) {
    const auto port = port_between(node_path[i], node_path[i + 1]);
    if (!port) {
      throw std::invalid_argument(
          "segmented_route_for_path: consecutive nodes " +
          nodes_.at(node_path[i]).name + " -> " +
          nodes_.at(node_path[i + 1]).name + " are not wired");
    }
    const gf2::Poly& id = nodes_.at(node_path[i]).poly;
    const int d = id.degree();
    if (seg_degree > 0 && seg_degree + d > 64) cut_at(node_path[i]);
    if (d <= 63) {
      acc.add(*port, id.to_uint64());
    } else {
      acc.add(gf2::Congruence{port_polynomial(*port), id});
    }
    seg_degree += d;
  }
  const gf2::Poly& dst = nodes_.at(node_path.back()).poly;
  const int dd = dst.degree();
  if (port_polynomial(egress_port).degree() >= dd) {
    throw std::domain_error(
        "segmented_route_for_path: egress port does not fit the last "
        "node's degree");
  }
  if (seg_degree > 0 && seg_degree + dd > 64) cut_at(node_path.back());
  if (seg_degree == 0) {
    // The destination starts a fresh segment: its label only has to
    // satisfy label mod nodeID == egress port, and the port bits do.
    out.labels.push_back(RouteLabel{egress_port});
  } else {
    out.labels.push_back(pack_label_checked(RouteId{
        dd <= 63 ? acc.solution_with(egress_port, dst.to_uint64())
                 : acc.solution_with(gf2::Congruence{
                       port_polynomial(egress_port), dst})}));
  }
  return out;
}

std::optional<unsigned> PolkaFabric::port_between(std::size_t from,
                                                  std::size_t to) const {
  const auto& ports = wiring_.at(from);
  for (unsigned p = 0; p < ports.size(); ++p) {
    if (ports[p] == to) return p;
  }
  return std::nullopt;
}

std::optional<std::size_t> PolkaFabric::neighbour(std::size_t node,
                                                  unsigned port) const {
  const auto& ports = wiring_.at(node);
  if (port >= ports.size() || ports[port] == kUnwired) return std::nullopt;
  return ports[port];
}

const CompiledFabric& PolkaFabric::compiled() const {
  if (!compiled_.ptr) {
    compiled_.ptr = std::make_shared<const CompiledFabric>(*this);
  }
  return *compiled_.ptr;
}

}  // namespace hp::polka
