// Quickstart: PolKA route encoding in five minutes.
//
// Reproduces the paper's Fig 1 walk-through: three core nodes with
// polynomial identifiers s1 = t+1, s2 = t^2+t+1, s3 = t^3+t+1, output
// ports o1 = 1, o2 = t, o3 = t^2+t.  The routeID is computed with the
// polynomial Chinese Remainder Theorem and each node recovers its port
// with a single mod operation -- no route tables anywhere.
//
// Build & run:  ./build/examples/quickstart

#include <cstdlib>
#include <iostream>

#include "gf2/poly.hpp"
#include "polka/forwarding.hpp"
#include "polka/route.hpp"

int main() {
  using hp::gf2::Poly;
  namespace polka = hp::polka;

  std::cout << "== PolKA quickstart: Fig 1 of the paper ==\n\n";

  // The three core nodes of Fig 1 with their polynomial identifiers.
  const polka::NodeId s1{"s1", Poly(0b11), 2};     // t + 1
  const polka::NodeId s2{"s2", Poly(0b111), 4};    // t^2 + t + 1
  const polka::NodeId s3{"s3", Poly(0b1011), 8};   // t^3 + t + 1
  std::cout << "node identifiers:\n";
  for (const auto& node : {s1, s2, s3}) {
    std::cout << "  " << node.name << "(t) = " << node.poly.to_string()
              << "   (binary " << node.poly.to_binary_string() << ")\n";
  }

  // Desired output ports: o1 = 1, o2 = t (port 2), o3 = t^2 + t (port 6).
  const std::vector<polka::Hop> path{{s1, 1}, {s2, 2}, {s3, 6}};
  const polka::RouteId route = polka::compute_route_id(path);
  std::cout << "\nrouteID = " << route.value.to_string() << "  (binary "
            << route.value.to_binary_string() << ", " << route.bit_length()
            << " bits)\n\n";

  // Each node recovers its port with one mod -- the CRC trick.
  std::cout << "per-node port recovery (routeID mod nodeID):\n";
  for (const auto& hop : path) {
    const unsigned port = polka::output_port(route, hop.node);
    std::cout << "  at " << hop.node.name << ": port " << port
              << (port == hop.port ? "  [matches the intended path]"
                                   : "  [MISMATCH!]")
              << '\n';
    if (port != hop.port) return EXIT_FAILURE;
  }

  // The same thing end to end on a wired fabric: every node on the walk
  // takes the same single mod and hands the packet to that port's peer.
  std::cout << "\nforwarding a packet across a wired fabric:\n";
  polka::PolkaFabric fabric;
  const auto a = fabric.add_node("A", 4);
  const auto b = fabric.add_node("B", 4);
  const auto c = fabric.add_node("C", 4);
  fabric.connect(a, 1, b);
  fabric.connect(b, 2, c);
  const polka::RouteId label = fabric.route_for_path({a, b, c}, 0U);
  const auto trace = fabric.forward(label, a);
  for (std::size_t i = 0; i < trace.nodes.size(); ++i) {
    std::cout << "  " << fabric.node(trace.nodes[i]).name << " --port "
              << trace.ports[i] << "-->\n";
  }
  std::cout << "  (egress; " << trace.mod_operations
            << " mod operations total, label never rewritten)\n";
  return EXIT_SUCCESS;
}
