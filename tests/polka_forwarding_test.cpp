// Tests for stateless fabric forwarding and the port-switching baseline.

#include "polka/forwarding.hpp"

#include <gtest/gtest.h>

#include <random>

#include "polka/fastpath.hpp"
#include "polka/port_switching.hpp"

namespace hp::polka {
namespace {

// Linear chain A -> B -> C -> D, each node with 4 ports; port 1 goes
// "right", port 0 is host-facing (unwired).
PolkaFabric make_chain() {
  PolkaFabric fabric;
  const auto a = fabric.add_node("A", 4);
  const auto b = fabric.add_node("B", 4);
  const auto c = fabric.add_node("C", 4);
  const auto d = fabric.add_node("D", 4);
  fabric.connect(a, 1, b);
  fabric.connect(b, 1, c);
  fabric.connect(c, 1, d);
  // Reverse direction on port 2.
  fabric.connect(b, 2, a);
  fabric.connect(c, 2, b);
  fabric.connect(d, 2, c);
  return fabric;
}

TEST(PolkaFabric, ForwardAlongChain) {
  const PolkaFabric fabric = make_chain();
  const std::vector<std::size_t> path{0, 1, 2, 3};
  const RouteId route = fabric.route_for_path(path, 0U);
  const auto trace = fabric.forward(route, 0);
  EXPECT_EQ(trace.nodes, path);
  EXPECT_EQ(trace.ports, (std::vector<unsigned>{1, 1, 1, 0}));
  EXPECT_EQ(trace.mod_operations, 4U);
}

TEST(PolkaFabric, ReversePath) {
  const PolkaFabric fabric = make_chain();
  const std::vector<std::size_t> path{3, 2, 1, 0};
  const RouteId route = fabric.route_for_path(path, 0U);
  const auto trace = fabric.forward(route, 3);
  EXPECT_EQ(trace.nodes, path);
}

TEST(PolkaFabric, PartialPath) {
  const PolkaFabric fabric = make_chain();
  const RouteId route = fabric.route_for_path({1, 2}, 3U);
  const auto trace = fabric.forward(route, 1);
  EXPECT_EQ(trace.nodes, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(trace.ports.back(), 3U);  // chosen egress port
}

TEST(PolkaFabric, DuplicateNameRejected) {
  PolkaFabric fabric;
  fabric.add_node("X", 2);
  EXPECT_THROW(fabric.add_node("X", 2), std::invalid_argument);
}

TEST(PolkaFabric, IndexOf) {
  PolkaFabric fabric;
  fabric.add_node("MIA", 4);
  fabric.add_node("SAO", 4);
  EXPECT_EQ(fabric.index_of("SAO"), 1U);
  EXPECT_THROW((void)fabric.index_of("AMS"), std::out_of_range);
}

TEST(PolkaFabric, UnwiredPathRejected) {
  PolkaFabric fabric;
  const auto a = fabric.add_node("A", 2);
  const auto b = fabric.add_node("B", 2);
  (void)a;
  (void)b;
  EXPECT_THROW(fabric.route_for_path({0, 1}), std::invalid_argument);
}

TEST(PolkaFabric, HopLimitStopsForwarding) {
  // Wire a 2-node loop and craft a route that cycles; the hop guard
  // must terminate the trace.
  PolkaFabric fabric;
  const auto a = fabric.add_node("A", 4);
  const auto b = fabric.add_node("B", 4);
  fabric.connect(a, 1, b);
  fabric.connect(b, 1, a);
  const RouteId looping =
      compute_route_id({{fabric.node(a), 1}, {fabric.node(b), 1}});
  const auto trace = fabric.forward(looping, a, 10);
  EXPECT_EQ(trace.nodes.size(), 10U);
}

TEST(PolkaFabric, RouteIdUnchangedAcrossHops) {
  // The defining PolKA property: the label carried by the packet is
  // immutable; forwarding consults it but never rewrites it.
  const PolkaFabric fabric = make_chain();
  const RouteId route = fabric.route_for_path({0, 1, 2, 3}, 0U);
  const gf2::Poly before = route.value;
  (void)fabric.forward(route, 0);
  EXPECT_EQ(route.value, before);
}

// --- port-switching baseline ------------------------------------------

TEST(PortListLabel, PopSequence) {
  PortListLabel label({1, 3, 2}, 4);
  EXPECT_EQ(label.remaining_hops(), 3U);
  EXPECT_EQ(label.bit_length(), 12U);
  EXPECT_EQ(label.pop_front(), 1U);
  EXPECT_EQ(label.pop_front(), 3U);
  EXPECT_EQ(label.bit_length(), 4U);
  EXPECT_EQ(label.pop_front(), 2U);
  EXPECT_TRUE(label.empty());
  EXPECT_THROW(label.pop_front(), std::out_of_range);
}

TEST(PortListLabel, FieldWidthValidation) {
  EXPECT_THROW(PortListLabel({1}, 0), std::invalid_argument);
  EXPECT_THROW(PortListLabel({1}, 17), std::invalid_argument);
  EXPECT_THROW(PortListLabel({16}, 4), std::invalid_argument);
  EXPECT_NO_THROW(PortListLabel({15}, 4));
}

TEST(PolkaFabricCopy, RewiredCopyDoesNotServeStaleCompiledView) {
  // Regression: a defaulted copy carried the source's cached compiled_
  // view; a copy that is then rewired must recompile, not keep serving
  // the source's wiring through the fast path.
  PolkaFabric original = make_chain();
  const RouteId route = original.route_for_path({0, 1, 2, 3}, 0U);
  (void)original.compiled();  // warm the cache that the copy must drop

  PolkaFabric rewired = original;
  const auto d = rewired.add_node("E", 4);
  rewired.connect(2, 1, d);  // C's "right" port now points at E, not D

  // Scalar and compiled walks agree on the rewired copy...
  const auto trace = rewired.forward(route, 0);
  const auto got =
      rewired.compiled().forward_one(pack_label_checked(route), 0);
  EXPECT_EQ(got.egress_node, trace.nodes.back());
  EXPECT_EQ(got.egress_port, trace.ports.back());
  EXPECT_EQ(got.hops, trace.nodes.size());
  // ...and the packet now traverses E where it used to traverse D.
  EXPECT_EQ(trace.nodes[3], d);

  // The original is untouched: same cached view, same walk as before.
  const auto original_walk =
      original.compiled().forward_one(pack_label_checked(route), 0);
  EXPECT_EQ(original_walk.egress_node, 3u);  // D
  EXPECT_EQ(original.node_count(), 4u);

  // Copy assignment drops the cache the same way.
  PolkaFabric assigned;
  assigned.add_node("solo", 2);
  assigned = rewired;
  EXPECT_EQ(assigned.compiled().node_count(), 5u);
  const auto assigned_walk =
      assigned.compiled().forward_one(pack_label_checked(route), 0);
  EXPECT_EQ(assigned_walk.egress_node, got.egress_node);
  EXPECT_EQ(assigned_walk.egress_port, got.egress_port);
}

TEST(PortListLabel, LabelShrinksPolkaDoesNot) {
  // Contrast the two SR schemes: the port list loses bits every hop
  // while PolKA's routeID length is invariant.
  const PolkaFabric fabric = make_chain();
  const RouteId route = fabric.route_for_path({0, 1, 2, 3}, 0U);
  PortListLabel label({1, 1, 1, 0}, 2);
  const unsigned polka_bits = route.bit_length();
  unsigned prev = label.bit_length();
  while (!label.empty()) {
    (void)label.pop_front();
    EXPECT_LT(label.bit_length(), prev + 1);
    prev = label.bit_length();
  }
  EXPECT_EQ(route.bit_length(), polka_bits);
}

}  // namespace
}  // namespace hp::polka
