// Unit tests for the batched uint64 fast path: label packing, the
// slice-by-8 fold engine against the polynomial reference engines, the
// compiled fabric walks, segmented routes past the 64-bit cliff, and
// the PolkaService tunnels on the compiled walk.

#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "core/polka_service.hpp"
#include "freertr/router_service.hpp"
#include "gf2/irreducible.hpp"
#include "netsim/topology.hpp"
#include "netsim/workload.hpp"
#include "polka/crc.hpp"
#include "polka/fastpath.hpp"
#include "polka/forwarding.hpp"
#include "polka/label.hpp"

namespace hp::polka {
namespace {

using hp::gf2::Poly;

TEST(RouteLabel, PackUnpackRoundTrip) {
  const RouteId route{Poly(0xDEADBEEFCAFE1234ull)};
  const auto label = pack_label(route);
  ASSERT_TRUE(label.has_value());
  EXPECT_EQ(label->bits, 0xDEADBEEFCAFE1234ull);
  EXPECT_EQ(unpack_label(*label).value, route.value);
  EXPECT_EQ(pack_label_checked(route), *label);
}

TEST(RouteLabel, OversizedRouteDoesNotPack) {
  const RouteId route{Poly::monomial(64)};
  EXPECT_FALSE(pack_label(route).has_value());
  EXPECT_THROW((void)pack_label_checked(route), std::domain_error);
}

TEST(LabelFoldEngine, MatchesPolynomialEnginesOnRandomInputs) {
  std::mt19937_64 rng(2024);
  // The first irreducible generator of each degree 2..12 against random
  // labels.
  for (unsigned d = 2; d <= 12; ++d) {
    const Poly g = hp::gf2::irreducible_of_degree(d).front();
    const LabelFoldEngine fold(g);
    const BitSerialCrc bit_serial(g);
    const TableCrc table(g);
    EXPECT_EQ(fold.degree(), d);
    for (int trial = 0; trial < 50; ++trial) {
      const std::uint64_t bits = rng();
      const Poly dividend(bits);
      const std::uint64_t want = (dividend % g).to_uint64();
      EXPECT_EQ(fold.remainder(bits), want) << "d=" << d;
      EXPECT_EQ(bit_serial.remainder(dividend).to_uint64(), want) << "d=" << d;
      EXPECT_EQ(table.remainder_bits(dividend), want) << "d=" << d;
    }
  }
}

TEST(LabelFoldEngine, RejectsUnusableDegrees) {
  EXPECT_THROW(LabelFoldEngine(Poly(1)), std::invalid_argument);  // degree 0
  EXPECT_THROW(LabelFoldEngine(Poly::monomial(33)), std::invalid_argument);
}

TEST(LabelFoldEngine, Degree32BoundaryMatchesExactDivision) {
  // Degree 32 is the largest allowed generator (remainders and port
  // indices must fit 32 bits).  Check the fold against exact Euclidean
  // division right at that boundary, including labels whose top byte
  // lane is saturated, and one step past it.
  // The enumerator caps at degree 24, so scan for the first degree-32
  // irreducible directly (density ~1/32; a handful of Rabin tests).
  Poly g;
  for (std::uint64_t bits = 1;; bits += 2) {
    g = Poly::monomial(32) + Poly(bits);
    if (hp::gf2::is_irreducible(g)) break;
  }
  ASSERT_EQ(g.degree(), 32);
  const LabelFoldEngine fold(g);
  EXPECT_EQ(fold.degree(), 32u);

  std::mt19937_64 rng(32);
  const std::uint64_t fixed[] = {0ull, 1ull, g.to_uint64(),
                                 0xFFFFFFFFFFFFFFFFull, 0xFF00000000000000ull};
  for (const std::uint64_t bits : fixed) {
    EXPECT_EQ(fold.remainder(bits), (Poly(bits) % g).to_uint64()) << bits;
  }
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t bits = rng();
    const std::uint64_t want = (Poly(bits) % g).to_uint64();
    EXPECT_EQ(fold.remainder(bits), want);
    EXPECT_LE(want, 0xFFFFFFFFull);  // remainder degree < 32
  }

  // build_fold_table itself: accepts 32, rejects 33, and its lane-0
  // entries are plain remainders of the byte value.
  std::vector<std::uint64_t> table(kFoldTableSize);
  build_fold_table(g, table.data());
  for (unsigned b = 0; b < 256; ++b) {
    EXPECT_EQ(table[b], b);  // deg(b) < 32 => b mod g == b
  }
  EXPECT_THROW(build_fold_table(Poly::monomial(33), table.data()),
               std::invalid_argument);
}

/// Chain fabric r0 -> r1 -> ... -> r{n-1}, egress on port 0 of the last.
PolkaFabric make_chain(std::size_t n) {
  PolkaFabric fabric;
  for (std::size_t i = 0; i < n; ++i) {
    fabric.add_node("r" + std::to_string(i), 4);
  }
  for (std::size_t i = 0; i + 1 < n; ++i) fabric.connect(i, 1, i + 1);
  return fabric;
}

TEST(CompiledFabric, WalkMatchesScalarForward) {
  const PolkaFabric fabric = make_chain(8);
  std::vector<std::size_t> path(8);
  for (std::size_t i = 0; i < 8; ++i) path[i] = i;
  const RouteId route = fabric.route_for_path(path, 0U);

  const auto trace = fabric.forward(route, 0);
  ASSERT_EQ(trace.nodes.size(), 8u);

  const CompiledFabric& fast = fabric.compiled();
  EXPECT_EQ(fast.node_count(), 8u);
  const auto result = fast.forward_one(pack_label_checked(route), 0);
  EXPECT_EQ(result.egress_node, trace.nodes.back());
  EXPECT_EQ(result.egress_port, trace.ports.back());
  EXPECT_EQ(result.hops, trace.nodes.size());
}

TEST(CompiledFabric, CompiledViewIsCachedAndInvalidated) {
  PolkaFabric fabric = make_chain(3);
  const CompiledFabric* before = &fabric.compiled();
  EXPECT_EQ(before, &fabric.compiled());  // cached
  fabric.add_node("extra", 2);
  const CompiledFabric& after = fabric.compiled();
  EXPECT_EQ(after.node_count(), 4u);  // rebuilt with the new node
}

TEST(CompiledFabric, BatchMatchesPerPacketWalks) {
  const PolkaFabric fabric = make_chain(6);
  std::vector<std::size_t> path(6);
  for (std::size_t i = 0; i < 6; ++i) path[i] = i;

  std::vector<RouteLabel> labels;
  std::vector<PacketResult> expected;
  const CompiledFabric& fast = fabric.compiled();
  for (unsigned egress = 0; egress < 4; ++egress) {
    const RouteId route = fabric.route_for_path(path, egress);
    const RouteLabel label = pack_label_checked(route);
    labels.push_back(label);
    expected.push_back(fast.forward_one(label, 0));
  }
  std::vector<PacketResult> got(labels.size());
  const std::size_t mods =
      fast.forward_batch(labels, 0, std::span<PacketResult>(got));
  EXPECT_EQ(got, expected);
  EXPECT_EQ(mods, 4u * 6u);

  // Mixed-ingress overload.
  std::vector<std::uint32_t> firsts(labels.size(), 0);
  firsts.back() = 2;
  expected.back() = fast.forward_one(labels.back(), 2);
  const std::size_t mods2 = fast.forward_batch(
      labels, std::span<const std::uint32_t>(firsts),
      std::span<PacketResult>(got));
  EXPECT_EQ(got, expected);
  EXPECT_LT(mods2, mods);  // the re-injected packet walks fewer hops
}

TEST(CompiledFabric, InterleavedBatchRefillsMatchScalarWalks) {
  // Far more packets than the kernel keeps in flight, with wildly
  // uneven walk lengths (different ingress depths and a few hop-capped
  // loopers), so lane refill and compaction both trigger.  Every result
  // must equal the scalar walk's, under both fold kernels.
  const PolkaFabric fabric = make_chain(12);
  std::vector<std::size_t> path(12);
  for (std::size_t i = 0; i < 12; ++i) path[i] = i;

  std::vector<RouteLabel> labels;
  std::vector<std::uint32_t> firsts;
  for (unsigned egress = 0; egress < 4; ++egress) {
    const RouteLabel label =
        pack_label_checked(fabric.route_for_path(path, egress));
    for (std::uint32_t first = 0; first < 12; first += 3) {
      labels.push_back(label);
      firsts.push_back(first);
    }
    labels.push_back(RouteLabel{0});  // orbits ports 0/1; dies on the cap
    firsts.push_back(egress % 12);
  }
  ASSERT_GT(labels.size(), 2 * 8u);  // > 2x the in-flight lane count

  const std::size_t max_hops = 16;
  for (const FoldKernel kernel :
       {FoldKernel::kTable, FoldKernel::kClmulBarrett}) {
    if (kernel == FoldKernel::kClmulBarrett && !clmul_fold_supported()) {
      continue;
    }
    const CompiledFabric fast(fabric, kernel);
    std::vector<PacketResult> expected;
    std::size_t want_mods = 0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      expected.push_back(fast.forward_one(labels[i], firsts[i], max_hops));
      want_mods += expected.back().hops;
    }
    std::vector<PacketResult> got(labels.size());
    const std::size_t mods = fast.forward_batch(
        labels, firsts, std::span<PacketResult>(got), max_hops);
    EXPECT_EQ(got, expected) << to_string(kernel);
    EXPECT_EQ(mods, want_mods) << to_string(kernel);
  }
}

TEST(CompiledFabric, ZeroHopBudgetKillsEveryPacketWithoutFolding) {
  const PolkaFabric fabric = make_chain(3);
  const CompiledFabric& fast = fabric.compiled();
  const PacketResult killed = fast.forward_one(RouteLabel{1}, 1, 0);
  EXPECT_TRUE(killed.ttl_expired);
  EXPECT_EQ(killed.hops, 0u);
  std::vector<RouteLabel> labels(3, RouteLabel{1});
  std::vector<PacketResult> results(3);
  EXPECT_EQ(fast.forward_batch(labels, 1, std::span<PacketResult>(results), 0),
            0u);
  for (const PacketResult& r : results) EXPECT_EQ(r, killed);
}

TEST(CompiledFabric, BatchValidatesArguments) {
  const PolkaFabric fabric = make_chain(3);
  const CompiledFabric& fast = fabric.compiled();
  std::vector<RouteLabel> labels(2);
  std::vector<PacketResult> results(3);
  EXPECT_THROW((void)fast.forward_batch(labels, 0,
                                        std::span<PacketResult>(results)),
               std::invalid_argument);
  results.resize(2);
  EXPECT_THROW((void)fast.forward_batch(labels, 99,
                                        std::span<PacketResult>(results)),
               std::out_of_range);
}

TEST(CompiledFabric, TtlExpiredFlagOnLoopingLabel) {
  // Two nodes wired into a cycle on port 0; the all-zero label computes
  // port 0 everywhere, so the packet orbits until the hop cap kills it.
  PolkaFabric fabric;
  fabric.add_node("a", 2);
  fabric.add_node("b", 2);
  fabric.connect(0, 0, 1);
  fabric.connect(1, 0, 0);

  const CompiledFabric& fast = fabric.compiled();
  const PacketResult looped = fast.forward_one(RouteLabel{0}, 0, 8);
  EXPECT_TRUE(looped.ttl_expired);
  EXPECT_EQ(looped.hops, 8u);

  const auto trace = fabric.forward(RouteId{Poly(0)}, 0, 8);
  EXPECT_TRUE(trace.ttl_expired);
  EXPECT_EQ(trace.nodes.size(), 8u);

  // A delivered packet never carries the flag -- and the flag makes a
  // kill comparable-distinct from a delivery with the same tail.
  const PolkaFabric chain = make_chain(4);
  std::vector<std::size_t> path{0, 1, 2, 3};
  const RouteId route = chain.route_for_path(path, 0U);
  const PacketResult delivered =
      chain.compiled().forward_one(pack_label_checked(route), 0);
  EXPECT_FALSE(delivered.ttl_expired);
  PacketResult killed = delivered;
  killed.ttl_expired = true;
  EXPECT_NE(delivered, killed);
}

TEST(SegmentedRoute, SingleSegmentMatchesRouteForPath) {
  const PolkaFabric fabric = make_chain(8);
  std::vector<std::size_t> path(8);
  for (std::size_t i = 0; i < 8; ++i) path[i] = i;

  // 8 nodes of degree 2: the whole path fits one label, and that label
  // is bit-identical to the packed full-path routeID.
  const SegmentedRoute segs = fabric.segmented_route_for_path(path, 0U);
  ASSERT_TRUE(segs.single_label());
  EXPECT_TRUE(segs.waypoints.empty());
  EXPECT_EQ(segs.labels.front(),
            pack_label_checked(fabric.route_for_path(path, 0U)));

  const CompiledFabric& fast = fabric.compiled();
  EXPECT_EQ(fast.forward_segmented(segs.labels, segs.waypoints, 0),
            fast.forward_one(segs.labels.front(), 0));
}

TEST(SegmentedRoute, CrossesThe64BitCliffOnTheFastPath) {
  // 24 nodes of 8 ports (degree 3 each): the full-chain routeID has
  // degree ~72, so no single label exists.  The segmented route
  // re-labels mid-chain and the compiled fast path delivers it with the
  // same hop sequence as the polynomial slow path.
  PolkaFabric fabric;
  const std::size_t n = 24;
  for (std::size_t i = 0; i < n; ++i) {
    fabric.add_node("r" + std::to_string(i), 8);
  }
  for (std::size_t i = 0; i + 1 < n; ++i) fabric.connect(i, 1, i + 1);
  std::vector<std::size_t> path(n);
  for (std::size_t i = 0; i < n; ++i) path[i] = i;

  const RouteId long_route = fabric.route_for_path(path, 0U);
  ASSERT_FALSE(pack_label(long_route).has_value());

  const SegmentedRoute segs = fabric.segmented_route_for_path(path, 0U);
  ASSERT_GE(segs.labels.size(), 2u);
  EXPECT_EQ(segs.waypoints.size(), segs.labels.size() - 1);

  const CompiledFabric& fast = fabric.compiled();
  const PacketResult got = fast.forward_segmented(segs.labels, segs.waypoints, 0);
  const auto trace = fabric.forward(long_route, 0);
  EXPECT_FALSE(got.ttl_expired);
  EXPECT_EQ(got.egress_node, trace.nodes.back());
  EXPECT_EQ(got.egress_port, trace.ports.back());
  EXPECT_EQ(got.hops, trace.nodes.size());

  // Hop-sequence parity: stepping the fold engine by hand (with the
  // waypoint swap) visits exactly the nodes the slow path visited.
  std::size_t seg = 0;
  std::size_t current = 0;
  for (std::size_t hop = 0; hop < trace.nodes.size(); ++hop) {
    if (seg < segs.waypoints.size() && current == segs.waypoints[seg]) ++seg;
    ASSERT_EQ(current, trace.nodes[hop]) << "hop " << hop;
    const std::uint32_t port = fast.port_of(segs.labels[seg], current);
    ASSERT_EQ(port, trace.ports[hop]) << "hop " << hop;
    const auto peer = fabric.neighbour(current, port);
    if (!peer) break;
    current = *peer;
  }

  // Batched segmented entry point, mixing a single-label packet in.
  std::vector<std::size_t> short_path{0, 1, 2};
  const SegmentedRoute short_segs =
      fabric.segmented_route_for_path(short_path, 0U);
  ASSERT_TRUE(short_segs.single_label());
  std::vector<RouteLabel> pool = segs.labels;
  pool.insert(pool.end(), short_segs.labels.begin(), short_segs.labels.end());
  const std::vector<std::uint32_t> waypoints = segs.waypoints;
  const std::vector<SegmentRef> refs{
      {0, 0, static_cast<std::uint32_t>(segs.labels.size())},
      {static_cast<std::uint32_t>(segs.labels.size()),
       static_cast<std::uint32_t>(waypoints.size()), 1}};
  const std::vector<std::uint32_t> firsts{0, 0};
  std::vector<PacketResult> results(2);
  const std::size_t mods = fast.forward_batch_segmented(
      pool, waypoints, refs, firsts, results);
  EXPECT_EQ(results[0], got);
  EXPECT_EQ(results[1], fast.forward_one(short_segs.labels.front(), 0));
  EXPECT_EQ(mods, results[0].hops + results[1].hops);
}

TEST(SegmentedRoute, ValidatesInputs) {
  const PolkaFabric fabric = make_chain(4);
  EXPECT_THROW((void)fabric.segmented_route_for_path({}, 0U),
               std::invalid_argument);
  EXPECT_THROW((void)fabric.segmented_route_for_path({0, 2}, 0U),
               std::invalid_argument);  // 0 and 2 are not wired
  // Egress port polynomial must fit the last node's degree (4 ports =>
  // degree 2 => ports 0..3 only).
  EXPECT_THROW((void)fabric.segmented_route_for_path({0, 1}, 200U),
               std::domain_error);

  // Degenerate single-node path: the label is the bare egress bits.
  const SegmentedRoute solo = fabric.segmented_route_for_path({1}, 3U);
  ASSERT_TRUE(solo.single_label());
  EXPECT_EQ(solo.labels.front().bits, 3u);
  const PacketResult r = fabric.compiled().forward_segmented(
      solo.labels, solo.waypoints, 1);
  EXPECT_EQ(r.egress_node, 1u);
  EXPECT_EQ(r.egress_port, 3u);
  EXPECT_EQ(r.hops, 1u);

  const CompiledFabric& fast = fabric.compiled();
  std::vector<SegmentRef> bad_refs{{5, 0, 3}};  // slice past the pool
  std::vector<std::uint32_t> firsts{0};
  std::vector<PacketResult> results(1);
  EXPECT_THROW((void)fast.forward_batch_segmented(solo.labels, solo.waypoints,
                                                  bad_refs, firsts, results),
               std::out_of_range);
}

TEST(WorkloadPackets, PacketCountShapes) {
  hp::netsim::FlowSpec spec;
  spec.size_mb = 1.5;  // 1.5e6 bytes / 1500 = 1000 packets
  EXPECT_EQ(hp::netsim::packet_count(spec), 1000u);
  spec.size_mb = 1e-9;
  EXPECT_EQ(hp::netsim::packet_count(spec), 1u);  // at least one packet
  spec.size_mb = -1.0;
  EXPECT_EQ(hp::netsim::packet_count(spec), 1u);  // degenerate spec
  spec.size_mb = std::numeric_limits<double>::infinity();
  EXPECT_EQ(hp::netsim::packet_count(spec, 1500.0, 4096), 4096u);  // capped
  spec.size_mb = 1e9;
  EXPECT_EQ(hp::netsim::packet_count(spec, 1500.0, 4096), 4096u);
  EXPECT_THROW((void)hp::netsim::packet_count(spec, 0.0),
               std::invalid_argument);
}

/// PolkaService over the paper's Fig 9 topology with two tunnels.
struct ServiceHarness {
  hp::netsim::Topology topo = hp::netsim::make_global_p4_lab();
  hp::freertr::RouterConfigService edge{"MIA"};
  hp::core::PolkaService service{topo, edge};

  ServiceHarness() {
    service.define_tunnel(1, {"MIA", "SAO", "AMS"}, "host2", "10.0.0.2");
    service.define_tunnel(2, {"MIA", "CHI", "AMS"}, "host2", "10.0.0.2");
  }
};

TEST(PolkaService, CompiledWalkOfEveryTunnelMatchesScalarForward) {
  // The service's tunnels replay on the compiled fast path (the batch
  // path replay_shards drives); each tunnel's label must land exactly
  // where the exact polynomial walk of its routeID ends.
  ServiceHarness h;
  const PolkaFabric& fabric = h.service.fabric();
  ASSERT_EQ(h.service.tunnels().size(), 2u);
  for (const auto& [id, t] : h.service.tunnels()) {
    const std::size_t first = fabric.index_of(t.routers.front());
    const auto trace = fabric.forward(t.route_id, first);
    ASSERT_EQ(trace.nodes.size(), t.routers.size()) << t.name;
    PacketResult want;
    want.egress_node = static_cast<std::uint32_t>(trace.nodes.back());
    want.egress_port = trace.ports.back();
    want.hops = static_cast<std::uint32_t>(trace.nodes.size());
    const PacketResult got =
        fabric.compiled().forward_one(pack_label_checked(t.route_id), first);
    EXPECT_EQ(got, want) << t.name;
  }
}

}  // namespace
}  // namespace hp::polka
