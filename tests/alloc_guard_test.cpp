// Dynamic twin of the hp-lint hot-path-purity rule: interposes the
// global allocator in this TU and proves the forwarding hot paths hold
// the zero-allocation contract at runtime, not just textually.
//
//  * CompiledFabric::forward_batch / forward_batch_segmented on a warm
//    fabric perform ZERO heap allocations, for both fold kernels.
//  * replay_shards allocates per *call* (shard partials + batch
//    buffers), never per *packet*: replaying 10x the packets costs
//    exactly the same number of allocations.
//  * PolkaFabric::add_node pays for the nodeID search, the name and the
//    wiring only -- no per-node engine state rides along.
//  * PacketSim::run allocates only as its event queue grows to the
//    number of events in flight, never per injected packet.
//  * EventQueue, once it has held N events, runs any stream of at most
//    N pending events without allocating.
//  * Transport::add_flow allocates a bounded number of arrays per flow
//    and never copies the flows already registered.
//
// The interposer counts every operator-new entry; tests snapshot the
// counter around the call under test and assert on the delta, so
// gtest's own bookkeeping allocations outside the window don't matter.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "polka/fastpath.hpp"
#include "polka/forwarding.hpp"
#include "polka/label.hpp"
#include "scenario/runner.hpp"
#include "sim/event_queue.hpp"
#include "sim/packet_sim.hpp"
#include "sim/transport.hpp"

namespace {

std::atomic<std::uint64_t> g_new_calls{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Strong definitions replace the library operator new for this binary.
void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace hp::polka {
namespace {

std::uint64_t alloc_count() {
  return g_new_calls.load(std::memory_order_relaxed);
}

PolkaFabric make_chain(std::size_t n) {
  PolkaFabric fabric;
  for (std::size_t i = 0; i < n; ++i) {
    fabric.add_node("r" + std::to_string(i), 4);
  }
  for (std::size_t i = 0; i + 1 < n; ++i) fabric.connect(i, 1, i + 1);
  return fabric;
}

std::vector<FoldKernel> testable_kernels() {
  std::vector<FoldKernel> kernels{FoldKernel::kTable};
  if (clmul_fold_supported()) kernels.push_back(FoldKernel::kClmulBarrett);
  return kernels;
}

TEST(AllocGuard, InterposerSeesThisTranslationUnit) {
  const std::uint64_t before = alloc_count();
  auto* leak_free = new int(7);
  delete leak_free;
  std::vector<int> v(128);
  EXPECT_GE(alloc_count() - before, 2u)
      << "operator new interposer is not active; the remaining "
         "assertions would be vacuous";
  static_cast<void>(v);
}

TEST(AllocGuard, ForwardBatchIsZeroAllocationOnWarmFabric) {
  const PolkaFabric fabric = make_chain(12);
  std::vector<std::size_t> path(12);
  for (std::size_t i = 0; i < 12; ++i) path[i] = i;

  std::vector<RouteLabel> labels;
  for (unsigned egress = 0; egress < 4; ++egress) {
    labels.push_back(pack_label_checked(fabric.route_for_path(path, egress)));
  }
  for (int rep = 0; rep < 6; ++rep) {
    labels.insert(labels.end(), labels.begin(), labels.begin() + 4);
  }
  std::vector<PacketResult> results(labels.size());
  std::vector<std::uint32_t> firsts(labels.size(), 0);

  for (const FoldKernel kernel : testable_kernels()) {
    const CompiledFabric fast(fabric, kernel);
    // Warm: kTable builds its fold tables lazily on the first walk.
    (void)fast.forward_batch(labels, 0, std::span<PacketResult>(results));

    const std::uint64_t before = alloc_count();
    const std::size_t mods =
        fast.forward_batch(labels, 0, std::span<PacketResult>(results));
    const std::size_t mods2 = fast.forward_batch(
        labels, std::span<const std::uint32_t>(firsts),
        std::span<PacketResult>(results));
    const std::uint64_t delta = alloc_count() - before;

    EXPECT_EQ(delta, 0u) << "forward_batch allocated under kernel "
                         << to_string(kernel);
    EXPECT_GT(mods, 0u);
    EXPECT_EQ(mods, mods2);
  }
}

TEST(AllocGuard, ForwardBatchSegmentedIsZeroAllocationOnWarmFabric) {
  // A chain long enough that the end-to-end route needs > 1 segment.
  const PolkaFabric fabric = make_chain(24);
  std::vector<std::size_t> path(24);
  for (std::size_t i = 0; i < 24; ++i) path[i] = i;
  const SegmentedRoute segs = fabric.segmented_route_for_path(path, 0U);
  ASSERT_GT(segs.labels.size(), 1u);

  const std::vector<SegmentRef> refs{
      {0, 0, static_cast<std::uint32_t>(segs.labels.size())}};
  const std::vector<std::uint32_t> firsts{0};
  std::vector<PacketResult> results(1);

  const CompiledFabric& fast = fabric.compiled();
  (void)fast.forward_batch_segmented(segs.labels, segs.waypoints, refs,
                                     firsts, results);

  const std::uint64_t before = alloc_count();
  const std::size_t mods = fast.forward_batch_segmented(
      segs.labels, segs.waypoints, refs, firsts, results);
  const std::uint64_t delta = alloc_count() - before;

  EXPECT_EQ(delta, 0u) << "forward_batch_segmented allocated";
  EXPECT_EQ(mods, results[0].hops);
}

TEST(AllocGuard, ReplayAllocationsIndependentOfPacketCount) {
  const PolkaFabric fabric = make_chain(10);
  std::vector<std::size_t> path(10);
  for (std::size_t i = 0; i < 10; ++i) path[i] = i;
  const RouteLabel label = pack_label_checked(fabric.route_for_path(path, 0U));
  const CompiledFabric& fast = fabric.compiled();
  const PacketResult want = fast.forward_one(label, 0);

  const auto replay = [&](std::size_t packets) {
    const std::vector<RouteLabel> labels(packets, label);
    const std::vector<std::uint32_t> ingress(packets, 0);
    const std::vector<std::uint32_t> index(packets, 0);
    const std::vector<PacketResult> expected{want};
    const std::uint64_t before = alloc_count();
    const scenario::ScenarioReport report = scenario::replay_shards(
        fast, labels, ingress, index, expected, /*alive=*/{}, /*threads=*/1,
        /*batch_size=*/256);
    const std::uint64_t delta = alloc_count() - before;
    EXPECT_EQ(report.packets, packets);
    EXPECT_EQ(report.wrong_egress, 0u);
    return delta;
  };

  (void)replay(512);  // warm any lazy state before comparing deltas
  const std::uint64_t small = replay(512);
  const std::uint64_t large = replay(5120);
  EXPECT_EQ(small, large)
      << "replay_shards allocation count scales with packet count -- the "
         "replay_slice hot loop is allocating per packet";
}

TEST(AllocGuard, AddNodeWiringCostStaysBounded) {
  // Wiring a node allocates for its nodeID search, its name and its
  // port row (~300 allocations).  A per-node lookup-table engine costs
  // thousands more; this pins that none creeps back into the fabric.
  constexpr std::size_t kNodes = 256;
  PolkaFabric fabric;
  for (std::size_t i = 0; i < 16; ++i) {
    fabric.add_node("warm" + std::to_string(i), 4);
  }
  std::vector<std::string> names;
  names.reserve(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    names.push_back("n" + std::to_string(i));
  }

  const std::uint64_t before = alloc_count();
  for (const std::string& name : names) fabric.add_node(name, 4);
  const std::uint64_t delta = alloc_count() - before;

  EXPECT_EQ(fabric.node_count(), 16 + kNodes);
  EXPECT_LT(delta / kNodes, 1000u)
      << "add_node allocated " << delta << " times for " << kNodes
      << " nodes";
}

TEST(AllocGuard, PacketSimRunAllocationsIndependentOfPacketCount) {
  // An 8-router chain, every hop 10 ns on the wire plus 100 ns of
  // propagation, one packet injected every 20 ns: the wire keeps up, so
  // ~40 packets are in flight however many are injected.  The event
  // heap grows to that size inside run(); the injection schedule waits
  // in the queue's sorted backlog, which inject() grew before the clock
  // started.
  constexpr std::size_t kRouters = 8;
  const PolkaFabric fabric = make_chain(kRouters);
  std::vector<std::size_t> path(kRouters);
  for (std::size_t i = 0; i < kRouters; ++i) path[i] = i;
  const RouteLabel label = pack_label_checked(fabric.route_for_path(path, 0U));
  const CompiledFabric& fast = fabric.compiled();
  const PacketResult want = fast.forward_one(label, 0);

  const auto run = [&](std::size_t packets) {
    std::vector<std::uint32_t> node_offset(fast.node_count() + 1, 0);
    std::vector<std::uint32_t> port_channel;
    std::vector<sim::Channel> channels;
    for (std::size_t node = 0; node < fast.node_count(); ++node) {
      for (std::uint32_t port = 0; port < fast.port_count(node); ++port) {
        std::uint32_t ch = sim::PacketSim::kNoChannel;
        if (fast.neighbor(node, port) != CompiledFabric::kNoNode) {
          ch = static_cast<std::uint32_t>(channels.size());
          channels.push_back(sim::Channel{/*latency_ns=*/100,
                                          /*serialize_ns=*/10,
                                          /*queue_capacity=*/16,
                                          /*ecn_threshold=*/0});
        }
        port_channel.push_back(ch);
      }
      node_offset[node + 1] = static_cast<std::uint32_t>(port_channel.size());
    }
    sim::PacketSim engine(fast, std::move(channels), std::move(node_offset),
                          std::move(port_channel));
    const std::uint32_t flow = engine.add_flow(want);
    for (std::size_t i = 0; i < packets; ++i) {
      (void)engine.inject(i * 20, label, SegmentRef{}, 0, flow);
    }
    const std::uint64_t before = alloc_count();
    const sim::SimResult result = engine.run();
    const std::uint64_t delta = alloc_count() - before;
    EXPECT_EQ(result.counters.delivered, packets);
    EXPECT_EQ(result.counters.wrong_egress, 0u);
    return delta;
  };

  const std::uint64_t small = run(4096);
  const std::uint64_t large = run(65536);
  EXPECT_EQ(small, large)
      << "PacketSim::run allocation count scales with packet count -- the "
         "event loop is allocating per packet, or the heap is holding the "
         "injection schedule";
}

TEST(AllocGuard, EventQueueSteadyStateAllocatesNothing) {
  // Each pass loads one event, keeps kInFlight events pending while it
  // pops `events` of them -- every pop replaced by a push a uniform
  // offset later -- and drains.  The warm-up grows the backlog and the
  // node pool to kInFlight; the measured pass holds the same number
  // pending but pops 16x the events over about 2^40 ns of ticks, so
  // every bucket level gets used, and must run on what the warm-up grew.
  constexpr std::size_t kInFlight = 4096;
  constexpr std::size_t kWarmup = 65536;
  sim::EventQueue q;
  std::mt19937_64 rng(5);
  sim::Tick now = 0;
  const auto pass = [&](std::size_t events, sim::Tick spread) {
    std::uniform_int_distribution<sim::Tick> offset(0, spread - 1);
    q.push(now, 0, 0);
    std::size_t pushed = 1;
    while (!q.empty()) {
      now = q.pop().at;
      while (pushed < events && q.size() < kInFlight) {
        q.push(now + offset(rng), 0, 0);
        ++pushed;
      }
    }
  };
  // Pending events sit roughly uniformly over one spread, so the clock
  // advances spread / kInFlight per pop.
  constexpr std::size_t kEvents = 16 * kWarmup;
  constexpr sim::Tick kSpan = sim::Tick{1} << 40;
  constexpr sim::Tick kSpread = kSpan / kEvents * kInFlight;
  pass(kWarmup, kSpread);
  const sim::Tick start = now;
  const std::uint64_t before = alloc_count();
  pass(kEvents, kSpread);
  const std::uint64_t delta = alloc_count() - before;
  EXPECT_EQ(delta, 0u) << "EventQueue allocated in a pass that never held "
                          "more events than the warm-up";
  EXPECT_GT(now - start, kSpan / 2);
  EXPECT_LT(now - start, kSpan * 2);
}

TEST(AllocGuard, TransportAddFlowAllocationsStayBounded) {
  // A flow's registration allocates its four per-sequence arrays and
  // its per-epoch sim-flow handles, nothing else, and flows_ doubling
  // moves the registered flows instead of copying them.  The mean is
  // taken in integers, so the four doublings between the two sizes
  // round away.
  const PolkaFabric fabric = make_chain(2);
  const RouteLabel label =
      pack_label_checked(fabric.route_for_path(std::vector<std::size_t>{0, 1},
                                               0U));
  const CompiledFabric& fast = fabric.compiled();
  std::vector<std::uint32_t> node_offset{0};
  for (std::size_t node = 0; node < fast.node_count(); ++node) {
    node_offset.push_back(node_offset.back() + fast.port_count(node));
  }
  const std::vector<std::uint32_t> port_channel(node_offset.back(),
                                                sim::PacketSim::kNoChannel);
  sim::PacketSim engine(fast, {}, node_offset, port_channel);
  const auto allocations = [&](std::uint32_t flows) {
    sim::Transport transport(engine, sim::TransportOptions{}, 1000, nullptr);
    const std::uint32_t lane = transport.add_lane(
        {sim::RouteEpoch{0, label, SegmentRef{}, fast.forward_one(label, 0)}});
    const std::uint64_t before = alloc_count();
    for (std::uint32_t i = 0; i < flows; ++i) {
      (void)transport.add_flow(lane, 0, sim::Tick{i} * 100, 10, 8);
    }
    return alloc_count() - before;
  };
  const std::uint64_t small = allocations(1024);
  const std::uint64_t large = allocations(16384);
  ASSERT_GT(large, small);
  const std::uint64_t per_flow = (large - small) / (16384 - 1024);
  EXPECT_LE(per_flow, 5u) << "Transport::add_flow allocated " << per_flow
                          << " times per flow";
}

}  // namespace
}  // namespace hp::polka
