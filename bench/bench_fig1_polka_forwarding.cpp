// Fig 1: PolKA forwarding -- routeID computation (control plane) and
// per-hop mod operation (data plane) microbenchmarks, plus the paper's
// worked example printed for verification.

#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <chrono>
#include <iostream>
#include <random>
#include <span>

#include "gf2/irreducible.hpp"
#include "polka/crc.hpp"
#include "polka/fastpath.hpp"
#include "polka/forwarding.hpp"
#include "polka/label.hpp"
#include "polka/route.hpp"

namespace {

using hp::gf2::Poly;
namespace polka = hp::polka;

/// Build a random path of `hops` nodes with 8 ports each.
std::vector<polka::Hop> make_path(std::size_t hops, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  polka::NodeIdAllocator alloc;
  std::vector<polka::Hop> path;
  for (std::size_t i = 0; i < hops; ++i) {
    auto node = alloc.allocate("n" + std::to_string(i), 8);
    path.push_back(polka::Hop{std::move(node), static_cast<unsigned>(rng() % 8)});
  }
  return path;
}

void BM_RouteIdComputation(benchmark::State& state) {
  const auto path = make_path(static_cast<std::size_t>(state.range(0)), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(polka::compute_route_id(path));
  }
  state.SetLabel(std::to_string(state.range(0)) + " hops (CRT, control plane)");
}
BENCHMARK(BM_RouteIdComputation)->Arg(3)->Arg(5)->Arg(8)->Arg(16);

void BM_PerHopMod_BitSerial(benchmark::State& state) {
  const auto path = make_path(static_cast<std::size_t>(state.range(0)), 7);
  const auto route = polka::compute_route_id(path);
  const polka::BitSerialCrc crc(path[path.size() / 2].node.poly);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc.remainder(route.value));
  }
  state.SetLabel("data-plane mod, LFSR engine");
}
BENCHMARK(BM_PerHopMod_BitSerial)->Arg(5)->Arg(16);

void BM_PerHopMod_Table(benchmark::State& state) {
  const auto path = make_path(static_cast<std::size_t>(state.range(0)), 7);
  const auto route = polka::compute_route_id(path);
  const polka::TableCrc crc(path[path.size() / 2].node.poly);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc.remainder_bits(route.value));
  }
  state.SetLabel("data-plane mod, table CRC engine");
}
BENCHMARK(BM_PerHopMod_Table)->Arg(5)->Arg(16);

void BM_PerHopMod_LabelFold(benchmark::State& state) {
  const auto path = make_path(static_cast<std::size_t>(state.range(0)), 7);
  const auto route = polka::compute_route_id(path);
  const polka::LabelFoldEngine fold(path[path.size() / 2].node.poly);
  // Long routes exceed 64 bits; the fold engine works on the wire
  // label, so benchmark it on the route's low 64 coefficient bits.
  const std::uint64_t label =
      (route.value % hp::gf2::Poly::monomial(64)).to_uint64();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fold.remainder(label));
  }
  state.SetLabel("data-plane mod, uint64 fold engine");
}
BENCHMARK(BM_PerHopMod_LabelFold)->Arg(5)->Arg(16);

/// Shared 10-router chain used by the end-to-end walks.
polka::PolkaFabric make_chain_fabric(std::size_t n) {
  polka::PolkaFabric fabric;
  for (std::size_t i = 0; i < n; ++i) {
    fabric.add_node("r" + std::to_string(i), 4);
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    fabric.connect(i, 1, i + 1);
  }
  return fabric;
}

/// How a node stages routeID mod nodeID in a scalar walk.
enum class ModEngine {
  kBitSerial,  ///< reference LFSR (any degree)
  kTable,      ///< byte-at-a-time table CRC (degree <= 56)
  kDirect,     ///< exact gf2::Poly division, as PolkaFabric::forward
};

/// Scalar packet walk over a wired fabric with one remainder engine per
/// node, the way each switch of a P4 deployment holds its own CRC unit.
class EngineWalk {
 public:
  EngineWalk(const polka::PolkaFabric& fabric, ModEngine engine)
      : fabric_(&fabric), engine_(engine) {
    for (std::size_t i = 0; i < fabric.node_count(); ++i) {
      const Poly& id = fabric.node(i).poly;
      if (engine == ModEngine::kBitSerial) bit_serial_.emplace_back(id);
      if (engine == ModEngine::kTable) table_.emplace_back(id);
    }
  }

  /// Walk `route` from `first` until its port is unwired (egress) or
  /// `max_hops` folds were taken (ttl_expired).
  [[nodiscard]] polka::PacketResult forward(const polka::RouteId& route,
                                            std::size_t first,
                                            std::size_t max_hops = 64) const {
    polka::PacketResult r;
    std::size_t node = first;
    for (std::size_t hop = 1; hop <= max_hops; ++hop) {
      const unsigned port = port_at(route, node);
      r.egress_node = static_cast<std::uint32_t>(node);
      r.egress_port = port;
      r.hops = static_cast<std::uint32_t>(hop);
      const auto next = fabric_->neighbour(node, port);
      if (!next) return r;
      node = *next;
    }
    r.ttl_expired = true;
    return r;
  }

 private:
  [[nodiscard]] unsigned port_at(const polka::RouteId& route,
                                 std::size_t node) const {
    switch (engine_) {
      case ModEngine::kBitSerial:
        return polka::polynomial_port(bit_serial_[node].remainder(route.value));
      case ModEngine::kTable:
        return polka::polynomial_port(table_[node].remainder(route.value));
      case ModEngine::kDirect:
        return polka::output_port(route, fabric_->node(node));
    }
    return 0;
  }

  const polka::PolkaFabric* fabric_;
  ModEngine engine_;
  std::vector<polka::BitSerialCrc> bit_serial_;
  std::vector<polka::TableCrc> table_;
};

void BM_FabricEndToEnd(benchmark::State& state) {
  const auto fabric = make_chain_fabric(10);
  std::vector<std::size_t> nodes(10);
  for (std::size_t i = 0; i < 10; ++i) nodes[i] = i;
  const auto route = fabric.route_for_path(nodes, 0U);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fabric.forward(route, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("10-hop PolkaFabric::forward trace (items = packets)");
}
BENCHMARK(BM_FabricEndToEnd);

void BM_FabricScalar_Engine(benchmark::State& state) {
  const auto engine = static_cast<ModEngine>(state.range(0));
  const polka::PolkaFabric fabric = make_chain_fabric(10);
  const EngineWalk walk(fabric, engine);
  std::vector<std::size_t> nodes(10);
  for (std::size_t i = 0; i < 10; ++i) nodes[i] = i;
  const auto route = fabric.route_for_path(nodes, 0U);
  for (auto _ : state) {
    benchmark::DoNotOptimize(walk.forward(route, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  switch (engine) {
    case ModEngine::kBitSerial: state.SetLabel("scalar, LFSR"); break;
    case ModEngine::kTable: state.SetLabel("scalar, table CRC"); break;
    case ModEngine::kDirect: state.SetLabel("scalar, gf2 divide"); break;
  }
}
BENCHMARK(BM_FabricScalar_Engine)
    ->Arg(static_cast<int>(ModEngine::kBitSerial))
    ->Arg(static_cast<int>(ModEngine::kTable))
    ->Arg(static_cast<int>(ModEngine::kDirect));

void BM_FabricBatch_Uint64(benchmark::State& state) {
  const auto fabric = make_chain_fabric(10);
  std::vector<std::size_t> nodes(10);
  for (std::size_t i = 0; i < 10; ++i) nodes[i] = i;
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::vector<polka::RouteLabel> labels(batch);
  for (unsigned egress = 0; egress < 4; ++egress) {
    const auto route = fabric.route_for_path(nodes, egress);
    for (std::size_t i = egress; i < batch; i += 4) {
      labels[i] = polka::pack_label_checked(route);
    }
  }
  const auto& fast = fabric.compiled();
  std::vector<polka::PacketResult> results(batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fast.forward_batch(
        labels, 0, std::span<polka::PacketResult>(results)));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch));
  state.SetLabel("batched uint64 fast path (items = packets)");
}
BENCHMARK(BM_FabricBatch_Uint64)->Arg(16)->Arg(256)->Arg(4096);

/// Headline comparison printed before the benchmark table: packets/sec
/// for the bit-serial scalar baseline vs the batched uint64 engine on
/// the same 10-hop walk (the ISSUE acceptance asks for >= 5x).
void print_packets_per_sec_summary() {
  const std::size_t n = 10;
  const polka::PolkaFabric fabric = make_chain_fabric(n);
  const EngineWalk bit_serial(fabric, ModEngine::kBitSerial);
  std::vector<std::size_t> nodes(n);
  for (std::size_t i = 0; i < n; ++i) nodes[i] = i;
  const auto route = fabric.route_for_path(nodes, 0U);

  const std::size_t packets = 20000;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < packets; ++i) {
    benchmark::DoNotOptimize(bit_serial.forward(route, 0));
  }
  const auto t1 = std::chrono::steady_clock::now();

  const auto& fast = fabric.compiled();
  std::vector<polka::RouteLabel> labels(packets,
                                        polka::pack_label_checked(route));
  std::vector<polka::PacketResult> results(packets);
  const auto t2 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(
      fast.forward_batch(labels, 0, std::span<polka::PacketResult>(results)));
  const auto t3 = std::chrono::steady_clock::now();

  const double scalar_s = std::chrono::duration<double>(t1 - t0).count();
  const double batch_s = std::chrono::duration<double>(t3 - t2).count();
  const double scalar_pps = static_cast<double>(packets) / scalar_s;
  const double batch_pps = static_cast<double>(packets) / batch_s;
  std::cout << "packets/sec, 10-hop walk: bit-serial scalar " << scalar_pps
            << ", batched uint64 " << batch_pps << " (speedup "
            << batch_pps / scalar_pps << "x)\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== Fig 1: PolKA polynomial source routing ===\n";
  // The paper's worked example: routeID 10000 at s2 = t^2+t+1 -> port 2.
  const polka::NodeId s1{"s1", Poly(0b11), 2};
  const polka::NodeId s2{"s2", Poly(0b111), 4};
  const polka::NodeId s3{"s3", Poly(0b1011), 8};
  const auto route = polka::compute_route_id({{s1, 1}, {s2, 2}, {s3, 6}});
  std::cout << "paper example routeID = " << route.value.to_binary_string()
            << " (paper: 10000); s2 recovers port "
            << polka::output_port(route, s2) << " (paper: 2)\n\n";

  print_packets_per_sec_summary();

  return hp::benchjson::run_and_export(argc, argv, "fig1_polka_forwarding");
}
