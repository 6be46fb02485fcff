// Fold-kernel shootout: the slice-by-8 table fold vs the PCLMUL
// Barrett fold, on the same streams over the same fabrics.
//
//   replay/<topo>/<kernel>  -- replay_shards over a uniform stream with
//                              the CompiledFabric forced onto one
//                              kernel.  items_per_second = packets/sec;
//                              the state_bytes counter is the
//                              forwarding state the kernel's hot path
//                              drags through cache (table: 16 KB/node,
//                              so ring-1024 carries a ~16 MB table set
//                              that blows L2; clmul-barrett: 32 B/node).
//   fold_one/<kernel>       -- a single node's raw fold, back to back
//                              (latency-bound upper bound on mods/sec).
//
// Every replay is validated (no wrong egress, no hop-cap kills) and
// aborts loudly instead of publishing a number for a broken run.  The
// clmul variants register only when the CPU supports PCLMUL.

#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "gf2/barrett.hpp"
#include "gf2/irreducible.hpp"
#include "polka/fastpath.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/runner.hpp"
#include "scenario/topologies.hpp"
#include "scenario/traffic.hpp"

namespace {

using hp::polka::CompiledFabric;
using hp::polka::FoldKernel;
using hp::scenario::BuiltFabric;
using hp::scenario::PacketStream;

constexpr std::size_t kMaxHops = 2048;

struct Workbench {
  std::unique_ptr<BuiltFabric> built;
  PacketStream stream;
  // One compiled fabric per kernel, so toggling costs nothing per
  // iteration and each variant reports its own state footprint.
  std::map<FoldKernel, std::unique_ptr<CompiledFabric>> compiled;
};

hp::netsim::Topology make_topology(const std::string& which) {
  if (which == "ring1024") return hp::scenario::make_ring(1024);
  if (which == "torus32x32") return hp::scenario::make_torus(32, 32);
  if (which == "fat_tree8") return hp::scenario::make_fat_tree(8);
  if (which == "leaf_spine16x32") return hp::scenario::make_leaf_spine(16, 32);
  if (which == "rr256d4") return hp::scenario::make_random_regular(256, 4, 7);
  throw std::invalid_argument("unknown topology " + which);
}

Workbench& cached_workbench(const std::string& which) {
  static std::map<std::string, Workbench> cache;
  const auto it = cache.find(which);
  if (it != cache.end()) return it->second;

  Workbench wb;
  wb.built = std::make_unique<BuiltFabric>(make_topology(which));
  hp::scenario::TrafficParams params;
  params.pattern = hp::scenario::TrafficPattern::kUniformRandom;
  params.packets = 1 << 14;
  params.max_pairs = 64;
  params.seed = 99;
  wb.stream = hp::scenario::generate_traffic(*wb.built, params);
  if (wb.stream.unreachable_pairs != 0) {
    throw std::runtime_error(which + ": stream skipped pairs");
  }
  wb.compiled.emplace(FoldKernel::kTable,
                      std::make_unique<CompiledFabric>(wb.built->fabric(),
                                                       FoldKernel::kTable));
  if (hp::polka::clmul_fold_supported()) {
    wb.compiled.emplace(
        FoldKernel::kClmulBarrett,
        std::make_unique<CompiledFabric>(wb.built->fabric(),
                                         FoldKernel::kClmulBarrett));
  }
  return cache.emplace(which, std::move(wb)).first->second;
}

void run_replay(benchmark::State& state, const std::string& which,
                FoldKernel kernel) {
  const Workbench& wb = cached_workbench(which);
  const CompiledFabric& fast = *wb.compiled.at(kernel);
  const hp::scenario::SegmentTable table{wb.stream.seg_labels,
                                         wb.stream.seg_waypoints};
  std::size_t packets = 0;
  std::size_t mods = 0;
  for (auto _ : state) {
    const hp::scenario::ScenarioReport report = hp::scenario::replay_shards(
        fast, wb.stream.pairs, wb.stream.pair, {}, table, /*threads=*/1,
        /*batch_size=*/1024, kMaxHops);
    if (report.wrong_egress != 0 || report.ttl_expired != 0) {
      state.SkipWithError((which + ": replay diverged").c_str());
      return;
    }
    packets = report.packets;
    mods += report.mod_operations;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["mods_per_second"] = benchmark::Counter(
      static_cast<double>(mods), benchmark::Counter::kIsRate);
  state.counters["state_bytes"] =
      static_cast<double>(fast.forwarding_state_bytes());
  state.counters["state_bytes_per_node"] =
      static_cast<double>(fast.forwarding_state_bytes()) /
      static_cast<double>(fast.node_count());
}

void run_fold_one(benchmark::State& state, FoldKernel kernel) {
  // A degree-16 generator: representative of mid-sized fabric nodes.
  const hp::gf2::Poly g = hp::gf2::irreducible_of_degree(16).front();
  const hp::polka::LabelFoldEngine table(g);
  const hp::gf2::fixed::Barrett64 constants =
      hp::gf2::fixed::make_barrett(g.to_uint64());
  std::uint64_t label = 0x9E3779B97F4A7C15ull;
  std::uint64_t acc = 0;
  for (auto _ : state) {
    // Feed each fold's output into the next label so the chain is
    // latency-bound like a real walk.
    if (kernel == FoldKernel::kTable) {
      acc = table.remainder(label);
    } else {
      acc = hp::polka::clmul_barrett_remainder(constants, label);
    }
    label = (label << 1) ^ acc ^ 1;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<FoldKernel> kernels{FoldKernel::kTable};
  if (hp::polka::clmul_fold_supported()) {
    kernels.push_back(FoldKernel::kClmulBarrett);
  }
  for (const std::string which : {"ring1024", "torus32x32", "fat_tree8",
                                  "leaf_spine16x32", "rr256d4"}) {
    for (const FoldKernel kernel : kernels) {
      benchmark::RegisterBenchmark(
          ("replay/" + which + "/" + hp::polka::to_string(kernel)).c_str(),
          [which, kernel](benchmark::State& s) { run_replay(s, which, kernel); })
          ->Unit(benchmark::kMillisecond);
    }
  }
  for (const FoldKernel kernel : kernels) {
    benchmark::RegisterBenchmark(
        (std::string("fold_one/") + hp::polka::to_string(kernel)).c_str(),
        [kernel](benchmark::State& s) { run_fold_one(s, kernel); });
  }
  return hp::benchjson::run_and_export(argc, argv, "fold_kernels");
}
