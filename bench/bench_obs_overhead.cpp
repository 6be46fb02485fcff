// Observability-overhead pin: the same ring-1024 replay with the
// metric registry detached vs attached.
//
//   replay/ring1024/metrics_off  -- replay_shards with metrics = nullptr
//   replay/ring1024/metrics_on   -- same stream, a MetricRegistry wired
//
// Both report items_per_second = packets/sec, so the CI artifact
// (BENCH_obs_overhead.json) carries the two pps numbers side by side
// and a diff can assert the budget: metrics on must stay within 2% of
// metrics off.  The registry cost is one sharded relaxed-atomic add per
// 1024-packet flush plus per-slice bookkeeping, so the expected gap is
// well under the budget -- this bench exists to catch regressions that
// move metric updates into the per-packet loop.

#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/runner.hpp"
#include "scenario/topologies.hpp"
#include "scenario/traffic.hpp"

namespace {

using hp::scenario::BuiltFabric;
using hp::scenario::PacketStream;

constexpr std::size_t kMaxHops = 2048;

struct Workbench {
  std::unique_ptr<BuiltFabric> built;
  PacketStream stream;
};

Workbench& cached_workbench() {
  static Workbench* wb = [] {
    auto* w = new Workbench;
    w->built = std::make_unique<BuiltFabric>(hp::scenario::make_ring(1024));
    hp::scenario::TrafficParams params;
    params.pattern = hp::scenario::TrafficPattern::kUniformRandom;
    params.packets = 1 << 14;
    params.max_pairs = 64;
    params.seed = 99;
    w->stream = hp::scenario::generate_traffic(*w->built, params);
    if (w->stream.unreachable_pairs != 0) {
      throw std::runtime_error("ring1024: stream skipped pairs");
    }
    return w;
  }();
  return *wb;
}

void run_replay(benchmark::State& state, bool with_metrics) {
  const Workbench& wb = cached_workbench();
  const hp::polka::CompiledFabric fast(wb.built->fabric());
  const hp::scenario::SegmentTable table{wb.stream.seg_labels,
                                         wb.stream.seg_waypoints};
  hp::obs::MetricRegistry registry;
  hp::obs::MetricRegistry* metrics = with_metrics ? &registry : nullptr;
  std::size_t packets = 0;
  for (auto _ : state) {
    const hp::scenario::ScenarioReport report = hp::scenario::replay_shards(
        fast, wb.stream.pairs, wb.stream.pair, {}, table, /*threads=*/1,
        /*batch_size=*/1024, kMaxHops, metrics);
    if (report.wrong_egress != 0 || report.ttl_expired != 0) {
      state.SkipWithError("ring1024: replay diverged");
      return;
    }
    packets = report.packets;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets) *
                          static_cast<std::int64_t>(state.iterations()));
  if (with_metrics) {
    state.counters["replay_packets_counted"] = static_cast<double>(
        registry.snapshot().counter_or("replay.packets"));
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::RegisterBenchmark(
      "replay/ring1024/metrics_off",
      [](benchmark::State& s) { run_replay(s, false); })
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "replay/ring1024/metrics_on",
      [](benchmark::State& s) { run_replay(s, true); })
      ->Unit(benchmark::kMillisecond);
  return hp::benchjson::run_and_export(argc, argv, "obs_overhead");
}
