// Route-compilation throughput, per topology family and size, across
// the compiler's evolution:
//
//   per_path_poly  -- the retained pre-tentpole baseline: one route per
//                     ordered pair, one heap-allocating Poly
//                     extended-GCD CRT fold per hop (the exact
//                     algorithm BuiltFabric::route() shipped with the
//                     scenario engine).
//   per_path       -- today's BuiltFabric::route(): same O(n * depth)
//                     per-source algorithm, folds running on the
//                     fixed-width gf2 kernels.
//   tree           -- BuiltFabric::compile_all_pairs(1): one
//                     shortest-path-tree walk per source, O(n) CRT
//                     steps per source.
//   tree_parallel  -- compile_all_pairs(hardware threads).
//   protect        -- BuiltFabric::enable_protection(1) after
//                     compile_all_pairs: one disjoint search per pair
//                     on the fabric's one search, then one
//                     prefix-shared compile per source.  Items are
//                     backups; the counters report us_per_backup and
//                     folds_per_backup (CRT folds the compile made).
//   search         -- the searches alone behind protect: per source,
//                     each destination's backup search on one
//                     netsim::PathSearch with its primary's duplex
//                     links banned, as enable_protection runs them.
//                     Items are searches; counter ns_per_search.
//
// Items processed == routes compiled (backups for protect), so compare
// `items_per_second` across the route variants.  On deep families (ring/torus at >= 256 nodes) the
// quadratic per-path variants would run for minutes, so they compile
// all destinations from a capped number of sources; routes/sec stays
// comparable because these families are vertex-symmetric.

#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gf2/poly.hpp"
#include "netsim/paths.hpp"
#include "netsim/topology.hpp"
#include "polka/route.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/failure_injector.hpp"
#include "scenario/topologies.hpp"

namespace {

using hp::netsim::NodeIndex;
using hp::netsim::Topology;
using hp::scenario::BuiltFabric;

/// Sources the per-path variants compile from before extrapolating
/// (capped so big rings finish in CI; small fabrics run the full
/// quadratic).
constexpr std::size_t kPerPathSourceCap = 8;

/// The PR-2 per-path CRT fold, retained verbatim as the baseline: plain
/// Poly arithmetic, one extended-GCD (inverse_mod) per hop.
hp::gf2::Poly poly_crt(const std::vector<hp::gf2::Congruence>& system) {
  hp::gf2::Poly solution{};
  hp::gf2::Poly modulus{1};
  for (const auto& c : system) {
    const hp::gf2::Poly diff = (c.residue + solution) % c.modulus;
    const hp::gf2::Poly inv = hp::gf2::inverse_mod(modulus, c.modulus);
    const hp::gf2::Poly k = (diff * inv) % c.modulus;
    solution = solution + modulus * k;
    modulus = modulus * c.modulus;
    solution = solution % modulus;
  }
  return solution;
}

void run_per_path_poly(benchmark::State& state, const Topology& topo) {
  const BuiltFabric built(topo);
  const auto& routers = built.routers();
  const std::size_t sources =
      std::min<std::size_t>(routers.size(), kPerPathSourceCap);
  std::size_t routes = 0;
  for (auto _ : state) {
    routes = 0;
    for (std::size_t i = 0; i < sources; ++i) {
      const auto tree = hp::netsim::shortest_path_tree(
          topo, routers[i], hp::netsim::PathMetric::kHopCount);
      for (const NodeIndex dst : routers) {
        if (dst == routers[i]) continue;
        const auto path = hp::netsim::tree_path(tree, topo, dst);
        if (!path) continue;
        std::vector<hp::gf2::Congruence> system;
        const auto nodes = hp::netsim::path_nodes(topo, *path);
        for (std::size_t h = 0; h + 1 < nodes.size(); ++h) {
          const auto fv = built.fabric_index(nodes[h]);
          const auto port = built.fabric().port_between(
              fv, built.fabric_index(nodes[h + 1]));
          system.push_back({hp::polka::port_polynomial(*port),
                            built.fabric().node(fv).poly});
        }
        const auto fd = built.fabric_index(nodes.back());
        system.push_back(
            {hp::polka::port_polynomial(built.egress_port(fd)),
             built.fabric().node(fd).poly});
        const auto id = poly_crt(system);
        benchmark::DoNotOptimize(id);
        ++routes;
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(routes) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["sources"] = static_cast<double>(sources);
}

void run_per_path(benchmark::State& state, const Topology& topo) {
  std::size_t routes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    BuiltFabric built(topo);
    state.ResumeTiming();
    routes = 0;
    const auto& routers = built.routers();
    const std::size_t sources =
        std::min<std::size_t>(routers.size(), kPerPathSourceCap);
    for (std::size_t i = 0; i < sources; ++i) {
      for (const NodeIndex dst : routers) {
        if (dst == routers[i]) continue;
        routes += built.route(routers[i], dst) != nullptr;
      }
    }
    benchmark::DoNotOptimize(routes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(routes) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["sources"] = static_cast<double>(
      std::min<std::size_t>(topo.node_count(), kPerPathSourceCap));
}

void run_tree(benchmark::State& state, const Topology& topo,
              unsigned threads) {
  std::size_t routes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    BuiltFabric built(topo);
    state.ResumeTiming();
    routes = built.compile_all_pairs(threads);
    benchmark::DoNotOptimize(routes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(routes) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["threads"] = threads;
}

void run_protect(benchmark::State& state, const Topology& topo) {
  std::size_t backups = 0;
  std::size_t folds = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    BuiltFabric built(topo);
    (void)built.compile_all_pairs(1);
    const std::size_t before = built.compile_stats().crt_steps;
    state.ResumeTiming();
    const auto t0 = std::chrono::steady_clock::now();
    backups = built.enable_protection(1);
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    folds = built.compile_stats().crt_steps - before;
    benchmark::DoNotOptimize(backups);
  }
  const auto planned =
      static_cast<double>(backups) * static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(planned));
  state.counters["us_per_backup"] =
      planned == 0.0 ? 0.0 : seconds * 1e6 / planned;
  state.counters["folds_per_backup"] =
      backups == 0 ? 0.0
                   : static_cast<double>(folds) / static_cast<double>(backups);
}

void run_search(benchmark::State& state, const Topology& topo) {
  // Every router pair's primary, from its source's tree (not timed).
  struct Query {
    NodeIndex src;
    NodeIndex dst;
    hp::netsim::Path primary;
  };
  std::vector<Query> queries;
  hp::netsim::PathSearch search(topo, hp::netsim::PathMetric::kHopCount);
  for (NodeIndex src = 0; src < topo.node_count(); ++src) {
    search.run(src);
    const hp::netsim::PathTree tree = search.tree();
    for (NodeIndex dst = 0; dst < topo.node_count(); ++dst) {
      if (dst == src) continue;
      if (auto path = hp::netsim::tree_path(tree, topo, dst)) {
        queries.push_back({src, dst, std::move(*path)});
      }
    }
  }
  std::vector<hp::netsim::Path> backups;
  std::size_t found = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const Query& q : queries) {
      for (const hp::netsim::LinkIndex l : q.primary) search.ban_duplex(l);
      backups.clear();
      found += search.disjoint_paths(q.src, q.dst, 1, backups);
      for (const hp::netsim::LinkIndex l : q.primary) search.unban_duplex(l);
    }
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    benchmark::DoNotOptimize(found);
  }
  const auto searches = static_cast<double>(queries.size()) *
                        static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(searches));
  state.counters["ns_per_search"] =
      searches == 0.0 ? 0.0 : seconds * 1e9 / searches;
}

void run_storm(benchmark::State& state, const Topology& topo) {
  hp::scenario::FailureInjectorParams flap;
  flap.preset = hp::scenario::FailurePreset::kFlap;
  flap.seed = 1;
  flap.count = 16;
  const auto schedule = hp::scenario::make_failure_schedule(topo, flap);
  std::size_t pairs = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    BuiltFabric built(topo);
    (void)built.compile_all_pairs(1);
    (void)built.enable_protection(1);
    state.ResumeTiming();
    const auto t0 = std::chrono::steady_clock::now();
    for (const hp::scenario::LinkFailure& event : schedule) {
      const auto report = event.restore ? built.restore_link(event.a, event.b)
                                        : built.apply_failure(event.a, event.b);
      pairs += report.affected.size();
      benchmark::DoNotOptimize(built.repair_pending());
    }
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  }
  const auto events = static_cast<double>(schedule.size()) *
                      static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["us_per_event"] = events == 0.0 ? 0.0 : seconds * 1e6 / events;
  state.counters["pairs_per_event"] =
      events == 0.0 ? 0.0 : static_cast<double>(pairs) / events;
}

Topology make_family(const std::string& family, std::size_t n) {
  if (family == "ring") {
    return hp::scenario::make_ring(static_cast<unsigned>(n));
  }
  if (family == "torus") {
    // Square-ish torus with ~n routers.
    unsigned rows = 2;
    while ((rows + 1) * (rows + 1) <= n) ++rows;
    return hp::scenario::make_torus(rows, static_cast<unsigned>(n / rows));
  }
  if (family == "leaf_spine") {
    const unsigned spines = 4;
    return hp::scenario::make_leaf_spine(spines,
                                         static_cast<unsigned>(n) - spines);
  }
  if (family == "fat_tree") {
    // 5k^2/4 switches: k=4 -> 20, k=8 -> 80, k=12 -> 180.
    unsigned k = 4;
    while (5 * (k + 4) * (k + 4) / 4 <= n) k += 4;
    return hp::scenario::make_fat_tree(k);
  }
  throw std::invalid_argument("unknown family " + family);
}

void BM_PerPathPolyAllPairs(benchmark::State& state,
                            const std::string& family) {
  run_per_path_poly(state,
                    make_family(family, static_cast<std::size_t>(state.range(0))));
}

void BM_PerPathAllPairs(benchmark::State& state, const std::string& family) {
  run_per_path(state,
               make_family(family, static_cast<std::size_t>(state.range(0))));
}

void BM_TreeAllPairs(benchmark::State& state, const std::string& family) {
  run_tree(state, make_family(family, static_cast<std::size_t>(state.range(0))),
           1);
}

void BM_TreeAllPairsParallel(benchmark::State& state,
                             const std::string& family) {
  run_tree(state, make_family(family, static_cast<std::size_t>(state.range(0))),
           std::max(1u, std::thread::hardware_concurrency()));
}

void BM_Protect(benchmark::State& state, const std::string& family) {
  run_protect(state,
              make_family(family, static_cast<std::size_t>(state.range(0))));
}

void BM_Search(benchmark::State& state, const std::string& family) {
  run_search(state,
             make_family(family, static_cast<std::size_t>(state.range(0))));
}

void BM_Storm(benchmark::State& state, const std::string& family) {
  run_storm(state,
            make_family(family, static_cast<std::size_t>(state.range(0))));
}

void register_family(const std::string& family,
                     std::initializer_list<std::int64_t> sizes) {
  for (const std::int64_t n : sizes) {
    benchmark::RegisterBenchmark(
        ("per_path_poly/" + family).c_str(),
        [family](benchmark::State& s) { BM_PerPathPolyAllPairs(s, family); })
        ->Arg(n)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("per_path/" + family).c_str(),
        [family](benchmark::State& s) { BM_PerPathAllPairs(s, family); })
        ->Arg(n)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("tree/" + family).c_str(),
        [family](benchmark::State& s) { BM_TreeAllPairs(s, family); })
        ->Arg(n)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_family("ring", {64, 256});
  register_family("torus", {64, 256});
  register_family("leaf_spine", {64, 256});
  register_family("fat_tree", {80});
  for (const std::string family : {"ring", "torus"}) {
    benchmark::RegisterBenchmark(
        ("tree_parallel/" + family).c_str(),
        [family](benchmark::State& s) { BM_TreeAllPairsParallel(s, family); })
        ->Arg(256)
        ->Unit(benchmark::kMillisecond);
  }
  for (const auto& [family, n] :
       {std::pair<std::string, std::int64_t>{"torus", 64},
        {"torus", 256},
        {"ring", 256}}) {
    benchmark::RegisterBenchmark(
        ("protect/" + family).c_str(),
        [family](benchmark::State& s) { BM_Protect(s, family); })
        ->Arg(n)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark(
      "search/torus", [](benchmark::State& s) { BM_Search(s, "torus"); })
      ->Arg(256)
      ->Unit(benchmark::kMillisecond);
  for (const std::int64_t n : {64, 256}) {
    benchmark::RegisterBenchmark(
        "storm/torus", [](benchmark::State& s) { BM_Storm(s, "torus"); })
        ->Arg(n)
        ->Unit(benchmark::kMillisecond);
  }
  return hp::benchjson::run_and_export(argc, argv, "route_compile");
}
