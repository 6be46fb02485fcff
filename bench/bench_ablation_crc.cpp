// Ablation: data-plane mod engines.  PolKA's claim is that the mod is
// CRC-hardware-friendly; in software the staged table engine should beat
// the bit-serial LFSR by roughly the 8x staging factor, with the exact
// Euclidean division as the reference.  Sweeps generator degree and
// routeID length.

#include <benchmark/benchmark.h>

#include <random>

#include "bench_json.hpp"
#include "gf2/irreducible.hpp"
#include "polka/crc.hpp"

namespace {

using hp::gf2::Poly;

Poly random_route(int bits, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Poly p;
  for (int i = 0; i < bits - 1; ++i) {
    if (rng() & 1) p.set_coeff(static_cast<unsigned>(i), true);
  }
  p.set_coeff(static_cast<unsigned>(bits - 1), true);
  return p;
}

/// The smallest irreducible of `degree`.  A direct Rabin-test scan, so
/// degrees past irreducible_of_degree's exhaustive cap (24) work too.
Poly generator_of_degree(unsigned degree) {
  for (std::uint64_t low = 0;; ++low) {
    Poly g(low);
    g.set_coeff(degree, true);
    if (hp::gf2::is_irreducible(g)) return g;
  }
}

void BM_Mod_BitSerial(benchmark::State& state) {
  const hp::polka::BitSerialCrc crc(
      generator_of_degree(static_cast<unsigned>(state.range(0))));
  const Poly route = random_route(static_cast<int>(state.range(1)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc.remainder(route));
  }
  state.SetLabel("deg=" + std::to_string(state.range(0)) +
                 " routeID=" + std::to_string(state.range(1)) + "b");
}
BENCHMARK(BM_Mod_BitSerial)
    ->Args({4, 32})->Args({8, 32})->Args({16, 32})
    ->Args({8, 64})->Args({8, 128})->Args({8, 256});

void BM_Mod_Table(benchmark::State& state) {
  const hp::polka::TableCrc crc(
      generator_of_degree(static_cast<unsigned>(state.range(0))));
  const Poly route = random_route(static_cast<int>(state.range(1)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc.remainder_bits(route));
  }
  state.SetLabel("deg=" + std::to_string(state.range(0)) +
                 " routeID=" + std::to_string(state.range(1)) + "b");
}
BENCHMARK(BM_Mod_Table)
    ->Args({4, 32})->Args({8, 32})->Args({16, 32})
    ->Args({8, 64})->Args({8, 128})->Args({8, 256});

void BM_Mod_EuclideanReference(benchmark::State& state) {
  const Poly g = generator_of_degree(static_cast<unsigned>(state.range(0)));
  const Poly route = random_route(static_cast<int>(state.range(1)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(route % g);
  }
  state.SetLabel("deg=" + std::to_string(state.range(0)) +
                 " routeID=" + std::to_string(state.range(1)) + "b");
}
BENCHMARK(BM_Mod_EuclideanReference)->Args({8, 32})->Args({8, 256});

void BM_TableConstruction(benchmark::State& state) {
  const Poly g = generator_of_degree(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hp::polka::TableCrc(g));
  }
  state.SetLabel("one-time per-node setup");
}
BENCHMARK(BM_TableConstruction)->Arg(8)->Arg(16)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  return hp::benchjson::run_and_export(argc, argv, "ablation_crc");
}
