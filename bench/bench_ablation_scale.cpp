// Ablation: scaling from 10s to 100s of routers (the Section II-A
// concern: TE "has limitations in dynamic large network topology as
// networks grow from 10s to 100s of routers").
//
// Random ring-plus-chords WANs of growing size; for each size we
// measure what actually grows in this architecture:
//   * routeID bit length (the PolKA header cost) for k-shortest paths,
//   * CRT routeID computation time (control plane),
//   * per-hop mod time (data plane -- should stay flat),
//   * the k-path min-max LP solve time (optimizer),
//   * batched uint64 fast-path throughput across batch sizes.

#include <chrono>
#include <iomanip>
#include <iostream>
#include <random>
#include <span>
#include <string>

#include "core/objective.hpp"
#include "obs/export.hpp"
#include "netsim/paths.hpp"
#include "polka/crc.hpp"
#include "polka/fastpath.hpp"
#include "polka/forwarding.hpp"
#include "polka/label.hpp"

namespace {

using namespace hp::netsim;

/// Connected random WAN: a ring of `n` routers plus n/2 random chords.
Topology make_wan(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> cap(5.0, 100.0);
  std::uniform_real_distribution<double> delay(1.0, 30.0);
  Topology topo;
  for (std::size_t i = 0; i < n; ++i) {
    topo.add_node("r" + std::to_string(i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    topo.add_duplex_link(i, (i + 1) % n, cap(rng), delay(rng));
  }
  for (std::size_t c = 0; c < n / 2; ++c) {
    const NodeIndex a = rng() % n;
    const NodeIndex b = rng() % n;
    if (a == b || topo.link_between(a, b)) continue;
    topo.add_duplex_link(a, b, cap(rng), delay(rng));
  }
  return topo;
}

template <typename F>
double time_us(F&& fn, int repeats = 50) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < repeats; ++i) fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - start).count() /
         repeats;
}

}  // namespace

int main() {
  std::cout << "=== Ablation: topology scale (10s to 100s of routers) "
               "===\n\n";
  std::cout << "routers  hops  routeID(bits)  CRT(us)  per-hop mod(ns)  "
               "3-path LP(us)\n";
  std::cout << std::fixed << std::setprecision(1);
  hp::obs::BenchReport report("ablation_scale");

  for (const std::size_t n : {10U, 20U, 40U, 80U, 160U}) {
    const Topology topo = make_wan(n, n * 31 + 7);
    // Mirror into a PolKA fabric.
    hp::polka::PolkaFabric fabric;
    for (NodeIndex i = 0; i < topo.node_count(); ++i) {
      fabric.add_node(topo.node(i).name,
                      static_cast<unsigned>(topo.outgoing(i).size()) + 1);
    }
    for (NodeIndex i = 0; i < topo.node_count(); ++i) {
      const auto& out = topo.outgoing(i);
      for (unsigned p = 0; p < out.size(); ++p) {
        fabric.connect(i, p, topo.link(out[p]).to);
      }
    }

    // Longest of the 3 shortest paths across the diameter-ish pair.
    const auto paths = k_shortest_paths(topo, 0, n / 2, 3);
    const Path& longest = paths.back();
    const auto nodes = path_nodes(topo, longest);
    std::vector<std::size_t> fabric_path(nodes.begin(), nodes.end());
    const unsigned egress =
        static_cast<unsigned>(topo.outgoing(nodes.back()).size());

    const auto route = fabric.route_for_path(fabric_path, egress);
    const double crt_us = time_us(
        [&] { (void)fabric.route_for_path(fabric_path, egress); }, 20);

    const hp::polka::TableCrc crc(fabric.node(fabric_path[1]).poly);
    const double mod_ns =
        time_us([&] { (void)crc.remainder_bits(route.value); }, 2000) * 1e3;

    std::vector<double> capacities;
    for (const auto& p : paths) {
      capacities.push_back(topo.path_bottleneck_mbps(p));
    }
    double demand = 0.0;
    for (const double c : capacities) demand += 0.6 * c;
    const double lp_us = time_us(
        [&] { (void)hp::core::solve_k_path_min_max(demand, capacities); },
        200);

    std::cout << std::setw(7) << n << std::setw(6) << nodes.size() - 1
              << std::setw(14) << route.bit_length() << std::setw(9)
              << crt_us << std::setw(17) << mod_ns << std::setw(14) << lp_us
              << '\n';
    hp::obs::BenchResult& r = report.add(
        "per_hop_mod_ns/n" + std::to_string(n), mod_ns, "ns");
    r.counters.emplace_back("routeid_bits",
                            static_cast<double>(route.bit_length()));
    r.counters.emplace_back("crt_us", crt_us);
    r.counters.emplace_back("lp_us", lp_us);
  }

  // --- batched fast-path throughput vs batch size --------------------
  // Fixed 40-router WAN; the shortest route packs into a uint64 label.
  // Sweep the batch size to show where the flat arrays start paying
  // (amortized dispatch + hot fold tables).
  std::cout << "\nbatched uint64 fast path, 40-router WAN "
               "(packets/sec by batch size):\n";
  std::cout << "  batch      Mpkts/s    ns/pkt\n";
  {
    const std::size_t n = 40;
    const Topology topo = make_wan(n, 40 * 31 + 7);
    hp::polka::PolkaFabric fabric;
    for (NodeIndex i = 0; i < topo.node_count(); ++i) {
      fabric.add_node(topo.node(i).name,
                      static_cast<unsigned>(topo.outgoing(i).size()) + 1);
    }
    for (NodeIndex i = 0; i < topo.node_count(); ++i) {
      const auto& out = topo.outgoing(i);
      for (unsigned p = 0; p < out.size(); ++p) {
        fabric.connect(i, p, topo.link(out[p]).to);
      }
    }
    const auto paths = k_shortest_paths(topo, 0, n / 2, 3);
    const auto nodes = path_nodes(topo, paths.front());
    std::vector<std::size_t> fabric_path(nodes.begin(), nodes.end());
    const unsigned egress =
        static_cast<unsigned>(topo.outgoing(nodes.back()).size());
    const auto route = fabric.route_for_path(fabric_path, egress);
    const auto label = hp::polka::pack_label(route);
    if (!label) {
      std::cout << "  (route does not fit a 64-bit label; skipped)\n";
    } else {
      const auto& fast = fabric.compiled();
      for (const std::size_t batch : {1U, 16U, 256U, 4096U, 65536U}) {
        std::vector<hp::polka::RouteLabel> labels(batch, *label);
        std::vector<hp::polka::PacketResult> results(batch);
        // Keep total work roughly constant across batch sizes.
        const int repeats = static_cast<int>(std::max<std::size_t>(
            1, (1u << 18) / batch));
        const double us = time_us(
            [&] {
              (void)fast.forward_batch(
                  labels, 0, std::span<hp::polka::PacketResult>(results));
            },
            repeats);
        const double ns_per_pkt = us * 1e3 / static_cast<double>(batch);
        std::cout << "  " << std::setw(5) << batch << std::setw(13)
                  << 1e3 / ns_per_pkt << std::setw(10) << ns_per_pkt << '\n';
        report.add("fastpath_ns_per_pkt/batch" + std::to_string(batch),
                   ns_per_pkt, "ns");
      }
    }
  }
  std::cout << "wrote " << report.write_default() << '\n';

  std::cout << "\nreading: the per-hop data-plane cost is *flat* in network "
               "size (it depends\nonly on the local nodeID degree and the "
               "routeID length), which is PolKA's\nscaling argument; header "
               "bits and control-plane CRT grow with path length,\nnot with "
               "the router population.\n";
  return 0;
}
