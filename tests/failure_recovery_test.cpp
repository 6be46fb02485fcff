// Failure injection and recovery (paper Section VII future work;
// "robust failure recovery" is an advertised PolKA capability).
// Covers the simulator's link up/down machinery and the Controller's
// refusal to choose a tunnel over a down link.

#include <gtest/gtest.h>

#include <limits>

#include "core/runtime.hpp"

namespace hp::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
using hp::netsim::FlowSpec;
using hp::netsim::LinkIndex;

TEST(LinkFailure, DropsFlowRateToZero) {
  hp::netsim::Topology topo = hp::netsim::make_global_p4_lab();
  const auto path = topo.path_through({"host1", "MIA", "SAO", "AMS", "host2"});
  const LinkIndex mia_sao =
      *topo.link_between(topo.index_of("MIA"), topo.index_of("SAO"));
  hp::netsim::Simulator sim(std::move(topo));
  const auto flow = sim.add_flow(0.0, FlowSpec{"f", path, kInf, 0});
  sim.fail_link(10.0, mia_sao);
  sim.run_until(20.0);
  EXPECT_LT(sim.current_rate(flow), 0.01);
  EXPECT_FALSE(sim.is_link_up(mia_sao));
  // Duplex partner is down too.
  EXPECT_FALSE(sim.is_link_up(mia_sao + 1));
}

TEST(LinkFailure, RestoreRecoversCapacity) {
  hp::netsim::Topology topo = hp::netsim::make_global_p4_lab();
  const auto path = topo.path_through({"host1", "MIA", "SAO", "AMS", "host2"});
  const LinkIndex mia_sao =
      *topo.link_between(topo.index_of("MIA"), topo.index_of("SAO"));
  hp::netsim::Simulator sim(std::move(topo));
  const auto flow = sim.add_flow(0.0, FlowSpec{"f", path, kInf, 0});
  sim.fail_link(10.0, mia_sao);
  sim.restore_link(20.0, mia_sao);
  sim.run_until(30.0);
  EXPECT_TRUE(sim.is_link_up(mia_sao));
  EXPECT_NEAR(sim.current_rate(flow), 20.0, 1e-6);
  // Transfer accounting: ~10 s at 20 Mbps before + ~10 s after = 50 MB.
  EXPECT_NEAR(sim.transferred_mb(flow), 50.0, 0.1);
}

TEST(LinkFailure, IdempotentFailAndRestore) {
  hp::netsim::Topology topo = hp::netsim::make_global_p4_lab();
  const LinkIndex mia_sao =
      *topo.link_between(topo.index_of("MIA"), topo.index_of("SAO"));
  const double original = topo.link(mia_sao).capacity_mbps;
  hp::netsim::Simulator sim(std::move(topo));
  sim.fail_link(1.0, mia_sao);
  sim.fail_link(2.0, mia_sao);  // double-fail must not clobber the save
  sim.restore_link(3.0, mia_sao);
  sim.restore_link(4.0, mia_sao);
  sim.run_until(5.0);
  EXPECT_TRUE(sim.is_link_up(mia_sao));
  EXPECT_DOUBLE_EQ(sim.topology().link(mia_sao).capacity_mbps, original);
}

TEST(LinkFailure, BadIndexThrows) {
  hp::netsim::Simulator sim(hp::netsim::make_global_p4_lab());
  EXPECT_THROW(sim.fail_link(0.0, 999), std::out_of_range);
  EXPECT_THROW(sim.restore_link(0.0, 999), std::out_of_range);
}

TEST(FailureRecovery, ChoiceAvoidsDownTunnels) {
  FrameworkRuntime runtime = FrameworkRuntime::global_p4_lab();
  auto& sim = runtime.simulator();
  // Tunnel 2 is the latency winner; cut MIA-CHI and the choice must
  // shift to a healthy tunnel.
  const auto& topo = sim.topology();
  sim.fail_link(0.0, *topo.link_between(topo.index_of("MIA"),
                                        topo.index_of("CHI")));
  sim.run_until(1.0);
  const unsigned chosen =
      runtime.controller().choose_tunnel(Objective::kMinLatency);
  EXPECT_NE(chosen, 2U);
  EXPECT_TRUE(runtime.controller().tunnel_healthy(chosen));
}

}  // namespace
}  // namespace hp::core
