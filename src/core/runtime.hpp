#pragma once
// FrameworkRuntime: wires the whole Hecate-PolKA framework together on
// the emulated testbed -- topology, simulator, telemetry store + agents,
// Hecate service, PolKA service, edge router and Controller -- matching
// the component diagram of Fig 3.
//
// This is the highest-level entry point of the library; the quickstart
// example and the Figs 11/12 benches are thin wrappers over it.

#include <memory>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/dashboard.hpp"
#include "core/hecate.hpp"
#include "core/polka_service.hpp"
#include "freertr/router_service.hpp"
#include "netsim/simulator.hpp"
#include "telemetry/agent.hpp"
#include "telemetry/store.hpp"

namespace hp::core {

/// Tunnel blueprint for runtime construction.
struct TunnelPlan {
  unsigned id = 0;
  std::vector<std::string> routers;
  std::string egress_host = "host2";
  std::string destination_ip = "20.20.0.7";  ///< AMS edge, as in Fig 10
};

class FrameworkRuntime {
 public:
  /// Build on a topology (default: the Fig 9 Global P4 Lab subset) with
  /// the given tunnel plans; every tunnel is registered as a Controller
  /// candidate and gets a telemetry agent sampling available bandwidth
  /// and RTT at `telemetry_interval_s`.
  FrameworkRuntime(hp::netsim::Topology topo, std::vector<TunnelPlan> plans,
                   HecateConfig hecate_config = {},
                   double telemetry_interval_s = 1.0);

  /// Convenience: Fig 9 topology with the three tunnels of experiment 2
  /// (1: MIA-SAO-AMS, 2: MIA-CHI-AMS, 3: MIA-CAL-CHI-AMS).
  [[nodiscard]] static FrameworkRuntime global_p4_lab(
      HecateConfig hecate_config = {});

  [[nodiscard]] hp::netsim::Simulator& simulator() noexcept { return *sim_; }
  [[nodiscard]] hp::telemetry::TimeSeriesStore& store() noexcept {
    return store_;
  }
  [[nodiscard]] HecateService& hecate() noexcept { return hecate_; }
  [[nodiscard]] PolkaService& polka() noexcept { return *polka_; }
  [[nodiscard]] Controller& controller() noexcept { return *controller_; }
  [[nodiscard]] Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] Dashboard& dashboard() noexcept { return *dashboard_; }
  [[nodiscard]] hp::freertr::RouterConfigService& edge() noexcept {
    return edge_;
  }

  /// Train Hecate on the telemetry collected so far for every tunnel
  /// bandwidth series that has enough samples; returns how many models
  /// were (re)trained.
  std::size_t train_hecate_from_telemetry();

  /// Drain the Scheduler: admit every pending request at time `at_s`
  /// with the given objective.  Returns managed-flow indices.
  std::vector<std::size_t> admit_pending(double at_s, Objective objective);

 private:
  std::unique_ptr<hp::netsim::Simulator> sim_;
  hp::telemetry::TimeSeriesStore store_;
  hp::freertr::RouterConfigService edge_{"MIA"};
  HecateService hecate_;
  std::unique_ptr<PolkaService> polka_;
  std::unique_ptr<Controller> controller_;
  Scheduler scheduler_;
  std::unique_ptr<Dashboard> dashboard_;
};

}  // namespace hp::core
