#include "core/runtime.hpp"

namespace hp::core {

FrameworkRuntime::FrameworkRuntime(hp::netsim::Topology topo,
                                   std::vector<TunnelPlan> plans,
                                   HecateConfig hecate_config,
                                   double telemetry_interval_s)
    : sim_(std::make_unique<hp::netsim::Simulator>(std::move(topo))),
      hecate_(std::move(hecate_config)) {
  polka_ = std::make_unique<PolkaService>(sim_->topology(), edge_);
  controller_ =
      std::make_unique<Controller>(*sim_, store_, hecate_, *polka_);
  dashboard_ = std::make_unique<Dashboard>(*sim_);

  for (const TunnelPlan& plan : plans) {
    const Tunnel& tunnel = polka_->define_tunnel(
        plan.id, plan.routers, plan.egress_host, plan.destination_ip);
    polka_->verify_tunnel(plan.id);  // data-plane self-check
    controller_->register_candidate(plan.id);

    hp::telemetry::PathAgentConfig agent_config;
    agent_config.path_name = tunnel.name;
    agent_config.path = tunnel.netsim_path;
    agent_config.interval_s = telemetry_interval_s;
    hp::telemetry::PathAgent agent(agent_config, store_);
    agent.start(*sim_, 0.0);
  }
}

FrameworkRuntime FrameworkRuntime::global_p4_lab(HecateConfig hecate_config) {
  std::vector<TunnelPlan> plans{
      TunnelPlan{1, {"MIA", "SAO", "AMS"}, "host2", "20.20.0.7"},
      TunnelPlan{2, {"MIA", "CHI", "AMS"}, "host2", "20.20.0.7"},
      TunnelPlan{3, {"MIA", "CAL", "CHI", "AMS"}, "host2", "20.20.0.7"},
  };
  return FrameworkRuntime(hp::netsim::make_global_p4_lab(), std::move(plans),
                          std::move(hecate_config));
}

std::size_t FrameworkRuntime::train_hecate_from_telemetry() {
  // Rebuild Hecate's view from the Telemetry Service each training
  // round (the Controller "retrieves the stored telemetry data ... and
  // provides it to the Optimizer", Fig 4).  The member is reassigned in
  // place, so the Controller's reference stays valid.
  hecate_ = HecateService(hecate_.config());
  std::size_t trained = 0;
  for (const auto& [id, tunnel] : polka_->tunnels()) {
    const std::string series = Controller::bandwidth_series(tunnel);
    const auto values = store_.last_values(series, store_.size(series));
    if (values.size() < hecate_.config().history + 2) continue;
    hecate_.load_series(series, values);
    hecate_.fit(series);
    ++trained;
  }
  return trained;
}

std::vector<std::size_t> FrameworkRuntime::admit_pending(double at_s,
                                                         Objective objective) {
  std::vector<std::size_t> admitted;
  while (!scheduler_.empty()) {
    admitted.push_back(
        controller_->handle_new_flow(scheduler_.next(), at_s, objective));
  }
  return admitted;
}

}  // namespace hp::core
