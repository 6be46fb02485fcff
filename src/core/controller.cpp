#include "core/controller.hpp"

#include <limits>
#include <stdexcept>

namespace hp::core {

FlowRequest Scheduler::next() {
  if (pending_.empty()) throw std::out_of_range("Scheduler: no requests");
  FlowRequest request = std::move(pending_.front());
  pending_.pop_front();
  return request;
}

Controller::Controller(hp::netsim::Simulator& sim,
                       hp::telemetry::TimeSeriesStore& store,
                       HecateService& hecate, PolkaService& polka)
    : sim_(&sim), store_(&store), hecate_(&hecate), polka_(&polka) {}

void Controller::register_candidate(unsigned tunnel_id) {
  if (!polka_->has_tunnel(tunnel_id)) {
    throw std::invalid_argument("register_candidate: unknown tunnel " +
                                std::to_string(tunnel_id));
  }
  candidates_.push_back(tunnel_id);
}

bool Controller::tunnel_healthy(unsigned tunnel_id) const {
  for (const hp::netsim::LinkIndex l :
       polka_->tunnel(tunnel_id).netsim_path) {
    if (!sim_->is_link_up(l)) return false;
  }
  return true;
}

unsigned Controller::choose_tunnel(Objective objective) const {
  if (candidates_.empty()) {
    throw std::logic_error("Controller: no candidate tunnels registered");
  }
  // Down tunnels never win; if everything is down, fall back to the
  // full list (the caller will see zero throughput either way).
  std::vector<unsigned> pool;
  for (const unsigned id : candidates_) {
    if (tunnel_healthy(id)) pool.push_back(id);
  }
  if (pool.empty()) pool = candidates_;

  switch (objective) {
    case Objective::kFirstConfigured:
      return pool.front();

    case Objective::kMinLatency: {
      // Lowest current RTT over the tunnel's router path.
      unsigned best = pool.front();
      double best_rtt = std::numeric_limits<double>::infinity();
      for (const unsigned id : pool) {
        const double rtt = sim_->path_rtt_ms(polka_->tunnel(id).netsim_path);
        if (rtt < best_rtt) {
          best_rtt = rtt;
          best = id;
        }
      }
      return best;
    }

    case Objective::kCurrentBandwidth: {
      // Reactive: latest telemetry sample of available bandwidth.
      unsigned best = pool.front();
      double best_bw = -1.0;
      for (const unsigned id : pool) {
        const auto latest =
            store_->latest(bandwidth_series(polka_->tunnel(id)));
        const double bw = latest ? latest->value : 0.0;
        if (bw > best_bw) {
          best_bw = bw;
          best = id;
        }
      }
      return best;
    }

    case Objective::kPredictedBandwidth: {
      // Predictive: Hecate's multi-step forecast per tunnel series.
      std::vector<std::string> series;
      series.reserve(pool.size());
      for (const unsigned id : pool) {
        series.push_back(bandwidth_series(polka_->tunnel(id)));
      }
      const auto recommended = hecate_->recommend(series);
      if (!recommended) {
        // No trained model yet: fall back to the reactive choice, which
        // is exactly the paper's phase (i) -> phase (ii) progression.
        return choose_tunnel(Objective::kCurrentBandwidth);
      }
      for (std::size_t k = 0; k < series.size(); ++k) {
        if (series[k] == *recommended) return pool[k];
      }
      return pool.front();
    }
  }
  throw std::logic_error("Controller: unknown objective");
}

std::size_t Controller::handle_new_flow(const FlowRequest& request,
                                        double at_s, Objective objective) {
  const unsigned tunnel_id = choose_tunnel(objective);

  // Program the edge: classification ACL, then the PBR binding.
  hp::freertr::AccessList acl;
  acl.name = request.acl_name;
  acl.protocol = request.protocol;
  acl.source = hp::freertr::Prefix{request.src_ip, 24};
  acl.destination = hp::freertr::Prefix{request.dst_ip, 32};
  acl.tos = request.tos;
  polka_->install_access_list(acl);
  polka_->bind_flow(request.acl_name, tunnel_id,
                    hp::freertr::ipv4_to_string(request.dst_ip));

  // Admit the flow into the network on the tunnel's end-to-end path.
  hp::netsim::FlowSpec spec;
  spec.name = request.name;
  spec.path = polka_->host_to_host_path(tunnel_id, request.src_host,
                                        request.dst_host);
  spec.demand_mbps = request.demand_mbps;
  spec.tos = request.tos ? static_cast<int>(*request.tos) : 0;
  const hp::netsim::FlowId sim_flow = sim_->add_flow(at_s, std::move(spec));

  managed_.push_back(ManagedFlow{request, sim_flow, tunnel_id});
  return managed_.size() - 1;
}

unsigned Controller::reoptimize(std::size_t managed_index, double at_s,
                                Objective objective) {
  ManagedFlow& flow = managed_.at(managed_index);
  const unsigned chosen = choose_tunnel(objective);
  if (chosen == flow.tunnel_id) return chosen;

  // One PBR rewrite at the ingress edge...
  polka_->bind_flow(flow.request.acl_name, chosen,
                    hp::freertr::ipv4_to_string(flow.request.dst_ip));
  // ...and the corresponding path change in the network.
  sim_->migrate_flow(at_s, flow.sim_flow,
                     polka_->host_to_host_path(chosen, flow.request.src_host,
                                               flow.request.dst_host));
  flow.tunnel_id = chosen;
  return chosen;
}

}  // namespace hp::core
