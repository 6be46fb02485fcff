#pragma once
// Controller and Scheduler: the orchestration of Fig 4.
//
// The Dashboard inserts flow requests into the Scheduler; the Scheduler
// notifies the Controller; the Controller gathers telemetry, consults
// the Optimizer (Hecate) and instructs the SR service (PolKA) before
// admitting the flow into the network.  Re-optimization migrates a
// running flow onto a better tunnel with one PBR rewrite.

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/hecate.hpp"
#include "core/polka_service.hpp"
#include "freertr/config_model.hpp"
#include "netsim/simulator.hpp"
#include "telemetry/store.hpp"

namespace hp::core {

/// What the Controller optimizes when picking a tunnel.
enum class Objective {
  kMinLatency,          ///< experiment 1: lowest path RTT
  kPredictedBandwidth,  ///< Hecate forecast (the paper's framework)
  kCurrentBandwidth,    ///< reactive baseline: latest telemetry sample
  kFirstConfigured,     ///< phase (i): arbitrary path, no optimization
};

/// A user flow request as entered on the Dashboard.
struct FlowRequest {
  std::string name;
  std::string acl_name;
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  unsigned protocol = 6;
  std::optional<unsigned> tos;
  double demand_mbps = std::numeric_limits<double>::infinity();
  std::string src_host = "host1";
  std::string dst_host = "host2";
};

/// FIFO of pending flow requests (the Scheduler of Fig 4).
class Scheduler {
 public:
  void submit(FlowRequest request) { pending_.push_back(std::move(request)); }
  [[nodiscard]] bool empty() const noexcept { return pending_.empty(); }
  [[nodiscard]] std::size_t pending_count() const noexcept {
    return pending_.size();
  }
  /// Pop the next request; throws std::out_of_range when empty.
  FlowRequest next();

 private:
  std::deque<FlowRequest> pending_;
};

/// A flow the Controller admitted and tracks.
struct ManagedFlow {
  FlowRequest request;
  hp::netsim::FlowId sim_flow = 0;
  unsigned tunnel_id = 0;
};

class Controller {
 public:
  Controller(hp::netsim::Simulator& sim, hp::telemetry::TimeSeriesStore& store,
             HecateService& hecate, PolkaService& polka);

  /// Register a tunnel as a candidate for flows toward `dst_host`.
  void register_candidate(unsigned tunnel_id);
  [[nodiscard]] const std::vector<unsigned>& candidates() const noexcept {
    return candidates_;
  }

  /// Fig 4 "newFlow": choose a tunnel per `objective`, program the edge
  /// (ACL + PBR), and admit the flow into the simulator at `at_s`.
  /// Returns the managed-flow handle.
  std::size_t handle_new_flow(const FlowRequest& request, double at_s,
                              Objective objective);

  /// Re-optimize one managed flow at `at_s`: consult the optimizer
  /// again and migrate when a different tunnel wins.  Returns the
  /// chosen tunnel id.
  unsigned reoptimize(std::size_t managed_index, double at_s,
                      Objective objective);

  /// Is every link of this tunnel currently up?
  [[nodiscard]] bool tunnel_healthy(unsigned tunnel_id) const;

  /// The tunnel-selection logic, exposed for tests and ablations.
  [[nodiscard]] unsigned choose_tunnel(Objective objective) const;

  [[nodiscard]] const ManagedFlow& managed(std::size_t index) const {
    return managed_.at(index);
  }

  /// Telemetry series name used for a tunnel's available bandwidth.
  [[nodiscard]] static std::string bandwidth_series(const Tunnel& tunnel) {
    return tunnel.name + ".available_mbps";
  }

 private:
  hp::netsim::Simulator* sim_;
  hp::telemetry::TimeSeriesStore* store_;
  HecateService* hecate_;
  PolkaService* polka_;
  std::vector<unsigned> candidates_;
  std::vector<ManagedFlow> managed_;
};

}  // namespace hp::core
