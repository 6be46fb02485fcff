// Per-layer performance ledger: one workload per process, measured end
// to end and layer by layer.
//
//   bench_ledger --workload NAME [--seed S] [--reps N | --seconds T]
//                [--traced DIR] [--json PATH] [--smoke]
//   bench_ledger --self-test
//
// Every workload is a closed loop with one client: a repetition starts
// when the previous one returns, rebuilds everything from its
// ScenarioSpec (so set-up is timed every time), runs the workload's
// timed calls, checks the outputs and digests the report.  Repetition 0
// is a warm-up: it is checked and fixes the reference digest, but it is
// not counted.  Only public library calls are made, each timed from
// outside with steady_clock and recorded as a span; nothing inside
// src/ is instrumented for the ledger.
//
// With --traced the bench attaches an obs::MetricRegistry and an
// obs::TraceSink through the library's existing options and alternates
// untraced and traced repetitions, so one process yields both the
// per-layer metrics and the cost of the taps themselves.  The traced
// repetitions' spans (the bench's own plus the library's phase events,
// nested under them) are written to DIR/trace_<workload>.json.
//
// Results go out as hp-bench-v1 JSON through obs::BenchReport.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "polka/fastpath.hpp"
#include "scenario/failure_injector.hpp"
#include "scenario/registry.hpp"
#include "sim/runner.hpp"

namespace {

namespace sc = hp::scenario;
using Clock = std::chrono::steady_clock;
using PairList = std::vector<std::pair<hp::netsim::NodeIndex,
                                       hp::netsim::NodeIndex>>;

const Clock::time_point kEpoch = Clock::now();

double since_epoch_us(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - kEpoch).count();
}

// --- statistics ------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::ranges::sort(v);
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// First and third quartile, Python statistics.quantiles(n=4) style
/// ("exclusive" interpolation), so the bench and the scripts agree.
std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0};
  if (v.size() == 1) return {v[0], v[0]};
  std::ranges::sort(v);
  const auto ld = static_cast<long>(v.size());
  const long m = ld + 1;
  auto at = [&](long i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  return {at(1), at(3)};
}

/// Nearest-rank percentile: the ceil(q * n)-th order statistic.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::ranges::sort(v);
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

template <typename T>
double as_double(T v) {
  return static_cast<double>(v);
}

// --- report digest ---------------------------------------------------

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = kFnvOffset) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t v, std::uint64_t h) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// --- correctness checks ----------------------------------------------

/// Failed checks of one repetition; empty means the repetition passed.
class Findings {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) items_.push_back(what);
  }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] const std::vector<std::string>& items() const noexcept {
    return items_;
  }

 private:
  std::vector<std::string> items_;
};

std::string count_msg(const char* what, std::size_t got, std::size_t want) {
  return std::string(what) + " = " + std::to_string(got) + ", want " +
         std::to_string(want);
}

/// A replay forwarded every packet of the stream, each to its planned
/// egress, none killed by the hop cap.
void check_replay(const sc::ScenarioReport& r, std::size_t stream_size,
                  Findings& f) {
  f.expect(r.wrong_egress == 0, count_msg("replay wrong_egress",
                                          r.wrong_egress, 0));
  f.expect(r.packets == stream_size,
           count_msg("replay packets", r.packets, stream_size));
  f.expect(r.ttl_expired == 0, count_msg("replay ttl_expired",
                                         r.ttl_expired, 0));
}

/// A simulation accounts for every injected packet (offered in the open
/// loop, sent by the transport in the closed loop) as forwarded or
/// dropped, and a closed loop resolves every flow.
void check_sim(const hp::sim::SimReport& r, std::size_t offered,
               Findings& f) {
  f.expect(r.forwarding.wrong_egress == 0,
           count_msg("sim wrong_egress", r.forwarding.wrong_egress, 0));
  const std::size_t injected =
      r.transport.enabled ? r.transport.packets_sent : offered;
  f.expect(r.forwarding.packets + r.forwarding.dropped_packets == injected,
           count_msg("sim forwarded + dropped",
                     r.forwarding.packets + r.forwarding.dropped_packets,
                     injected));
  if (r.transport.enabled) {
    f.expect(r.completed_flows + r.transport.abandoned_flows == r.flows,
             count_msg("sim completed + abandoned flows",
                       r.completed_flows + r.transport.abandoned_flows,
                       r.flows));
  }
}

PairList sorted(PairList v) {
  std::ranges::sort(v);
  return v;
}

PairList concat(std::initializer_list<const PairList*> lists) {
  PairList out;
  for (const PairList* l : lists) out.insert(out.end(), l->begin(), l->end());
  return out;
}

/// A failure or restore event's swapped / repaired / pending /
/// unroutable lists partition its `affected` pairs.
void check_event(const sc::FailoverReport& ev, Findings& f) {
  const PairList affected = sorted(ev.affected);
  f.expect(std::ranges::adjacent_find(affected) == affected.end(),
           "failover: a pair is listed twice in affected");
  const PairList parts = sorted(
      concat({&ev.swapped, &ev.repaired, &ev.pending, &ev.unroutable}));
  f.expect(parts == affected,
           count_msg("failover: partitioned pairs", parts.size(),
                     affected.size()) +
               " (lists do not partition affected)");
  f.expect(ev.swap_stretch.size() == ev.swapped.size(),
           count_msg("failover: swap_stretch entries", ev.swap_stretch.size(),
                     ev.swapped.size()));
}

/// repair_pending, called right after an event, resolves exactly the
/// pairs the event parked: each lands in repaired or unroutable.
void check_repair(const sc::FailoverReport& event,
                  const sc::FailoverReport& repair, Findings& f) {
  PairList want = sorted(event.pending);
  want.erase(std::unique(want.begin(), want.end()), want.end());
  const PairList got = sorted(concat({&repair.repaired, &repair.unroutable}));
  f.expect(got == want, count_msg("repair: resolved pairs", got.size(),
                                  want.size()) +
                            " (repaired + unroutable != parked pairs)");
  f.expect(repair.swapped.empty() && repair.pending.empty(),
           "repair: swapped or pending pairs in a repair report");
}

void check_digest(std::uint64_t got, std::uint64_t reference, Findings& f) {
  f.expect(got == reference, "report digest " + hex64(got) +
                                 " differs from repetition 0's " +
                                 hex64(reference));
}

/// Runs `body`; an exception fails the repetition instead of the run.
template <typename F>
void guarded(Findings& f, F&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    f.expect(false, std::string("exception: ") + e.what());
  } catch (...) {
    f.expect(false, "exception of unknown type");
  }
}

// --- workloads -------------------------------------------------------

enum class Workload { kReplay, kSimOpen, kSimClosed, kControl };

struct WorkloadInfo {
  Workload id;
  const char* name;
  unsigned default_reps;  ///< measured repetitions without --seconds
};

constexpr WorkloadInfo kWorkloads[] = {
    {Workload::kReplay, "replay-torus32", 12},
    {Workload::kSimOpen, "sim-open-fattree8", 10},
    {Workload::kSimClosed, "sim-closed-torus8-flap", 15},
    {Workload::kControl, "control-torus16-flap", 5},
};

/// Everything a repetition is built from; a pure function of
/// (workload, seed, smoke).
struct Config {
  WorkloadInfo info{};
  sc::ScenarioSpec spec;
  hp::sim::SimOptions sim;
  bool flap = false;  ///< sims: a seeded flap schedule drives failures
  sc::FailureInjectorParams failures;
  unsigned protection_k = 0;  ///< control (the sims use sim.protection_k)
  unsigned threads = 1;
  unsigned replay_passes = 0;
  sc::TrafficParams verify;  ///< control: post-storm check replay
};

Config make_config(const WorkloadInfo& info, std::uint64_t seed,
                   bool smoke) {
  Config c;
  c.info = info;
  c.spec.name = info.name;
  c.spec.traffic.seed = seed;
  c.failures.seed = seed;
  c.failures.preset = sc::FailurePreset::kFlap;
  c.threads = std::clamp(std::thread::hardware_concurrency(), 1U, 4U);
  switch (info.id) {
    case Workload::kReplay:
      // Forwarding only: deep torus paths, so nearly every packet is
      // segmented and the fold kernel plus segment re-labels dominate.
      c.spec.family = sc::TopologyFamily::kTorus;
      c.spec.a = c.spec.b = smoke ? 8 : 32;
      c.spec.traffic.pattern = sc::TrafficPattern::kUniformRandom;
      c.spec.traffic.packets = smoke ? 1U << 14 : 1U << 22;
      c.spec.traffic.max_pairs = smoke ? 256 : 4096;
      c.replay_passes = 3;
      break;
    case Workload::kSimOpen:
      // The event engine with a ~1M-entry heap: every injection is
      // queued before run(), and the uniform load congests the core
      // enough to exercise queueing, ECN and tail drops.
      c.spec.family = sc::TopologyFamily::kFatTree;
      c.spec.a = smoke ? 4 : 8;
      c.spec.c = 1;  // hosts
      c.spec.traffic.pattern = sc::TrafficPattern::kUniformRandom;
      c.spec.traffic.packets = smoke ? 1U << 14 : 1U << 20;
      c.spec.traffic.max_pairs = smoke ? 256 : 4096;
      c.sim.flow_gap_ns = 20'000;
      break;
    case Workload::kSimClosed:
      // The same engine driven by the transport: small heap, per-packet
      // feedback hooks, RTO timers, retransmits and failover epochs.
      c.spec.family = sc::TopologyFamily::kTorus;
      c.spec.a = c.spec.b = smoke ? 4 : 8;
      c.spec.traffic.pattern = sc::TrafficPattern::kHotspot;
      c.spec.traffic.packets = smoke ? 1U << 12 : 1U << 18;
      c.spec.traffic.max_pairs = smoke ? 64 : 256;
      c.sim.source_rate_mbps = 100.0;
      c.sim.flow_gap_ns = 400'000;
      c.sim.queue_capacity = 32;
      c.sim.ecn_threshold = 24;
      c.sim.transport.enabled = true;
      c.sim.transport.init_cwnd = 4;
      c.sim.transport.max_cwnd = 32;
      c.sim.transport.rto_min_ns = 4'000'000;
      c.sim.transport.rto_max_ns = 50'000'000;
      // At 8 retries most seeds abandon a few flows whose path crosses
      // a flapping link near the hotspot; 16 recovers every flow.
      c.sim.transport.max_retries = 16;
      c.flap = true;
      c.failures.count = smoke ? 2 : 4;
      c.failures.mean_up_fraction = 0.15;
      c.failures.mean_down_fraction = 0.05;
      c.sim.protection_k = 1;
      break;
    case Workload::kControl:
      // The control loop alone: bulk compile, backup planning, then a
      // flap storm of failures and restores with no data plane timed.
      c.spec.family = sc::TopologyFamily::kTorus;
      c.spec.a = c.spec.b = smoke ? 6 : 16;
      c.failures.count = smoke ? 4 : 64;
      c.protection_k = 1;
      c.verify.pattern = sc::TrafficPattern::kUniformRandom;
      c.verify.packets = smoke ? 1U << 12 : 1U << 16;
      c.verify.max_pairs = smoke ? 256 : 4096;
      c.verify.seed = seed;
      break;
  }
  return c;
}

// --- spans -----------------------------------------------------------

/// One timed interval: a layer call the bench wrapped, or a phase event
/// the library's TraceSink recorded inside one.
struct Span {
  std::string name;
  double start_us = 0.0;  ///< since process start
  double end_us = 0.0;
  int rep = 0;
  int parent = -1;  ///< index within the same log; -1 = top level
  bool program = false;
  double self_us = 0.0;

  [[nodiscard]] double dur_us() const { return end_us - start_us; }
};

/// Per-repetition state: the span log and, when traced, the taps.
struct Rep {
  int index = 0;
  bool traced = false;
  hp::obs::MetricRegistry* metrics = nullptr;
  hp::obs::TraceSink* trace = nullptr;
  std::vector<Span> spans;

  /// Run `f` inside a span named `name` and return its result.
  template <typename F>
  auto timed(const char* name, F&& f) -> decltype(f()) {
    struct Guard {
      Rep& rep;
      const char* name;
      Clock::time_point start = Clock::now();
      ~Guard() {
        Span s;
        s.name = name;
        s.start_us = since_epoch_us(start);
        s.end_us = since_epoch_us(Clock::now());
        s.rep = rep.index;
        rep.spans.push_back(std::move(s));
      }
    } guard{*this, name};
    return f();
  }

  [[nodiscard]] double last_us() const { return spans.back().dur_us(); }

  /// Seconds spent in spans whose name starts with `prefix`.
  [[nodiscard]] double seconds(std::string_view prefix) const {
    double us = 0.0;
    for (const Span& s : spans) {
      if (s.name.starts_with(prefix)) us += s.dur_us();
    }
    return us * 1e-6;
  }
};

/// Adopt the library's phase events as spans, then give every span its
/// parent (the innermost span enclosing it) and its self time.
void nest_spans(std::vector<Span>& spans, const hp::obs::TraceSink& sink,
                int rep) {
  const double offset = since_epoch_us(sink.epoch());
  for (const hp::obs::TraceEvent& ev : sink.events()) {
    Span s;
    s.name = ev.name;
    s.start_us = offset + as_double(ev.ts_us);
    s.end_us = s.start_us + as_double(ev.dur_us);
    s.rep = rep;
    s.program = true;
    spans.push_back(std::move(s));
  }
  // Bench spans never nest; a program span's parent is the shortest
  // span that encloses it.  Events carry whole microseconds, so
  // containment allows that much rounding, and children are clamped
  // into their parent for self time.
  constexpr double kSlackUs = 2.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Span& s = spans[i];
    if (!s.program) continue;
    int best = -1;
    for (std::size_t j = 0; j < spans.size(); ++j) {
      const Span& p = spans[j];
      const bool encloses = p.start_us <= s.start_us + kSlackUs &&
                            p.end_us >= s.end_us - kSlackUs;
      const bool larger = p.dur_us() > s.dur_us() ||
                          (p.dur_us() == s.dur_us() && (!p.program || j < i));
      if (j == i || !encloses || !larger) continue;
      if (best < 0 || p.dur_us() < spans[best].dur_us()) {
        best = static_cast<int>(j);
      }
    }
    s.parent = best;
  }
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p < 0) continue;
    const double lo = std::max(spans[i].start_us, spans[p].start_us);
    const double hi = std::min(spans[i].end_us, spans[p].end_us);
    if (hi > lo) kids[p].emplace_back(lo, hi);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& k = kids[i];
    std::ranges::sort(k);
    double covered = 0.0;
    double reach = -1e300;
    for (const auto& [lo, hi] : k) {
      const double from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    spans[i].self_us = std::max(0.0, spans[i].dur_us() - covered);
  }
}

// --- one repetition --------------------------------------------------

/// What one repetition measured and produced.
struct RepOutcome {
  bool traced = false;
  double wall_s = 0.0;
  double setup_s = 0.0;
  double work_s = 0.0;  ///< the workload's timed calls
  double items = 0.0;   ///< work items those calls completed
  std::uint64_t digest = 0;
  Findings findings;
  std::map<std::string, double> counts;  ///< deterministic outcome counts
  std::map<std::string, double> layer;   ///< per-layer values (traced)
  std::vector<double> apply_us;          ///< control: per event
  std::vector<double> repair_us;
  std::vector<Span> spans;
  std::string character;  ///< empty when the workload kept its character
};

const hp::obs::HistogramData* histogram(const hp::obs::MetricsSnapshot& s,
                                        std::string_view name) {
  const hp::obs::MetricValue* v = s.find(name);
  return v != nullptr && v->kind == hp::obs::MetricKind::kHistogram
             ? &v->histogram
             : nullptr;
}

double hist_sum(const hp::obs::MetricsSnapshot& s, std::string_view name) {
  const auto* h = histogram(s, name);
  return h != nullptr ? as_double(h->sum) : 0.0;
}

std::unique_ptr<sc::BuiltFabric> wire(hp::netsim::Topology topo,
                                      const Rep& rep) {
  auto fabric = std::make_unique<sc::BuiltFabric>(std::move(topo));
  fabric->set_observability(rep.metrics, rep.trace);
  (void)fabric->compiled();  // flatten now, not inside the first replay
  return fabric;
}

/// Set-up layer metrics every workload shares.  `st` holds the route
/// compiler's counters once every set-up route is compiled (before
/// backup planning); `after_setup` is the registry at the end of set-up.
void setup_layers(const sc::BuiltFabric& fabric, const Rep& rep,
                  const sc::CompileStats& st,
                  const hp::obs::MetricsSnapshot& after_setup,
                  std::size_t packets, RepOutcome& out) {
  out.layer["netsim.topology_ms"] = rep.seconds("setup.topology") * 1e3;
  out.layer["polka.wire_ms"] = rep.seconds("setup.wire") * 1e3;
  out.layer["polka.state_bytes_per_router"] =
      ratio(as_double(fabric.compiled().forwarding_state_bytes()),
            as_double(fabric.router_count()));
  const double compile_ns = hist_sum(after_setup, "compile.route_ns") +
                            hist_sum(after_setup, "compile.all_pairs_ns");
  out.layer["scenario.compile_ns_per_route"] =
      ratio(compile_ns, as_double(st.routes_compiled));
  out.layer["scenario.crt_steps_per_route"] =
      ratio(as_double(st.crt_steps), as_double(st.routes_compiled));
  out.layer["scenario.traffic_ns_per_packet"] =
      ratio(rep.seconds("setup.traffic") * 1e9, as_double(packets));
}

void replay_rep(const Config& cfg, Rep& rep, RepOutcome& out) {
  auto topo = rep.timed("setup.topology",
                        [&] { return sc::build_topology(cfg.spec); });
  auto fabric =
      rep.timed("setup.wire", [&] { return wire(std::move(topo), rep); });
  sc::PacketStream stream = rep.timed("setup.traffic", [&] {
    return sc::generate_traffic(*fabric, cfg.spec.traffic);
  });
  const sc::CompileStats route_stats = fabric->compile_stats();
  const hp::obs::MetricsSnapshot after_setup =
      rep.metrics != nullptr ? rep.metrics->snapshot()
                             : hp::obs::MetricsSnapshot{};

  sc::RunnerOptions options;
  options.threads = cfg.threads;
  options.batch_size = 1024;
  options.metrics = rep.metrics;
  options.trace = rep.trace;
  const sc::ScenarioRunner runner(options);
  std::vector<sc::ScenarioReport> passes;
  for (unsigned p = 0; p < cfg.replay_passes; ++p) {
    passes.push_back(
        rep.timed("replay.run", [&] { return runner.run(*fabric, stream); }));
  }
  out.work_s = rep.seconds("replay.run");
  out.items = as_double(stream.size()) * cfg.replay_passes;

  rep.timed("export.json", [&] {
    for (auto& r : passes) r.seconds = 0.0;  // the only wall-clock field
    const std::string json = hp::obs::to_json(passes.front());
    out.digest = fnv1a(json);
    out.layer["obs.export_bytes"] = as_double(json.size());
    if (rep.metrics != nullptr) {
      out.layer["obs.export_bytes"] +=
          as_double(hp::obs::to_json(rep.metrics->snapshot()).size());
    }
  });
  for (const auto& r : passes) {
    check_replay(r, stream.size(), out.findings);
    out.findings.expect(r == passes.front(),
                        "replay: passes over one stream disagree");
  }

  const sc::ScenarioReport& r = passes.front();
  const double n = as_double(r.packets);
  out.counts["packets"] = n;
  out.counts["folds"] = as_double(r.mod_operations);
  out.counts["segmented_packets"] = as_double(r.segmented_packets);
  out.counts["segment_swaps"] = as_double(r.segment_swaps);
  out.counts["pairs"] = as_double(stream.pairs.size());
  out.counts["routes_compiled"] = as_double(route_stats.routes_compiled);
  const double segmented_share = ratio(as_double(r.segmented_packets), n);
  if (segmented_share <= 0.9) {
    out.character = "segmented share " + std::to_string(segmented_share) +
                    " <= 0.9";
  }
  if (!rep.traced) return;

  const hp::obs::MetricsSnapshot snap = rep.metrics->snapshot();
  setup_layers(*fabric, rep, route_stats, after_setup, stream.size(), out);
  out.layer["scenario.replay_ns_per_packet"] =
      ratio(out.work_s * 1e9, out.items);
  out.layer["polka.fold_ns"] = ratio(hist_sum(snap, "replay.slice_ns"),
                                     as_double(snap.counter_or(
                                         "replay.folds")));
  out.layer["polka.folds_per_packet"] = ratio(as_double(r.mod_operations), n);
  out.layer["polka.segmented_share"] = segmented_share;
  out.layer["polka.segment_swaps_per_packet"] =
      ratio(as_double(r.segment_swaps), n);
  if (const auto* h = histogram(snap, "replay.slice_ns")) {
    out.layer["scenario.replay_imbalance"] = ratio(as_double(h->max),
                                                   h->mean());
  }
}

void sim_rep(const Config& cfg, Rep& rep, RepOutcome& out) {
  auto topo = rep.timed("setup.topology",
                        [&] { return sc::build_topology(cfg.spec); });
  auto fabric =
      rep.timed("setup.wire", [&] { return wire(std::move(topo), rep); });
  hp::sim::SimOptions options = cfg.sim;
  sc::PacketStream stream = rep.timed("setup.traffic", [&] {
    if (cfg.flap) {
      options.failures =
          sc::make_failure_schedule(fabric->topology(), cfg.failures);
    }
    return sc::generate_traffic(*fabric, cfg.spec.traffic);
  });
  const sc::CompileStats route_stats = fabric->compile_stats();
  // SimRunner would plan backups inside sim.run; doing it here makes it
  // set-up, and the runner's own call then finds every pair protected.
  std::size_t backups = 0;
  if (options.protection_k > 0) {
    backups = rep.timed("setup.protect", [&] {
      return fabric->enable_protection(options.protection_k);
    });
  }
  const hp::obs::MetricsSnapshot after_setup =
      rep.metrics != nullptr ? rep.metrics->snapshot()
                             : hp::obs::MetricsSnapshot{};

  options.metrics = rep.metrics;
  options.trace = rep.trace;
  const hp::sim::SimReport r = rep.timed("sim.run", [&] {
    return hp::sim::SimRunner(options).run(*fabric, stream);
  });
  out.work_s = rep.seconds("sim.run");
  const auto& tp = r.transport;
  const double offered = as_double(stream.size());
  // Simulated packets: every injection the engine carried, so the rate
  // does not swing with a seed's retransmit count.
  const double injected = tp.enabled ? as_double(tp.packets_sent) : offered;
  out.items = injected;

  rep.timed("export.json", [&] {
    const std::string json = hp::obs::to_json(r);
    out.digest = fnv1a(json);
    out.layer["obs.export_bytes"] = as_double(json.size());
    if (rep.metrics != nullptr) {
      out.layer["obs.export_bytes"] +=
          as_double(hp::obs::to_json(rep.metrics->snapshot()).size());
    }
  });
  check_sim(r, stream.size(), out.findings);

  const double hops = as_double(r.forwarding.mod_operations);
  out.counts["offered"] = offered;
  out.counts["injected"] = injected;
  out.counts["forwarded"] = as_double(r.forwarding.packets);
  out.counts["dropped"] = as_double(r.forwarding.dropped_packets);
  out.counts["failover_lost"] = as_double(r.forwarding.failover_packets_lost);
  out.counts["ecn_marked"] = as_double(r.ecn_marked);
  out.counts["hops"] = hops;
  out.counts["flows"] = as_double(r.flows);
  out.counts["completed_flows"] = as_double(r.completed_flows);
  out.counts["retransmits"] = as_double(tp.retransmits);
  out.counts["timeouts"] = as_double(tp.timeouts);
  out.counts["abandoned_flows"] = as_double(tp.abandoned_flows);
  out.counts["duration_ns"] = as_double(r.duration_ns);
  out.counts["routes_compiled"] = as_double(route_stats.routes_compiled);
  if (tp.enabled) {
    if (tp.abandoned_flows != 0 || tp.retransmits == 0 ||
        r.forwarding.failover_packets_lost == 0) {
      out.character = "closed loop: abandoned=" +
                      std::to_string(tp.abandoned_flows) + " retransmits=" +
                      std::to_string(tp.retransmits) + " failover_lost=" +
                      std::to_string(r.forwarding.failover_packets_lost);
    }
  } else if (r.drop_rate() < 0.05 || r.drop_rate() > 0.2) {
    out.character = "open loop drop rate " + std::to_string(r.drop_rate()) +
                    " outside [0.05, 0.2]";
  }
  if (!rep.traced) return;

  const hp::obs::MetricsSnapshot snap = rep.metrics->snapshot();
  setup_layers(*fabric, rep, route_stats, after_setup, stream.size(), out);
  if (options.protection_k > 0) {
    out.layer["scenario.protect_us_per_backup"] =
        ratio(rep.seconds("setup.protect") * 1e6, as_double(backups));
  }
  std::map<std::string, double> phase_ns;
  for (const hp::obs::TraceEvent& ev : rep.trace->events()) {
    phase_ns[ev.name] += as_double(ev.dur_us) * 1e3;
  }
  out.layer["sim.schedule_ns_per_packet"] =
      ratio(phase_ns["sim.schedule"], offered);
  out.layer["sim.simulate_ns_per_hop"] = ratio(phase_ns["sim.simulate"], hops);
  out.layer["sim.hops_per_packet"] = ratio(hops, injected);
  out.layer["sim.wire_ms"] = phase_ns["sim.wire"] * 1e-6;
  out.layer["sim.report_ms"] = phase_ns["sim.report"] * 1e-6;
  out.layer["sim.drop_rate"] = r.drop_rate();
  out.layer["sim.ecn_marks_per_packet"] =
      ratio(as_double(r.ecn_marked), injected);
  if (const auto* h = histogram(snap, "sim.queue_depth")) {
    out.layer["sim.queue_depth_p99"] = as_double(h->percentile(0.99));
  }
  out.layer["sim.fct_p50_us"] = as_double(r.fct_percentile_ns(0.50)) * 1e-3;
  out.layer["sim.fct_p99_us"] = as_double(r.fct_percentile_ns(0.99)) * 1e-3;
  out.layer["sim.completed_flow_share"] =
      ratio(as_double(r.completed_flows), as_double(r.flows));
  if (tp.enabled) {
    const double flows = as_double(r.flows);
    out.layer["sim.tp.sends_per_packet"] =
        ratio(as_double(tp.packets_sent), offered);
    out.layer["sim.tp.retransmits_per_packet"] =
        ratio(as_double(tp.retransmits), offered);
    out.layer["sim.tp.timeouts_per_flow"] =
        ratio(as_double(tp.timeouts), flows);
    out.layer["sim.tp.cwnd_cuts_per_flow"] =
        ratio(as_double(tp.ecn_cwnd_cuts + tp.drop_cwnd_cuts), flows);
    out.layer["sim.tp.goodput_fraction"] = r.goodput_fraction();
    out.layer["sim.tp.abandoned_flows"] = as_double(tp.abandoned_flows);
  }
}

void control_rep(const Config& cfg, Rep& rep, RepOutcome& out) {
  auto topo = rep.timed("setup.topology",
                        [&] { return sc::build_topology(cfg.spec); });
  auto fabric =
      rep.timed("setup.wire", [&] { return wire(std::move(topo), rep); });
  const std::size_t routes = rep.timed(
      "setup.compile", [&] { return fabric->compile_all_pairs(1); });
  const sc::CompileStats route_stats = fabric->compile_stats();
  const std::size_t backups = rep.timed("setup.protect", [&] {
    return fabric->enable_protection(cfg.protection_k);
  });
  const auto schedule = rep.timed("setup.traffic", [&] {
    return sc::make_failure_schedule(fabric->topology(), cfg.failures);
  });
  const hp::obs::MetricsSnapshot after_setup =
      rep.metrics != nullptr ? rep.metrics->snapshot()
                             : hp::obs::MetricsSnapshot{};
  const sc::CompileStats before = fabric->compile_stats();

  // The digest covers every event's pair lists, in order.
  std::uint64_t h = kFnvOffset;
  auto mix = [&h](const PairList& pairs) {
    h = fnv1a_u64(pairs.size(), h);
    for (const auto& [a, b] : pairs) h = fnv1a_u64(b, fnv1a_u64(a, h));
  };
  double affected = 0.0;
  double swapped = 0.0;
  for (const sc::LinkFailure& event : schedule) {
    const sc::FailoverReport applied = rep.timed("failover.apply", [&] {
      return event.restore ? fabric->restore_link(event.a, event.b)
                           : fabric->apply_failure(event.a, event.b);
    });
    out.apply_us.push_back(rep.last_us());
    const sc::FailoverReport repaired =
        rep.timed("failover.repair", [&] { return fabric->repair_pending(); });
    out.repair_us.push_back(rep.last_us());
    check_event(applied, out.findings);
    check_repair(applied, repaired, out.findings);
    for (const PairList* l :
         {&applied.affected, &applied.swapped, &applied.pending,
          &applied.unroutable, &repaired.repaired, &repaired.unroutable}) {
      mix(*l);
    }
    affected += as_double(applied.affected.size());
    swapped += as_double(applied.swapped.size());
  }
  const sc::CompileStats after = fabric->compile_stats();
  out.work_s = rep.seconds("failover.");
  out.items = as_double(schedule.size());

  // The post-storm check replay is not a measured layer: no taps.
  fabric->set_observability(nullptr, nullptr);
  sc::PacketStream check_stream;
  sc::ScenarioReport check = rep.timed("verify.replay", [&] {
    check_stream = sc::generate_traffic(*fabric, cfg.verify);
    sc::RunnerOptions options;
    options.threads = cfg.threads;
    return sc::ScenarioRunner(options).run(*fabric, check_stream);
  });
  check_replay(check, check_stream.size(), out.findings);

  rep.timed("export.json", [&] {
    check.seconds = 0.0;
    const std::string json = hp::obs::to_json(check);
    out.digest = fnv1a(json, h);
    out.layer["obs.export_bytes"] = as_double(json.size());
    if (rep.metrics != nullptr) {
      out.layer["obs.export_bytes"] +=
          as_double(hp::obs::to_json(rep.metrics->snapshot()).size());
    }
  });

  const double events = out.items;
  const double recompiles = as_double(after.routes_compiled -
                                      before.routes_compiled);
  const double trees = as_double(after.trees_built - before.trees_built);
  out.counts["routes"] = as_double(routes);
  out.counts["backups"] = as_double(backups);
  out.counts["events"] = events;
  out.counts["affected_pairs"] = affected;
  out.counts["swapped_pairs"] = swapped;
  out.counts["storm_recompiles"] = recompiles;
  out.counts["storm_trees"] = trees;
  out.counts["verify_packets"] = as_double(check.packets);
  if (events == 0.0 || swapped == 0.0) {
    out.character = "flap storm with no event or no hitless swap";
  }
  if (!rep.traced) return;

  setup_layers(*fabric, rep, route_stats, after_setup, 0, out);
  out.layer["scenario.protect_us_per_backup"] =
      ratio(rep.seconds("setup.protect") * 1e6, as_double(backups));
  out.layer["scenario.failover.pairs_per_event"] = ratio(affected, events);
  out.layer["scenario.failover.swap_share"] = ratio(swapped, affected);
  out.layer["scenario.failover.recompiles_per_event"] =
      ratio(recompiles, events);
  out.layer["scenario.failover.trees_per_event"] = ratio(trees, events);
}

RepOutcome run_rep(const Config& cfg, int index, bool traced) {
  RepOutcome out;
  out.traced = traced;
  hp::obs::MetricRegistry registry;
  hp::obs::TraceSink sink;
  Rep rep;
  rep.index = index;
  rep.traced = traced;
  if (traced) {
    rep.metrics = &registry;
    rep.trace = &sink;
  }
  const Clock::time_point start = Clock::now();
  guarded(out.findings, [&] {
    switch (cfg.info.id) {
      case Workload::kReplay:
        replay_rep(cfg, rep, out);
        break;
      case Workload::kSimOpen:
      case Workload::kSimClosed:
        sim_rep(cfg, rep, out);
        break;
      case Workload::kControl:
        control_rep(cfg, rep, out);
        break;
    }
  });
  out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  out.setup_s = rep.seconds("setup.");
  if (traced) {
    out.layer["obs.export_us"] = rep.seconds("export.json") * 1e6;
    nest_spans(rep.spans, sink, index);
    out.spans = std::move(rep.spans);
  }
  return out;
}

// --- the run ---------------------------------------------------------

struct Options {
  const WorkloadInfo* workload = nullptr;
  std::uint64_t seed = 1;
  unsigned reps = 0;     ///< 0: the workload's default
  double seconds = 0.0;  ///< > 0: measure until this much rep time
  std::string traced_dir;
  std::string json_path;
  bool smoke = false;
  bool self_test = false;
};

/// Per-layer metrics: (name, unit).  Every one is reported by every
/// workload; a layer a workload does not exercise reads 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"netsim.topology_ms", "ms"},
    {"polka.wire_ms", "ms"},
    {"polka.state_bytes_per_router", "B"},
    {"scenario.compile_ns_per_route", "ns"},
    {"scenario.crt_steps_per_route", "count"},
    {"scenario.protect_us_per_backup", "us"},
    {"scenario.traffic_ns_per_packet", "ns"},
    {"scenario.replay_ns_per_packet", "ns"},
    {"polka.fold_ns", "ns"},
    {"polka.folds_per_packet", "count"},
    {"polka.segmented_share", "ratio"},
    {"polka.segment_swaps_per_packet", "count"},
    {"scenario.replay_imbalance", "ratio"},
    {"sim.schedule_ns_per_packet", "ns"},
    {"sim.simulate_ns_per_hop", "ns"},
    {"sim.hops_per_packet", "count"},
    {"sim.wire_ms", "ms"},
    {"sim.report_ms", "ms"},
    {"sim.drop_rate", "ratio"},
    {"sim.ecn_marks_per_packet", "count"},
    {"sim.queue_depth_p99", "count"},
    {"sim.fct_p50_us", "us"},
    {"sim.fct_p99_us", "us"},
    {"sim.completed_flow_share", "ratio"},
    {"sim.tp.sends_per_packet", "count"},
    {"sim.tp.retransmits_per_packet", "count"},
    {"sim.tp.timeouts_per_flow", "count"},
    {"sim.tp.cwnd_cuts_per_flow", "count"},
    {"sim.tp.goodput_fraction", "ratio"},
    {"sim.tp.abandoned_flows", "count"},
    {"scenario.failover.event_us_p50", "us"},
    {"scenario.failover.event_us_p99", "us"},
    {"scenario.failover.apply_us_p50", "us"},
    {"scenario.failover.apply_us_p99", "us"},
    {"scenario.failover.repair_us_p50", "us"},
    {"scenario.failover.repair_us_p99", "us"},
    {"scenario.failover.pairs_per_event", "count"},
    {"scenario.failover.swap_share", "ratio"},
    {"scenario.failover.recompiles_per_event", "count"},
    {"scenario.failover.trees_per_event", "count"},
    {"obs.tap_overhead_pct", "%"},
    {"obs.export_us", "us"},
    {"obs.export_bytes", "B"},
    {"obs.span_coverage_pct", "%"},
};

/// Traced output: the trace-event JSON chrome://tracing and Perfetto
/// open, one track per repetition, with the ledger's own fields (span
/// id, parent id, repetition, self time) under each event's args.
void write_trace(const std::string& path, const std::string& workload,
                 const std::vector<RepOutcome>& reps, double coverage_pct) {
  hp::obs::JsonWriter json;
  json.begin_object();
  json.key("traceEvents");
  json.begin_array();
  std::map<std::string, std::pair<double, std::uint64_t>> self_by_name;
  std::uint64_t id = 0;
  for (const RepOutcome& rep : reps) {
    const std::uint64_t base = id;
    for (const Span& s : rep.spans) {
      json.begin_object();
      json.key("name");
      json.value(s.name);
      json.key("cat");
      json.value(s.program ? "program" : "bench");
      json.key("ph");
      json.value("X");
      json.key("ts");
      json.value(s.start_us);
      json.key("dur");
      json.value(s.dur_us());
      json.key("pid");
      json.value(std::uint64_t{1});
      json.key("tid");
      json.value(static_cast<std::uint64_t>(s.rep));
      json.key("args");
      json.begin_object();
      json.key("id");
      json.value(id++);
      json.key("parent");
      json.value(s.parent < 0 ? std::int64_t{-1}
                              : static_cast<std::int64_t>(base) + s.parent);
      json.key("rep");
      json.value(static_cast<std::uint64_t>(s.rep));
      json.key("self_us");
      json.value(s.self_us);
      json.end_object();
      json.end_object();
      auto& agg = self_by_name[s.name];
      agg.first += s.self_us;
      agg.second += 1;
    }
  }
  json.end_array();
  json.key("otherData");
  json.begin_object();
  json.key("schema");
  json.value("hp-ledger-trace-v1");
  json.key("workload");
  json.value(workload);
  json.key("traced_reps");
  json.value(static_cast<std::uint64_t>(reps.size()));
  json.key("span_coverage_pct");
  json.value(coverage_pct);
  json.key("self_us");
  json.begin_object();
  for (const auto& [name, agg] : self_by_name) {
    json.key(name);
    json.begin_object();
    json.key("total");
    json.value(agg.first);
    json.key("count");
    json.value(agg.second);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  json.end_object();
  hp::obs::write_text_file(path, json.text());
}

void add_timing(hp::obs::BenchReport& report, const std::string& name,
                const std::vector<double>& samples, const char* unit,
                const std::string& label) {
  auto& r = report.add(name, median(samples), unit, label);
  const auto [q1, q3] = quartiles(samples);
  r.counters.emplace_back("n", as_double(samples.size()));
  r.counters.emplace_back("q1", q1);
  r.counters.emplace_back("q3", q3);
  if (!samples.empty()) {
    const auto [lo, hi] = std::ranges::minmax(samples);
    r.counters.emplace_back("min", lo);
    r.counters.emplace_back("max", hi);
  }
}

int run(const Options& opt) {
  const Config cfg = make_config(*opt.workload, opt.seed, opt.smoke);
  const std::string name = opt.workload->name;
  const bool traced_mode = !opt.traced_dir.empty();
  const unsigned fixed_reps =
      opt.reps != 0 ? opt.reps : (opt.smoke ? 2 : opt.workload->default_reps);
  // A time-boxed run still measures a few repetitions of each kind, but
  // never outlives the wall-clock cap.
  const unsigned min_reps = traced_mode ? 4 : 3;
  constexpr double kCapSeconds = 150.0;

  std::printf("ledger %s seed=%llu %s\n", name.c_str(),
              static_cast<unsigned long long>(opt.seed),
              traced_mode ? "traced" : "untraced");
  const Clock::time_point start = Clock::now();
  std::vector<RepOutcome> reps;
  std::uint64_t reference = 0;
  double measured_s = 0.0;
  for (int i = 0;; ++i) {
    const bool measured = i > 0;
    if (measured) {
      const auto count = static_cast<unsigned>(reps.size() - 1);
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (opt.seconds > 0.0) {
        if ((measured_s >= opt.seconds && count >= min_reps) ||
            (elapsed >= kCapSeconds && count >= 1)) {
          break;
        }
      } else if (count >= fixed_reps) {
        break;
      }
    }
    // Traced runs alternate untraced and traced repetitions, so the
    // taps' cost is measured in the same process and machine state.
    const bool traced = traced_mode && measured && i % 2 == 1;
    RepOutcome r = run_rep(cfg, i, traced);
    if (i == 0) {
      reference = r.digest;
    } else {
      check_digest(r.digest, reference, r.findings);
      measured_s += r.wall_s;
    }
    std::printf("  rep %2d %-7s wall=%.3fs setup=%.3fs work=%.3fs "
                "items/s=%.6g%s\n",
                i, traced ? "traced" : (measured ? "" : "warmup"), r.wall_s,
                r.setup_s, r.work_s, ratio(r.items, r.work_s),
                r.findings.empty() ? "" : "  FAILED");
    for (const std::string& f : r.findings.items()) {
      std::fprintf(stderr, "rep %d: %s\n", i, f.c_str());
    }
    reps.push_back(std::move(r));
  }

  // End-to-end metrics come from untraced measured repetitions only.
  std::vector<double> setup_s;
  std::vector<double> items_per_s;
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  // Failover events are timed by the bench's own spans, the same way
  // with or without taps, so every measured repetition contributes:
  // enough samples for a p99 with >= 10 beyond it.
  std::vector<double> apply_us;
  std::vector<double> repair_us;
  std::size_t failed = 0;
  std::string character;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepOutcome& r = reps[i];
    if (!r.findings.empty()) ++failed;
    if (character.empty()) character = r.character;
    if (i == 0) continue;
    apply_us.insert(apply_us.end(), r.apply_us.begin(), r.apply_us.end());
    repair_us.insert(repair_us.end(), r.repair_us.begin(), r.repair_us.end());
    if (r.traced) {
      traced_wall.push_back(r.wall_s);
    } else {
      setup_s.push_back(r.setup_s);
      items_per_s.push_back(ratio(r.items, r.work_s));
      untraced_wall.push_back(r.wall_s);
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = as_double(usage.ru_maxrss) / 1024.0;

  hp::obs::BenchReport report("ledger_" + name);
  add_timing(report, "e2e.setup_s", setup_s, "s", name);
  add_timing(report, "e2e.items_per_s", items_per_s, "1/s", name);
  report.add("e2e.peak_rss_mb", peak_rss_mb, "MB", name);

  if (traced_mode) {
    std::vector<RepOutcome> traced;
    std::map<std::string, std::vector<double>> layer;
    double covered_us = 0.0;
    for (RepOutcome& r : reps) {
      if (!r.traced) continue;
      for (const auto& [k, v] : r.layer) layer[k].push_back(v);
      for (const Span& s : r.spans) covered_us += s.self_us;
      traced.push_back(std::move(r));
    }
    std::vector<double> event_us(apply_us.size());
    for (std::size_t i = 0; i < apply_us.size(); ++i) {
      event_us[i] = apply_us[i] + repair_us[i];
    }
    std::map<std::string, double> pooled = {
        {"scenario.failover.event_us_p50", percentile(event_us, 0.50)},
        {"scenario.failover.event_us_p99", percentile(event_us, 0.99)},
        {"scenario.failover.apply_us_p50", percentile(apply_us, 0.50)},
        {"scenario.failover.apply_us_p99", percentile(apply_us, 0.99)},
        {"scenario.failover.repair_us_p50", percentile(repair_us, 0.50)},
        {"scenario.failover.repair_us_p99", percentile(repair_us, 0.99)},
    };
    double traced_total = 0.0;
    for (const double w : traced_wall) traced_total += w;
    const double coverage_pct = ratio(covered_us * 1e-4, traced_total);
    pooled["obs.span_coverage_pct"] = coverage_pct;
    pooled["obs.tap_overhead_pct"] =
        (ratio(median(traced_wall), median(untraced_wall)) - 1.0) * 100.0;
    for (const auto& [metric, unit] : kLayerMetrics) {
      std::vector<double> samples;
      if (const auto it = pooled.find(metric); it != pooled.end()) {
        samples = {it->second};
      } else if (const auto jt = layer.find(metric); jt != layer.end()) {
        samples = jt->second;
      }
      add_timing(report, std::string("layer.") + metric,
                 samples.empty() ? std::vector<double>{0.0} : samples, unit,
                 name);
    }
    report.add("run.failover_event_samples", as_double(event_us.size()),
               "count", name);
    write_trace(opt.traced_dir + "/trace_" + name + ".json", name, traced,
                coverage_pct);
  }

  for (const auto& [k, v] : reps.front().counts) {
    report.add("count." + k, v, "count", name);
  }
  report.add("digest", as_double(reference >> 11), "fnv1a", hex64(reference));
  report.add("run.attempted", as_double(reps.size()), "count", name);
  report.add("run.failed", as_double(failed), "count", name);
  report.add("run.character_ok", character.empty() ? 1.0 : 0.0, "bool",
             character.empty() ? name : character);
  report.add("run.fold_kernel", 0.0, "name",
             hp::polka::to_string(hp::polka::default_fold_kernel()));
  report.add("run.seed", as_double(opt.seed), "count", name);

  std::string path = opt.json_path;
  if (path.empty()) {
    path = report.write_default();
  } else {
    report.write(path);
  }
  const auto [q1, q3] = quartiles(items_per_s);
  std::printf("%s: setup_s=%.4g items/s=%.6g (IQR %.3g%%) peak_rss=%.1fMB "
              "failed=%zu/%zu digest=%s -> %s\n",
              name.c_str(), median(setup_s), median(items_per_s),
              100.0 * ratio(q3 - q1, median(items_per_s)), peak_rss_mb,
              failed, reps.size(), hex64(reference).c_str(), path.c_str());
  if (!character.empty()) {
    std::fprintf(stderr, "%s lost its character: %s\n", name.c_str(),
                 character.c_str());
  }
  return failed == 0 ? 0 : 1;
}

// --- the checker's own test ------------------------------------------

int self_test() {
  int bad = 0;
  auto expect = [&bad](const char* what, const Findings& f, bool flagged) {
    if (f.empty() == flagged) {
      std::fprintf(stderr, "self-test: %s: %s\n", what,
                   flagged ? "not flagged" : "flagged a clean input");
      ++bad;
    }
  };
  auto replay = [&](const char* what, sc::ScenarioReport r, bool flagged) {
    Findings f;
    check_replay(r, 100, f);
    expect(what, f, flagged);
  };
  sc::ScenarioReport clean;
  clean.packets = 100;
  replay("replay clean", clean, false);
  auto r = clean;
  r.wrong_egress = 1;
  replay("replay wrong egress", r, true);
  r = clean;
  r.packets = 99;
  replay("replay short", r, true);
  r = clean;
  r.ttl_expired = 1;
  replay("replay ttl", r, true);

  auto sim = [&](const char* what, const hp::sim::SimReport& s,
                 bool flagged) {
    Findings f;
    check_sim(s, 100, f);
    expect(what, f, flagged);
  };
  hp::sim::SimReport open;
  open.forwarding.packets = 90;
  open.forwarding.dropped_packets = 10;
  sim("sim open clean", open, false);
  auto s = open;
  s.forwarding.packets = 89;
  sim("sim open lost packet", s, true);
  s = open;
  s.forwarding.wrong_egress = 1;
  sim("sim wrong egress", s, true);
  hp::sim::SimReport closed;
  closed.transport.enabled = true;
  closed.transport.packets_sent = 120;
  closed.forwarding.packets = 110;
  closed.forwarding.dropped_packets = 10;
  closed.flows = 10;
  closed.completed_flows = 9;
  closed.transport.abandoned_flows = 1;
  sim("sim closed clean", closed, false);
  s = closed;
  s.completed_flows = 8;
  sim("sim closed unresolved flow", s, true);
  s = closed;
  s.transport.packets_sent = 121;
  sim("sim closed unaccounted send", s, true);

  auto event = [&](const char* what, const sc::FailoverReport& ev,
                   bool flagged) {
    Findings f;
    check_event(ev, f);
    expect(what, f, flagged);
  };
  sc::FailoverReport ev;
  ev.affected = {{1, 2}, {3, 4}, {5, 6}};
  ev.swapped = {{3, 4}};
  ev.swap_stretch = {1.5};
  ev.pending = {{1, 2}};
  ev.unroutable = {{5, 6}};
  event("event clean", ev, false);
  auto e = ev;
  e.unroutable.clear();
  event("event missing pair", e, true);
  e = ev;
  e.repaired = {{3, 4}};
  event("event pair in two lists", e, true);
  e = ev;
  e.swap_stretch.clear();
  event("event stretch mismatch", e, true);

  sc::FailoverReport fixed;
  fixed.repaired = {{1, 2}};
  {
    Findings f;
    check_repair(ev, fixed, f);
    expect("repair clean", f, false);
  }
  {
    Findings f;
    check_repair(ev, sc::FailoverReport{}, f);
    expect("repair dropped a parked pair", f, true);
  }
  {
    Findings f;
    check_digest(1, 2, f);
    expect("digest mismatch", f, true);
  }
  {
    Findings f;
    guarded(f, [] { throw std::runtime_error("boom"); });
    expect("exception", f, true);
  }
  if (fnv1a("") != 0xcbf29ce484222325ULL ||
      fnv1a("a") != 0xaf63dc4c8601ec8cULL) {
    std::fprintf(stderr, "self-test: fnv1a test vectors\n");
    ++bad;
  }
  const auto [q1, q3] = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  if (q1 != 2.75 || q3 != 8.25 || median({4, 1, 3, 2}) != 2.5 ||
      percentile({1, 2, 3, 4}, 0.5) != 2.0) {
    std::fprintf(stderr, "self-test: statistics\n");
    ++bad;
  }
  std::printf("self-test: %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_ledger --workload NAME [--seed S] "
               "[--reps N | --seconds T] [--traced DIR] [--json PATH] "
               "[--smoke]\n       bench_ledger --self-test\nworkloads:");
  for (const WorkloadInfo& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value");
        return argv[++i];
      };
      if (arg == "--workload") {
        const std::string w = next();
        for (const WorkloadInfo& info : kWorkloads) {
          if (w == info.name) opt.workload = &info;
        }
        if (opt.workload == nullptr) return usage();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(next());
      } else if (arg == "--reps") {
        opt.reps = static_cast<unsigned>(std::stoul(next()));
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(next());
      } else if (arg == "--traced") {
        opt.traced_dir = next();
      } else if (arg == "--json") {
        opt.json_path = next();
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--self-test") {
        opt.self_test = true;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (opt.self_test) return self_test();
  if (opt.workload == nullptr) return usage();
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_ledger: %s\n", e.what());
    return 1;
  }
}
