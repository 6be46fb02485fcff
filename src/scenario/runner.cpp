#include "scenario/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/failover_playback.hpp"
#include "scenario/shard.hpp"

namespace hp::scenario {

namespace {

/// Handles resolved once per replay (registration takes a mutex; the
/// workers then only touch their lock-free shards).  Null when metrics
/// are off.
struct ReplayMetrics {
  obs::Counter* packets = nullptr;       ///< added per batch flush
  obs::Counter* folds = nullptr;         ///< added per batch flush
  obs::Counter* wrong_egress = nullptr;  ///< the rest: added per slice
  obs::Counter* ttl_expired = nullptr;
  obs::Counter* dropped_packets = nullptr;
  obs::Counter* segmented_packets = nullptr;
  obs::Counter* segment_swaps = nullptr;
  obs::Counter* slices = nullptr;
  obs::Histogram* slice_ns = nullptr;  ///< wall clock of one worker slice

  static ReplayMetrics resolve(obs::MetricRegistry& reg) {
    ReplayMetrics m;
    m.packets = &reg.counter("replay.packets");
    m.folds = &reg.counter("replay.folds");
    m.wrong_egress = &reg.counter("replay.wrong_egress");
    m.ttl_expired = &reg.counter("replay.ttl_expired");
    m.dropped_packets = &reg.counter("replay.dropped_packets");
    m.segmented_packets = &reg.counter("replay.segmented_packets");
    m.segment_swaps = &reg.counter("replay.segment_swaps");
    m.slices = &reg.counter("replay.slices");
    m.slice_ns = &reg.histogram("replay.slice_ns");
    return m;
  }
};

/// One worker's walk over its slice: fill private batch buffers
/// (skipping dead pairs), stream them through the compiled fabric and
/// check each result against its pair's expectation.  Multi-segment
/// lanes fill their own batch and stream through the pooled
/// forward_batch_segmented -- the same interleaved fold walk as the
/// single-label batch, just carrying each lane's pooled labels.
void replay_slice(const polka::CompiledFabric& fabric,
                  std::span<const polka::RouteLabel> labels,
                  std::span<const std::uint32_t> ingress,
                  std::span<const std::uint32_t> index,
                  std::span<const polka::PacketResult> expected,
                  std::span<const std::uint8_t> alive,
                  const SegmentTable& segments, std::size_t batch_size,
                  std::size_t max_hops, ScenarioReport& out,
                  const ReplayMetrics* rm) {
  const auto slice_start = std::chrono::steady_clock::now();
  std::vector<polka::RouteLabel> batch_labels(batch_size);
  std::vector<std::uint32_t> batch_firsts(batch_size);
  std::vector<std::uint32_t> batch_index(batch_size);
  std::vector<polka::PacketResult> batch_results(batch_size);
  // Segmented-lane buffers exist only when the stream has segments.
  const std::size_t seg_capacity = segments.refs.empty() ? 0 : batch_size;
  std::vector<polka::SegmentRef> seg_refs(seg_capacity);
  std::vector<std::uint32_t> seg_firsts(seg_capacity);
  std::vector<std::uint32_t> seg_index(seg_capacity);
  std::vector<polka::PacketResult> seg_results(seg_capacity);
  std::size_t fill = 0;
  std::size_t seg_fill = 0;
  // HP_HOT_BEGIN(replay_slice)
  // Per-packet lane fill + batch flushes.  The buffers above are the
  // slice's only allocations; from here on the loop must stay
  // growth-free so replay cost is O(packets) folds, not allocator
  // traffic (lint rule hot-path-purity; pinned by alloc_guard_test's
  // packet-count-independent allocation assertion).
  auto score = [&](const polka::PacketResult& result, std::uint32_t lane) {
    if (result.ttl_expired) {
      ++out.ttl_expired;
    } else if (result != expected[lane]) {
      ++out.wrong_egress;
    }
  };
  auto flush = [&] {
    if (fill == 0) return;
    const std::size_t mods = fabric.forward_batch(
        std::span<const polka::RouteLabel>(batch_labels.data(), fill),
        std::span<const std::uint32_t>(batch_firsts.data(), fill),
        std::span<polka::PacketResult>(batch_results.data(), fill), max_hops);
    out.mod_operations += mods;
    for (std::size_t i = 0; i < fill; ++i) {
      score(batch_results[i], batch_index[i]);
    }
    out.packets += fill;
    // Flush-granular, never per-packet: one sharded add per batch.
    if (rm != nullptr) {
      rm->packets->add(fill);
      rm->folds->add(mods);
    }
    fill = 0;
  };
  auto flush_segmented = [&] {
    if (seg_fill == 0) return;
    const std::size_t mods = fabric.forward_batch_segmented(
        segments.labels, segments.waypoints,
        std::span<const polka::SegmentRef>(seg_refs.data(), seg_fill),
        std::span<const std::uint32_t>(seg_firsts.data(), seg_fill),
        std::span<polka::PacketResult>(seg_results.data(), seg_fill),
        max_hops);
    out.mod_operations += mods;
    for (std::size_t i = 0; i < seg_fill; ++i) {
      score(seg_results[i], seg_index[i]);
    }
    out.packets += seg_fill;
    if (rm != nullptr) {
      rm->packets->add(seg_fill);
      rm->folds->add(mods);
    }
    seg_fill = 0;
  };
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::uint32_t lane = index[i];
    if (!alive.empty() && !alive[lane]) {
      ++out.dropped_packets;
      continue;
    }
    if (!segments.refs.empty() && segments.refs[lane].label_count > 1) {
      const polka::SegmentRef& ref = segments.refs[lane];
      seg_refs[seg_fill] = ref;
      seg_firsts[seg_fill] = ingress[i];
      seg_index[seg_fill] = lane;
      ++out.segmented_packets;
      out.segment_swaps += ref.label_count - 1;
      if (++seg_fill == batch_size) flush_segmented();
      continue;
    }
    batch_labels[fill] = labels[i];
    batch_firsts[fill] = ingress[i];
    batch_index[fill] = lane;
    ++fill;
    if (fill == batch_size) flush();
  }
  flush();
  flush_segmented();
  // HP_HOT_END(replay_slice)
  if (rm != nullptr) {
    rm->wrong_egress->add(out.wrong_egress);
    rm->ttl_expired->add(out.ttl_expired);
    rm->dropped_packets->add(out.dropped_packets);
    rm->segmented_packets->add(out.segmented_packets);
    rm->segment_swaps->add(out.segment_swaps);
    rm->slices->add(1);
    rm->slice_ns->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - slice_start)
            .count()));
  }
}

}  // namespace

ScenarioReport replay_shards(const polka::CompiledFabric& fabric,
                             std::span<const polka::RouteLabel> labels,
                             std::span<const std::uint32_t> ingress,
                             std::span<const std::uint32_t> index,
                             std::span<const polka::PacketResult> expected,
                             std::span<const std::uint8_t> alive,
                             SegmentTable segments, unsigned threads,
                             std::size_t batch_size, std::size_t max_hops,
                             obs::MetricRegistry* metrics) {
  if (labels.size() != ingress.size() || labels.size() != index.size()) {
    throw std::invalid_argument("replay_shards: span length mismatch");
  }
  if (batch_size == 0) {
    throw std::invalid_argument("replay_shards: batch_size must be > 0");
  }
  if (!segments.refs.empty() && segments.refs.size() < expected.size()) {
    throw std::invalid_argument(
        "replay_shards: segment refs do not cover every lane");
  }
  const std::size_t total = labels.size();
  std::size_t workers = std::max<unsigned>(threads, 1);
  workers = std::min(workers, std::max<std::size_t>(total, 1));

  // Resolve handles before spawning anyone; workers then record on
  // their lock-free shards only.
  ReplayMetrics rm_storage;
  const ReplayMetrics* rm = nullptr;
  if (metrics != nullptr) {
    rm_storage = ReplayMetrics::resolve(*metrics);
    rm = &rm_storage;
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<ScenarioReport> partial(workers);
  if (workers == 1) {
    replay_slice(fabric, labels, ingress, index, expected, alive, segments,
                 batch_size, max_hops, partial[0], rm);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      const auto [begin, end] = shard_bounds(total, w, workers);
      pool.emplace_back([&, w, begin = begin, end = end] {
        replay_slice(fabric, labels.subspan(begin, end - begin),
                     ingress.subspan(begin, end - begin),
                     index.subspan(begin, end - begin), expected, alive,
                     segments, batch_size, max_hops, partial[w], rm);
      });
    }
    for (auto& t : pool) t.join();
  }
  ScenarioReport report;
  report.fold_kernel = fabric.kernel();
  // Worker partials follow the documented shard-merge schema: counters
  // sum; their `seconds` are zero (concurrent shard wall clock must be
  // measured around the join, not summed) and are overwritten below.
  for (const ScenarioReport& p : partial) report.merge_from(p);
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

ScenarioReport ScenarioRunner::run(BuiltFabric& fabric,
                                   PacketStream& stream) const {
  // Hand the taps to the fabric too, so failure repairs below show up
  // as compile.* metrics/phases (skip when we have none to offer --
  // the caller may have attached its own).
  if (options_.metrics != nullptr || options_.trace != nullptr) {
    fabric.set_observability(options_.metrics, options_.trace);
  }
  const std::size_t total = stream.size();
  // Pre-install the protection plane before any packet moves: failures
  // then swap to backups in O(1) instead of recompiling.
  if (options_.protection_k > 0) {
    obs::TraceScope protect_scope(options_.trace, "replay.protect", "replay");
    (void)fabric.enable_protection(options_.protection_k);
  }
  // Compile the flattened view before any thread is spawned: the lazy
  // compiled() cache is not thread-safe to build concurrently.
  const polka::CompiledFabric& fast = fabric.compiled();

  FailoverPlayback playback(fabric, stream.pairs, options_.failures);
  std::vector<std::uint8_t> alive(stream.pairs.size(), 1);
  // Streams built before segmentation (or by hand) may lack refs; give
  // every lane a default single-label ref so repair can upgrade it.
  if (stream.seg_refs.size() < stream.pairs.size()) {
    stream.seg_refs.resize(stream.pairs.size());
  }
  // Contiguous copy of the per-pair expectations (TrafficPair embeds
  // them with a stride); refreshed whenever a failure rewrites one.
  std::vector<polka::PacketResult> expected(stream.pairs.size());
  for (std::size_t i = 0; i < stream.pairs.size(); ++i) {
    expected[i] = stream.pairs[i].expected;
  }

  ScenarioReport report;
  report.fold_kernel = fast.kernel();
  std::size_t done = 0;
  // Stream position of the next scheduled event, never behind `done`.
  auto next_boundary = [&] {
    const auto at = static_cast<std::size_t>(std::llround(
        playback.next().at_fraction * static_cast<double>(total)));
    return std::clamp(at, done, total);
  };
  // Replay [done, upto) with the current labels and alive mask.
  auto replay_to = [&](std::size_t upto) {
    if (upto <= done) return;
    // Spans over the stream's pools are rebuilt per call: failure
    // repair may grow them (and reallocate).
    const SegmentTable segments{stream.seg_labels, stream.seg_waypoints,
                                stream.seg_refs};
    const std::size_t count = upto - done;
    const ScenarioReport part = replay_shards(
        fast,
        std::span<const polka::RouteLabel>(stream.labels.data() + done, count),
        std::span<const std::uint32_t>(stream.ingress.data() + done, count),
        std::span<const std::uint32_t>(stream.pair.data() + done, count),
        expected, alive, segments, options_.threads, options_.batch_size,
        options_.max_hops, options_.metrics);
    // Sequential partials: counters and wall clock both sum.
    report.merge_from(part);
    done = upto;
  };

  while (done < total || !playback.done()) {
    const std::size_t end = playback.done() ? total : next_boundary();
    if (end > done) {
      obs::TraceScope epoch_scope(options_.trace, "replay.epoch", "replay");
      replay_to(end);
      if (options_.metrics != nullptr) {
        options_.metrics->counter("replay.epochs").add(1);
      }
    }
    if (playback.done()) continue;
    obs::TraceScope repair_scope(
        options_.trace,
        playback.next().restore ? "replay.restore" : "replay.repair",
        "replay");
    const auto t0 = std::chrono::steady_clock::now();
    const FailoverEvent ev = playback.step();
    const auto switchover = std::chrono::steady_clock::now() - t0;
    if (ev.duplicate) continue;

    // Repoint every rerouted lane at its new route (a restore revives
    // lanes an earlier failure severed) and rewrite the unreplayed
    // tail's labels in one pass.  Recompiled lanes -- not swapped ones
    // -- enter the loss window below.
    std::vector<std::uint32_t> window_lanes;
    if (!ev.rerouted.empty()) {
      std::vector<const CompiledRoute*> new_route(stream.pairs.size(), nullptr);
      for (const LaneReroute& r : ev.rerouted) {
        alive[r.lane] = 1;
        stream.pairs[r.lane].expected = r.route->expected;
        expected[r.lane] = r.route->expected;
        // A detour may gain or lose segments; pool the new list and
        // repoint the lane (orphaning its old slice is harmless).
        stream.seg_refs[r.lane] = append_segments(stream, r.route->segments);
        new_route[r.lane] = r.route;
        if (r.kind != RerouteKind::kSwap) window_lanes.push_back(r.lane);
      }
      for (std::size_t i = done; i < total; ++i) {
        if (const CompiledRoute* route = new_route[stream.pair[i]]) {
          stream.labels[i] = route->segments.labels.front();
        }
      }
    }

    // Severed lanes: mark dead (remaining packets drop) and charge
    // their unreplayed tail to the failover loss account.
    std::size_t lost = 0;
    if (!ev.severed.empty()) {
      std::vector<char> is_severed(stream.pairs.size(), 0);
      for (const std::uint32_t lane : ev.severed) {
        alive[lane] = 0;
        is_severed[lane] = 1;
      }
      for (std::size_t i = done; i < total; ++i) {
        if (is_severed[stream.pair[i]] != 0) ++lost;
      }
    }
    const std::size_t swaps = ev.count(RerouteKind::kSwap);
    const std::size_t lazy_repairs = ev.count(RerouteKind::kLazyRepair);
    report.rerouted_pairs += ev.rerouted.size();
    report.backup_swapped_pairs += swaps;
    report.lazy_repaired_pairs += lazy_repairs;
    report.unroutable_pairs += ev.severed.size();
    report.window_recompiles += ev.window_recompiles;

    // Convergence-loss model: each *recompiled* lane loses its own
    // next loss_window_per_recompile packets.  The tail is chopped at
    // each lane's window end and replayed with the still-converging
    // lanes masked dead, so drops thread through the normal shard
    // accounting and stay per-pair exact.  Swapped lanes never enter
    // this block: that asymmetry is what "hitless" means.
    if (!window_lanes.empty() && options_.loss_window_per_recompile > 0 &&
        done < total) {
      // Windows never run past the next scheduled event.
      const std::size_t bound = playback.done() ? total : next_boundary();
      std::unordered_map<std::uint32_t, std::size_t> quota;
      for (const std::uint32_t lane : window_lanes) {
        if (alive[lane] != 0) {
          quota.emplace(lane, options_.loss_window_per_recompile);
        }
      }
      // One forward walk finds each lane's window end (the stream
      // position of its last lost packet) and the loss count.
      std::vector<std::pair<std::size_t, std::uint32_t>> chops;
      std::vector<std::uint32_t> unfinished;
      {
        auto remaining = quota;
        for (std::size_t i = done; i < bound && !remaining.empty(); ++i) {
          const auto it = remaining.find(stream.pair[i]);
          if (it == remaining.end()) continue;
          ++lost;
          if (--it->second == 0) {
            chops.emplace_back(i + 1, it->first);
            remaining.erase(it);
          }
        }
        for (const auto& [lane, left] : remaining) {
          unfinished.push_back(lane);
        }
      }
      for (const auto& [lane, left] : quota) alive[lane] = 0;
      for (const auto& [chop_end, lane] : chops) {
        replay_to(chop_end);
        alive[lane] = 1;  // this lane converged; it forwards again
      }
      if (!unfinished.empty()) {
        // Lanes whose window outlives the inter-event gap (or the
        // stream) stay masked to the bound, then resume.
        replay_to(bound);
        for (const std::uint32_t lane : unfinished) alive[lane] = 1;
      }
    }
    report.failover_packets_lost += lost;

    if (options_.metrics != nullptr) {
      obs::MetricRegistry& reg = *options_.metrics;
      reg.counter(ev.failure.restore ? "replay.failover.restores"
                                     : "replay.failover.failures")
          .add(1);
      reg.counter("replay.failover.swaps").add(swaps);
      reg.counter("replay.failover.window_recompiles")
          .add(ev.window_recompiles);
      reg.counter("replay.failover.lazy_repairs").add(lazy_repairs);
      reg.counter("replay.failover.packets_lost").add(lost);
      reg.counter("replay.failover.unroutable_pairs").add(ev.severed.size());
      // Backup-path stretch in percent: deterministic content (a
      // pure path-length ratio), unlike the wall-clock histogram
      // below whose _ns suffix keeps it out of snapshot diffing.
      for (const double stretch : ev.swap_stretch) {
        reg.histogram("replay.failover.stretch_pct")
            .record(static_cast<std::uint64_t>(
                std::llround(stretch * 100.0)));
      }
      reg.histogram("replay.failover.switchover_ns")
          .record(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(switchover)
                  .count()));
    }
  }
  if (options_.metrics != nullptr) {
    options_.metrics->counter("replay.rerouted_pairs")
        .add(report.rerouted_pairs);
  }
  return report;
}

}  // namespace hp::scenario
