#pragma once
// MetricRegistry: fabric-wide counters, gauges and latency histograms.
//
// The paper's Telemetry Service assumes the data plane can be observed
// continuously without perturbing it.  This registry is the collection
// side of that contract, shaped by two requirements:
//
//  * the hot path must be lock-free and contention-free: every metric
//    owns one cache-line-padded slot per shard, a recording thread
//    picks its shard once (thread_local, round-robin) and then only
//    ever touches that slot with relaxed atomics -- no mutex, no
//    cross-core cache-line ping-pong on the replay inner loops;
//  * snapshots must be deterministic: snapshot() merges the per-shard
//    slots by summation and emits entries sorted by name, so a run
//    whose *recorded values* are deterministic (e.g. the integer-tick
//    simulator) produces a bit-identical MetricsSnapshot regardless of
//    how many threads recorded or how the shards were assigned.
//
// Three metric kinds:
//  * Counter   -- monotonically growing uint64 (add);
//  * Gauge     -- signed level (add/sub, plus single-writer set);
//  * Histogram -- log-bucketed value distribution: value v lands in
//    bucket bit_width(v) (bucket 0 holds zeros), i.e. power-of-two
//    buckets, 65 total, covering the full uint64 range.  count/sum/
//    min/max ride along so means and ranges need no bucket math.
//
// Registration (counter()/gauge()/histogram()) takes a mutex and
// returns a stable reference: resolve handles once, record forever.
// Components take a `MetricRegistry*` and treat nullptr as "metrics
// off" -- the disabled baseline costs one branch.

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hp::obs {

/// Number of independent per-metric slots.  Threads map onto shards
/// round-robin, so contention appears only beyond kShards concurrent
/// recorders (and is then still just shared atomics, never a lock).
inline constexpr std::size_t kShards = 8;

/// The calling thread's shard index: assigned round-robin on first use
/// and pinned for the thread's lifetime.
[[nodiscard]] std::size_t this_thread_shard() noexcept;

namespace detail {
/// One padded 64-bit cell.  alignas(64) keeps neighbouring shards on
/// different cache lines so relaxed fetch_adds never false-share.
struct alignas(64) PaddedCell {
  std::atomic<std::uint64_t> value{0};
};
static_assert(sizeof(PaddedCell) == 64, "one cache line per shard");
}  // namespace detail

/// Monotonic counter.  add() is lock-free (one relaxed fetch_add on
/// the caller's shard); value() merges the shards.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[this_thread_shard()].value.fetch_add(n,
                                                 std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  std::array<detail::PaddedCell, kShards> shards_{};
};

/// Signed level.  add()/sub() are lock-free per-shard deltas; value()
/// sums them.  set() is a convenience for single-writer gauges (e.g.
/// the single-threaded simulator): it rewrites the caller's shard so
/// the merged value equals `v`, and is NOT atomic against concurrent
/// writers on other shards.
class Gauge {
 public:
  void add(std::int64_t n) noexcept {
    shards_[this_thread_shard()].value.fetch_add(
        static_cast<std::uint64_t>(n), std::memory_order_relaxed);
  }
  void sub(std::int64_t n) noexcept { add(-n); }

  void set(std::int64_t v) noexcept { add(v - value()); }

  [[nodiscard]] std::int64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return static_cast<std::int64_t>(total);
  }

 private:
  std::array<detail::PaddedCell, kShards> shards_{};
};

/// Number of log buckets: bucket 0 holds zeros, bucket b >= 1 holds
/// values with bit_width == b, i.e. [2^(b-1), 2^b).
inline constexpr std::size_t kHistogramBuckets = 65;

/// Bucket index of one recorded value.
[[nodiscard]] constexpr std::size_t histogram_bucket(
    std::uint64_t v) noexcept {
  return static_cast<std::size_t>(std::bit_width(v));
}

/// Inclusive upper bound of one bucket (the value a percentile
/// estimate reports for samples landing there).
[[nodiscard]] constexpr std::uint64_t histogram_bucket_limit(
    std::size_t bucket) noexcept {
  if (bucket == 0) return 0;
  if (bucket >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << bucket) - 1;
}

/// Merged view of one histogram.
struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when count == 0
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Nearest-rank percentile estimate from the log buckets: the upper
  /// bound of the bucket holding the ceil(q * count)-th sample (exact
  /// min/max at the extremes, 0 when empty).
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept;

  friend bool operator==(const HistogramData&,
                         const HistogramData&) noexcept = default;
};

/// Log-bucketed distribution.  record() is lock-free: one relaxed
/// bucket increment plus count/sum adds and min/max CAS loops, all on
/// the caller's shard.
class Histogram {
 public:
  void record(std::uint64_t v) noexcept { record_n(v, 1); }

  /// `n` samples of value `v` at once, exactly as n record(v) calls
  /// would land them (no-op when n == 0).  Lets a single-threaded
  /// producer count locally and merge once.
  void record_n(std::uint64_t v, std::uint64_t n) noexcept;

  /// Merge every shard into one HistogramData.
  [[nodiscard]] HistogramData data() const noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  };
  std::array<Shard, kShards> shards_{};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(MetricKind kind) noexcept;

/// One metric's merged state at snapshot time.  Exactly one of the
/// value fields is meaningful, selected by `kind`.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter = 0;
  std::int64_t gauge = 0;
  HistogramData histogram;

  friend bool operator==(const MetricValue&, const MetricValue&) = default;
};

/// Deterministically ordered (by name) merge of a whole registry.
struct MetricsSnapshot {
  std::vector<MetricValue> entries;

  /// Entry by exact name; nullptr when absent.
  [[nodiscard]] const MetricValue* find(std::string_view name) const noexcept;

  [[nodiscard]] std::uint64_t counter_or(std::string_view name,
                                         std::uint64_t fallback = 0)
      const noexcept;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

/// Named metric store.  Registration is mutex-guarded and idempotent
/// (same name + kind returns the same object; same name with another
/// kind throws std::invalid_argument).  Returned references stay valid
/// for the registry's lifetime.
class MetricRegistry {
 public:
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// Merge every metric into a name-sorted snapshot.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Current (name, value) of every registered gauge, name-sorted --
  /// the slice the telemetry bridge samples on each tick.
  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> gauges()
      const;

  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    MetricKind kind;
    std::size_t index;  ///< into the kind's deque
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> by_name_;
  // Deques: stable addresses across registration, no atomic copies.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

}  // namespace hp::obs
