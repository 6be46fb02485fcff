#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hp::obs {

std::size_t this_thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

const char* to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

std::uint64_t HistogramData::percentile(double q) const noexcept {
  if (count == 0) return 0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(clamped * static_cast<double>(count))));
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (rank <= buckets[b]) {
      // A bucket only bounds its samples; clamping to [min, max] makes
      // the estimate exact at both distribution edges.
      return std::clamp(histogram_bucket_limit(b), min, max);
    }
    rank -= buckets[b];
  }
  return max;
}

void Histogram::record_n(std::uint64_t v, std::uint64_t n) noexcept {
  if (n == 0) return;
  Shard& s = shards_[this_thread_shard()];
  s.count.fetch_add(n, std::memory_order_relaxed);
  s.sum.fetch_add(v * n, std::memory_order_relaxed);
  s.buckets[histogram_bucket(v)].fetch_add(n, std::memory_order_relaxed);
  std::uint64_t seen = s.min.load(std::memory_order_relaxed);
  while (v < seen &&
         !s.min.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  seen = s.max.load(std::memory_order_relaxed);
  while (v > seen &&
         !s.max.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

HistogramData Histogram::data() const noexcept {
  HistogramData out;
  std::uint64_t min_seen = ~std::uint64_t{0};
  for (const Shard& s : shards_) {
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
    min_seen = std::min(min_seen, s.min.load(std::memory_order_relaxed));
    out.max = std::max(out.max, s.max.load(std::memory_order_relaxed));
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  out.min = out.count == 0 ? 0 : min_seen;
  return out;
}

const MetricValue* MetricsSnapshot::find(
    std::string_view name) const noexcept {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), name,
      [](const MetricValue& e, std::string_view n) { return e.name < n; });
  return it != entries.end() && it->name == name ? &*it : nullptr;
}

std::uint64_t MetricsSnapshot::counter_or(
    std::string_view name, std::uint64_t fallback) const noexcept {
  const MetricValue* entry = find(name);
  return entry != nullptr && entry->kind == MetricKind::kCounter
             ? entry->counter
             : fallback;
}

namespace {

[[noreturn]] void throw_kind_clash(std::string_view name, MetricKind have,
                                   MetricKind want) {
  throw std::invalid_argument("MetricRegistry: \"" + std::string(name) +
                              "\" already registered as " +
                              std::string(to_string(have)) + ", requested " +
                              to_string(want));
}

}  // namespace

Counter& MetricRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    if (it->second.kind != MetricKind::kCounter) {
      throw_kind_clash(name, it->second.kind, MetricKind::kCounter);
    }
    return counters_[it->second.index];
  }
  counters_.emplace_back();
  by_name_.emplace(std::string(name),
                   Entry{MetricKind::kCounter, counters_.size() - 1});
  return counters_.back();
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    if (it->second.kind != MetricKind::kGauge) {
      throw_kind_clash(name, it->second.kind, MetricKind::kGauge);
    }
    return gauges_[it->second.index];
  }
  gauges_.emplace_back();
  by_name_.emplace(std::string(name),
                   Entry{MetricKind::kGauge, gauges_.size() - 1});
  return gauges_.back();
}

Histogram& MetricRegistry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    if (it->second.kind != MetricKind::kHistogram) {
      throw_kind_clash(name, it->second.kind, MetricKind::kHistogram);
    }
    return histograms_[it->second.index];
  }
  histograms_.emplace_back();
  by_name_.emplace(std::string(name),
                   Entry{MetricKind::kHistogram, histograms_.size() - 1});
  return histograms_.back();
}

MetricsSnapshot MetricRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.entries.reserve(by_name_.size());
  // std::map iterates name-sorted, which is the snapshot order.
  for (const auto& [name, entry] : by_name_) {
    MetricValue v;
    v.name = name;
    v.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        v.counter = counters_[entry.index].value();
        break;
      case MetricKind::kGauge:
        v.gauge = gauges_[entry.index].value();
        break;
      case MetricKind::kHistogram:
        v.histogram = histograms_[entry.index].data();
        break;
    }
    snap.entries.push_back(std::move(v));
  }
  return snap;
}

std::vector<std::pair<std::string, std::int64_t>> MetricRegistry::gauges()
    const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::int64_t>> out;
  for (const auto& [name, entry] : by_name_) {
    if (entry.kind != MetricKind::kGauge) continue;
    out.emplace_back(name, gauges_[entry.index].value());
  }
  return out;
}

std::size_t MetricRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return by_name_.size();
}

}  // namespace hp::obs
