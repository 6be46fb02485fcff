#include "sim/report.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"

namespace hp::sim {

Tick SimReport::fct_percentile_ns(double q) const {
  // Written so NaN fails too; it would reach the size_t cast below.
  HP_CHECK(q >= 0.0 && q <= 1.0,
           "SimReport::fct_percentile_ns: q outside [0, 1]");
  if (fct_ns.empty()) return 0;
  std::vector<Tick> sorted(fct_ns);
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank: the ceil(q * n)-th order statistic, clamped to
  // [1, n] (same rule as netsim::collect_fct's p95 -- floor-indexing
  // selects one statistic too high).
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

}  // namespace hp::sim
