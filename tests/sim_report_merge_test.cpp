// Report schema tests: ScenarioReport partial reports merge by summing
// counters (replay's shard and epoch merge), and SimReport's FCT
// percentiles are nearest-rank statistics over its retained samples.

#include <gtest/gtest.h>

#include <limits>

#include "core/contracts.hpp"
#include "scenario/runner.hpp"
#include "sim/report.hpp"

namespace scenario = hp::scenario;
namespace sim = hp::sim;

namespace {

scenario::ScenarioReport counted(std::size_t base) {
  scenario::ScenarioReport r;
  r.packets = base + 1;
  r.mod_operations = base + 2;
  r.wrong_egress = base + 3;
  r.rerouted_pairs = base + 4;
  r.dropped_packets = base + 5;
  r.ttl_expired = base + 6;
  r.segmented_packets = base + 7;
  r.segment_swaps = base + 8;
  r.seconds = static_cast<double>(base) + 0.5;
  return r;
}

TEST(ScenarioReportMerge, CountersSumAndKernelIsKept) {
  scenario::ScenarioReport merged = counted(100);
  merged.fold_kernel = hp::polka::FoldKernel::kClmulBarrett;
  scenario::ScenarioReport partial = counted(10);
  partial.fold_kernel = hp::polka::FoldKernel::kClmulBarrett;

  merged.merge_from(partial);
  EXPECT_EQ(merged.packets, 112u);
  EXPECT_EQ(merged.mod_operations, 114u);
  EXPECT_EQ(merged.wrong_egress, 116u);
  EXPECT_EQ(merged.rerouted_pairs, 118u);
  EXPECT_EQ(merged.dropped_packets, 120u);
  EXPECT_EQ(merged.ttl_expired, 122u);
  EXPECT_EQ(merged.segmented_packets, 124u);
  EXPECT_EQ(merged.segment_swaps, 126u);
  EXPECT_DOUBLE_EQ(merged.seconds, 111.0);
  EXPECT_EQ(merged.fold_kernel, hp::polka::FoldKernel::kClmulBarrett);
}

TEST(ScenarioReportMerge, MergingDefaultIsIdentity) {
  scenario::ScenarioReport merged = counted(7);
  const scenario::ScenarioReport before = merged;
  merged.merge_from(scenario::ScenarioReport{});
  EXPECT_EQ(merged, before);
}

TEST(SimReportMerge, PercentilesAreNearestRank) {
  sim::SimReport report;
  for (sim::Tick v = 1; v <= 20; ++v) report.fct_ns.push_back(21 - v);
  // ceil(0.5 * 20) = 10th order statistic; ceil(0.95 * 20) = 19th.
  EXPECT_EQ(report.fct_p50_ns(), 10u);
  EXPECT_EQ(report.fct_p95_ns(), 19u);

  sim::SimReport empty;
  EXPECT_EQ(empty.fct_p50_ns(), 0u);
  EXPECT_EQ(empty.fct_p95_ns(), 0u);

  sim::SimReport one;
  one.fct_ns = {42};
  EXPECT_EQ(one.fct_p50_ns(), 42u);
  EXPECT_EQ(one.fct_p95_ns(), 42u);
}

TEST(Contracts, FctPercentileRejectsQOutsideUnitInterval) {
  using hp::core::ContractViolation;
  sim::SimReport report;
  report.fct_ns = {30, 10, 20};
  // q < 0 or NaN would reach a size_t cast of a negative or NaN rank.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)report.fct_percentile_ns(-0.5), ContractViolation);
  EXPECT_THROW((void)report.fct_percentile_ns(1.5), ContractViolation);
  EXPECT_THROW((void)report.fct_percentile_ns(nan), ContractViolation);
  // The closed ends stay legal: the minimum and the maximum.
  EXPECT_EQ(report.fct_percentile_ns(0.0), 10u);
  EXPECT_EQ(report.fct_percentile_ns(1.0), 30u);
  // An empty report checks q too.
  const sim::SimReport empty;
  EXPECT_THROW((void)empty.fct_percentile_ns(-1.0), ContractViolation);
}

}  // namespace
