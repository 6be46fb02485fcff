// Contract-macro semantics (core/contracts.hpp) and the enforcement
// points wired into the protection and event-queue layers.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "scenario/protection.hpp"
#include "sim/event_queue.hpp"

namespace hp {
namespace {

TEST(Contracts, CheckPassesSilently) {
  int evaluations = 0;
  EXPECT_NO_THROW(HP_CHECK(++evaluations == 1, "must hold"));
  EXPECT_EQ(evaluations, 1);  // condition evaluated exactly once
}

TEST(Contracts, CheckThrowsContractViolationWithContext) {
  try {
    HP_CHECK(1 + 1 == 3, "arithmetic drifted");
    FAIL() << "HP_CHECK(false) did not throw";
  } catch (const core::ContractViolation& e) {
    const std::string what = e.what();
    // The message carries the caller's explanation, the stringized
    // expression, and the source location -- enough to act on from a
    // CI log alone.
    EXPECT_NE(what.find("arithmetic drifted"), std::string::npos) << what;
    EXPECT_NE(what.find("1 + 1 == 3"), std::string::npos) << what;
    EXPECT_NE(what.find("core_contracts_test.cpp"), std::string::npos) << what;
  }
}

TEST(Contracts, ContractViolationIsALogicError) {
  // Catchable as std::logic_error: contract breaks are programming
  // errors, not runtime conditions callers should route around.
  EXPECT_THROW(HP_CHECK(false, "x"), std::logic_error);
}

TEST(Contracts, DcheckCompilesOutUnderNdebugButStillParses) {
  int evaluations = 0;
  HP_DCHECK(++evaluations >= 0, "side effect probe");
#if defined(NDEBUG) && !defined(HP_FORCE_DCHECKS)
  EXPECT_EQ(evaluations, 0);  // release: condition not evaluated
#else
  EXPECT_EQ(evaluations, 1);  // debug: full HP_CHECK semantics
  EXPECT_THROW(HP_DCHECK(false, "x"), core::ContractViolation);
#endif
}

TEST(Contracts, BackupInstallRejectsUnroutableRoutes) {
  // The protection plane copies backup fields straight into the live
  // route table on failover; contracts catch a malformed install at
  // install time instead of surfacing packets later.
  scenario::BackupTable table;
  scenario::BackupRoute no_labels;
  no_labels.path = {0, 1};
  EXPECT_THROW(table.install(7, {no_labels}), core::ContractViolation);

  scenario::BackupRoute no_path;
  no_path.segments.labels = {polka::RouteLabel{42}};
  EXPECT_THROW(table.install(7, {no_path}), core::ContractViolation);
  EXPECT_EQ(table.pair_count(), 0u);

  scenario::BackupRoute ok;
  ok.segments.labels = {polka::RouteLabel{42}};
  ok.path = {0, 1};
  EXPECT_NO_THROW(table.install(7, {ok}));
  EXPECT_EQ(table.pair_count(), 1u);
}

TEST(BackupTable, LiveBackupFollowsRankOrder) {
  // Three backups on disjoint links 10, 20 and 30, best first.  The
  // lookup returns the first one whose links are all up and keeps no
  // state between queries.
  scenario::BackupTable table;
  std::vector<scenario::BackupRoute> backups(3);
  for (std::size_t i = 0; i < backups.size(); ++i) {
    backups[i].segments.labels = {polka::RouteLabel{100 + i}};
    backups[i].path = {static_cast<netsim::LinkIndex>(10 * (i + 1))};
  }
  table.install(7, backups);
  std::vector<char> down(40, 0);
  const auto live = [&] { return table.live_backup(7, down); };

  ASSERT_NE(live(), nullptr);
  EXPECT_EQ(live()->path, backups[0].path);
  down[10] = 1;
  ASSERT_NE(live(), nullptr);
  EXPECT_EQ(live()->path, backups[1].path);
  down[20] = 1;
  down[30] = 1;
  EXPECT_EQ(live(), nullptr);
  EXPECT_EQ(table.live_backup(8, std::vector<char>(40, 0)), nullptr);
  down.assign(40, 0);
  ASSERT_NE(live(), nullptr);
  EXPECT_EQ(live()->path, backups[0].path);
}

#if !defined(NDEBUG) || defined(HP_FORCE_DCHECKS)
TEST(Contracts, EventQueueGuardsEmptyPop) {
  sim::EventQueue q;
  EXPECT_THROW(q.pop(), core::ContractViolation);
}
#endif

}  // namespace
}  // namespace hp
