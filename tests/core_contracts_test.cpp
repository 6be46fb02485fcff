// Contract-macro semantics (core/contracts.hpp) and the enforcement
// points wired into the protection and event-queue layers.

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/protection.hpp"
#include "scenario/topologies.hpp"
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
  // A swap serves a backup as is; the install check catches a
  // malformed protection set at install time instead of surfacing
  // packets later.  One bad backup rejects the whole set.
  scenario::BackupRoute no_labels;
  no_labels.path = {0, 1};
  EXPECT_THROW(scenario::check_installable(std::vector{no_labels}),
               core::ContractViolation);

  scenario::BackupRoute no_path;
  no_path.segments.labels = {polka::RouteLabel{42}};
  EXPECT_THROW(scenario::check_installable(std::vector{no_path}),
               core::ContractViolation);

  scenario::BackupRoute ok;
  ok.segments.labels = {polka::RouteLabel{42}};
  ok.path = {0, 1};
  EXPECT_THROW(scenario::check_installable(std::vector{ok, no_path}),
               core::ContractViolation);
  EXPECT_NO_THROW(scenario::check_installable(std::vector{ok}));
  EXPECT_NO_THROW(scenario::check_installable({}));
}

TEST(Contracts, ProtectionKBeyondTheIndexRanksThrows) {
  // A link-index entry carries a route's rank in 15 bits, so a
  // protection set holds at most kMaxProtection backups.  One more is
  // refused before anything is planned; the bound itself is accepted.
  scenario::BuiltFabric fabric(scenario::make_ring(4));
  (void)fabric.compile_all_pairs();
  try {
    (void)fabric.enable_protection(scenario::BuiltFabric::kMaxProtection + 1);
    ADD_FAILURE() << "k past the rank bound was accepted";
  } catch (const core::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("kMaxProtection"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fabric.protection_k(), 0U);
  // A ring has one disjoint alternative per pair, whatever k asks for.
  EXPECT_EQ(fabric.enable_protection(scenario::BuiltFabric::kMaxProtection),
            12U);
  EXPECT_NO_THROW(fabric.validate());
}

TEST(BackupTable, LiveBackupFollowsRankOrder) {
  // Three backups on disjoint links 10, 20 and 30, best first.  The
  // rank rule returns the first one whose links are all up and keeps
  // no state between queries.
  std::vector<scenario::BackupRoute> backups(3);
  for (std::size_t i = 0; i < backups.size(); ++i) {
    backups[i].segments.labels = {polka::RouteLabel{100 + i}};
    backups[i].path = {static_cast<netsim::LinkIndex>(10 * (i + 1))};
  }
  std::vector<char> down(40, 0);
  const auto live = [&] { return scenario::first_live_backup(backups, down); };

  EXPECT_EQ(live(), std::optional<std::size_t>{0});
  down[10] = 1;
  EXPECT_EQ(live(), std::optional<std::size_t>{1});
  down[20] = 1;
  down[30] = 1;
  EXPECT_EQ(live(), std::nullopt);
  // An unprotected pair's empty set has no live backup.
  EXPECT_EQ(scenario::first_live_backup({}, std::vector<char>(40, 0)),
            std::nullopt);
  down.assign(40, 0);
  EXPECT_EQ(live(), std::optional<std::size_t>{0});
}

#if !defined(NDEBUG) || defined(HP_FORCE_DCHECKS)
TEST(Contracts, EventQueueGuardsEmptyPop) {
  sim::EventQueue q;
  EXPECT_THROW(q.pop(), core::ContractViolation);
}
#endif

}  // namespace
}  // namespace hp
