// Tests for the deterministic fail-point registry (src/util/failpoint.h):
// arm/skip/times semantics, auto-disarm, hit counting, and the disarmed
// fast path. Each test leaves the registry fully disarmed so ordering
// between tests (and with the fault-injection suites) never matters.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/failpoint.h"

namespace cqlopt {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(FailpointTest, DisarmedNeverFires) {
  for (const char* site :
       {failpoint::kWalShortWrite, failpoint::kWalFsync,
        failpoint::kWalCrashBeforeCommit, failpoint::kWalCrashAfterCommit,
        failpoint::kServerShortWrite, failpoint::kEvalRuleAlloc,
        failpoint::kSchedulerWorkerHold, failpoint::kReplicaFetch,
        failpoint::kReplicaTornRecord, failpoint::kReplicaCrashBeforeApply,
        failpoint::kReplicaCrashMidApply,
        failpoint::kReplicaCrashAfterApply}) {
    EXPECT_FALSE(failpoint::ShouldFail(site)) << site;
  }
}

TEST_F(FailpointTest, ArmFiresOnceThenAutoDisarms) {
  failpoint::Arm(failpoint::kWalFsync);
  EXPECT_TRUE(failpoint::ShouldFail(failpoint::kWalFsync));
  EXPECT_FALSE(failpoint::ShouldFail(failpoint::kWalFsync));
  EXPECT_FALSE(failpoint::ShouldFail(failpoint::kWalFsync));
}

TEST_F(FailpointTest, SkipPassesThroughBeforeFiring) {
  failpoint::Arm(failpoint::kWalShortWrite, /*skip=*/2, /*times=*/1);
  EXPECT_FALSE(failpoint::ShouldFail(failpoint::kWalShortWrite));
  EXPECT_FALSE(failpoint::ShouldFail(failpoint::kWalShortWrite));
  EXPECT_TRUE(failpoint::ShouldFail(failpoint::kWalShortWrite));
  EXPECT_FALSE(failpoint::ShouldFail(failpoint::kWalShortWrite));
}

TEST_F(FailpointTest, TimesFiresExactlyThatMany) {
  failpoint::Arm(failpoint::kEvalRuleAlloc, /*skip=*/1, /*times=*/3);
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (failpoint::ShouldFail(failpoint::kEvalRuleAlloc)) ++fired;
  }
  EXPECT_EQ(fired, 3);
}

TEST_F(FailpointTest, UnlimitedFiresUntilDisarm) {
  failpoint::Arm(failpoint::kServerShortWrite, /*skip=*/0, /*times=*/0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(failpoint::ShouldFail(failpoint::kServerShortWrite));
  }
  failpoint::Disarm(failpoint::kServerShortWrite);
  EXPECT_FALSE(failpoint::ShouldFail(failpoint::kServerShortWrite));
}

TEST_F(FailpointTest, HitsCountWhileAnySiteIsArmed) {
  // Arm an unrelated site with a huge skip: nothing fires, but the
  // registry leaves its fast path, so every probe is counted — the idiom a
  // harness uses to enumerate the injection points a scenario crosses.
  failpoint::Arm(failpoint::kWalFsync, /*skip=*/1000000, /*times=*/1);
  EXPECT_FALSE(failpoint::ShouldFail(failpoint::kWalShortWrite));
  EXPECT_FALSE(failpoint::ShouldFail(failpoint::kWalShortWrite));
  EXPECT_FALSE(failpoint::ShouldFail(failpoint::kWalFsync));
  EXPECT_EQ(failpoint::Hits(failpoint::kWalShortWrite), 2);
  EXPECT_EQ(failpoint::Hits(failpoint::kWalFsync), 1);
  failpoint::DisarmAll();
  EXPECT_EQ(failpoint::Hits(failpoint::kWalShortWrite), 0);
}

TEST_F(FailpointTest, FullyDisarmedRegistrySkipsCounting) {
  // The disarmed fast path is one relaxed load: probes are NOT counted, so
  // production traffic never contends on the registry mutex.
  EXPECT_FALSE(failpoint::ShouldFail(failpoint::kWalShortWrite));
  EXPECT_EQ(failpoint::Hits(failpoint::kWalShortWrite), 0);
}

TEST_F(FailpointTest, RearmingReplacesTheBudget) {
  failpoint::Arm(failpoint::kWalFsync, /*skip=*/0, /*times=*/1);
  EXPECT_TRUE(failpoint::ShouldFail(failpoint::kWalFsync));
  failpoint::Arm(failpoint::kWalFsync, /*skip=*/0, /*times=*/2);
  EXPECT_TRUE(failpoint::ShouldFail(failpoint::kWalFsync));
  EXPECT_TRUE(failpoint::ShouldFail(failpoint::kWalFsync));
  EXPECT_FALSE(failpoint::ShouldFail(failpoint::kWalFsync));
}

TEST_F(FailpointTest, ConcurrentProbesSeeExactlyTheArmedBudget) {
  failpoint::Arm(failpoint::kEvalRuleAlloc, /*skip=*/0, /*times=*/8);
  std::atomic<int> fired{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        if (failpoint::ShouldFail(failpoint::kEvalRuleAlloc)) {
          fired.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(fired.load(), 8);
  // Once the 8th firing auto-disarms the site the registry drops back to
  // its uncounted fast path, so only the probes that raced the armed
  // window are tallied — at least the 8 that fired.
  EXPECT_GE(failpoint::Hits(failpoint::kEvalRuleAlloc), 8);
}

}  // namespace
}  // namespace cqlopt
