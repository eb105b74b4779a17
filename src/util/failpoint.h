#ifndef CQLOPT_UTIL_FAILPOINT_H_
#define CQLOPT_UTIL_FAILPOINT_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace cqlopt {

/// Deterministic fail-point registry for fault-injection testing.
///
/// Production code sprinkles `failpoint::ShouldFail(site)` at the places a
/// real fault could strike (a short write(2), a failing fsync, a crash
/// between the WAL append and the epoch swap, an allocation failure in rule
/// application). Tests arm a site with `Arm(site, skip, times)` and the
/// Nth hit fires; everything is counted, so a crash-recovery property can
/// enumerate exactly the injection points a scenario passes through and
/// then replay the scenario crashing at each one in turn.
///
/// Disarmed cost: one relaxed atomic load (`armed_count_ == 0` fast path),
/// so the hooks are compiled into release builds and the fuzzer exercises
/// the same binaries the benchmarks measure.
///
/// The registry is process-wide and NOT synchronized against concurrent
/// Arm/Disarm during a governed operation — arm before the operation under
/// test and disarm after, from one thread. `ShouldFail` itself is
/// thread-safe (sites fire-and-count under a mutex once armed).
namespace failpoint {

// Catalogue of injection sites (DESIGN.md section 10.4).
inline constexpr const char* kWalShortWrite = "wal/short-write";
inline constexpr const char* kWalFsync = "wal/fsync";
inline constexpr const char* kWalCrashBeforeCommit = "wal/crash-before-commit";
inline constexpr const char* kWalCrashAfterCommit = "wal/crash-after-commit";
inline constexpr const char* kServerShortWrite = "server/short-write";
inline constexpr const char* kEvalRuleAlloc = "eval/rule-alloc";
/// Scheduler workers spin (without dequeuing) while this is armed, so tests
/// can fill the admission queue and observe deterministic shed counts.
inline constexpr const char* kSchedulerWorkerHold = "scheduler/worker-hold";
// Replication link sites (DESIGN.md section 15.5). Ship side: the primary's
// FetchReplication drops the batch (simulating a lost response or a
// partition); the follower sees an Unavailable fetch and retries.
inline constexpr const char* kReplicaFetch = "replica/fetch";
/// A reply arrives torn on the wire: the follower's decoder flips a byte of
/// a record frame or snapshot image before the WAL's CRC check, which must
/// reject the batch so the follower refetches.
inline constexpr const char* kReplicaTornRecord = "replica/torn-record";
/// Follower crashes after fetching a batch but before applying any of it.
inline constexpr const char* kReplicaCrashBeforeApply =
    "replica/crash-before-apply";
/// Follower crashes between applying records of one batch (some committed —
/// and WAL-logged — locally, the rest lost; catch-up must resume cleanly).
inline constexpr const char* kReplicaCrashMidApply = "replica/crash-mid-apply";
/// Follower crashes after applying the whole batch but before acknowledging
/// progress to its caller.
inline constexpr const char* kReplicaCrashAfterApply =
    "replica/crash-after-apply";

/// Arms `site`: the first `skip` hits pass through, then the next `times`
/// hits fire (ShouldFail returns true), then the site auto-disarms.
/// times <= 0 means fire on every hit after `skip` until Disarm.
void Arm(const std::string& site, long skip = 0, long times = 1);

/// Disarms `site` (its hit counter is kept until DisarmAll).
void Disarm(const std::string& site);

/// Disarms every site and clears all hit counters.
void DisarmAll();

/// True when the calling code should simulate a fault at `site`. Counts the
/// hit either way. Near-free when nothing is armed.
bool ShouldFail(const std::string& site);

/// Total times `site` was reached while some site was armed, since
/// DisarmAll.
long Hits(const std::string& site);

}  // namespace failpoint
}  // namespace cqlopt

#endif  // CQLOPT_UTIL_FAILPOINT_H_
