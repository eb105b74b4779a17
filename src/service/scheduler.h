#ifndef CQLOPT_SERVICE_SCHEDULER_H_
#define CQLOPT_SERVICE_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/query_service.h"

namespace cqlopt {

/// Per-client priority classes. A connection starts at kNormal and moves
/// with the PRIORITY protocol verb; the scheduler's stride accounting gives
/// each class CPU in proportion to its weight when classes compete, while
/// an uncontended class may use every worker.
enum class PriorityClass {
  kInteractive = 0,
  kNormal = 1,
  kBatch = 2,
};

inline constexpr int kPriorityClasses = 3;
static_assert(kPriorityClasses == SchedulerStats::kClasses,
              "ServiceStats mirrors one counter block per priority class");

/// "interactive" / "normal" / "batch" — protocol and flag spellings.
const char* PriorityClassName(PriorityClass priority);
/// Inverse of PriorityClassName; false on unknown names.
bool ParsePriorityClass(const std::string& name, PriorityClass* out);

/// Derived facts per unit of fair-share cost: a completed task is charged
/// 1 + facts_stored / kFactsPerCostUnit stride steps, so a query that
/// materializes a huge fixpoint pushes its class's virtual time further
/// into the future than a cheap epoch hit does.
inline constexpr long kFactsPerCostUnit = 64;

struct SchedulerOptions {
  /// Worker threads executing admitted tasks. Reads multiplex freely over
  /// snapshot epochs; ingests serialize inside the service's single-writer
  /// commit path, so more workers than writers is the useful shape.
  int workers = 4;
  /// Bound on tasks waiting for a worker (in-flight tasks are not counted).
  /// Submissions past the bound are shed unless a lower-priority victim can
  /// be preempted out of the queue.
  int queue_depth = 64;
  /// Stride weights per PriorityClass (interactive, normal, batch). Higher
  /// weight = proportionally more dequeues under contention.
  long weights[kPriorityClasses] = {8, 4, 1};
};

/// Bounded-admission fair-share scheduler: the serving half of the
/// governance layer (DESIGN.md §13). Workers pull from per-class FIFO
/// queues under stride scheduling — each class keeps a virtual time that
/// advances by (scale / weight) per dequeue plus a post-completion charge
/// proportional to the derived facts the task stored; the nonempty class
/// with the smallest virtual time runs next, ties to the higher priority.
///
/// Admission control never blocks the caller: TrySubmit either enqueues,
/// preempts the newest queued task of a strictly lower class (its shed
/// callback fires), or refuses (the submitted task's shed callback fires).
/// Everything is counted; an attached QueryService exposes the counters
/// through ServiceStats::scheduler. The serve loop (server.h) answers an
/// epoch-hit QUERY on its own thread without submitting it, so these
/// counters, and the per-class wait/run times, cover only the requests
/// that needed a worker; ServiceStats::loop_epoch_hits counts the rest.
///
/// The "scheduler/worker-hold" failpoint freezes workers *before* they
/// dequeue, so tests can fill the queue and observe deterministic shed and
/// preemption decisions.
class Scheduler {
 public:
  struct Task {
    PriorityClass priority = PriorityClass::kNormal;
    /// Executed on a worker thread once dequeued.
    std::function<void()> run;
    /// Executed (on the submitter, synchronously) if the task is refused or
    /// later preempted out of the queue — typically posts the typed
    /// RESOURCE_EXHAUSTED response. May be empty.
    std::function<void()> shed;
  };

  explicit Scheduler(SchedulerOptions options);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admission control; never blocks. True if the task was enqueued (it
  /// will run unless preempted later); false if it was shed — its `shed`
  /// callback has already run by the time TrySubmit returns.
  bool TrySubmit(Task task);

  /// Charges `facts` derived facts to `priority`'s fair-share account
  /// (called by the server after a task completes with its outcome).
  void Charge(PriorityClass priority, long facts);

  /// Registers this scheduler's counters with `service`'s Stats() via
  /// SetStatsAugmenter. Detached automatically on destruction (the
  /// scheduler must not outlive the service). Pass nullptr to detach.
  void Attach(QueryService* service);

  /// Snapshot of the counters (also what Attach injects into ServiceStats).
  SchedulerStats Snapshot() const;

  /// Stops accepting work (further TrySubmit calls shed), drains the queue
  /// — every already-admitted task still runs — and joins the workers.
  /// Idempotent; also called by the destructor.
  void Stop();

 private:
  struct Queued {
    Task task;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop();
  /// Picks the nonempty class with minimum virtual time (tie: higher
  /// priority, i.e. lower index); -1 if all queues are empty. Caller holds
  /// mu_.
  int PickClass() const;

  const SchedulerOptions options_;
  long strides_[kPriorityClasses];  // scale / weight, precomputed

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::deque<Queued> queues_[kPriorityClasses];
  /// Stride virtual times. A class going empty -> nonempty is brought
  /// forward to the global pass (the virtual start of the last dequeue) so
  /// an idle class cannot bank arbitrarily old credit.
  long vt_[kPriorityClasses] = {0, 0, 0};
  long pass_ = 0;

  // Counters (guarded by mu_), mirrored into SchedulerStats.
  long in_flight_ = 0;
  long admitted_ = 0;
  long shed_ = 0;
  long preempted_ = 0;
  long completed_ = 0;
  SchedulerStats::PerClass per_class_[kPriorityClasses];

  std::vector<std::thread> workers_;
  QueryService* attached_service_ = nullptr;
};

}  // namespace cqlopt

#endif  // CQLOPT_SERVICE_SCHEDULER_H_
