#ifndef CQLOPT_EVAL_FIXPOINT_H_
#define CQLOPT_EVAL_FIXPOINT_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "eval/seminaive.h"
#include "graph/scc.h"

/// Internal fixpoint machinery shared by the evaluation entry points of
/// seminaive.h (Evaluate / ResumeEvaluate) and the incremental-maintenance
/// entry point of retract.h (RetractEvaluate). Everything here is an
/// implementation detail: the iteration/reconcile/commit pipeline, the
/// governance sampler, and the SCC stratification plan. Callers outside
/// src/eval should use the public headers.
namespace cqlopt {
namespace eval_internal {

/// Cooperative enforcement of EvalOptions' governance limits (cancel token,
/// wall-clock deadline, derived-fact budget).
///
/// Check granularity:
///  - Fine(): called from the emit callback on every derivation. Costs one
///    branch when no limit is set; when governed, samples the clock / token
///    only every kFineInterval derivations, and otherwise just reads the
///    trip flag.
///  - RuleBoundary(): called before each rule application — an
///    unconditional clock/token sample, so even derivation-free rule
///    batches stay responsive.
///  - IterationBoundary(): called after each iteration commits; adds the
///    derived-fact budget, which deliberately lives ONLY here so the abort
///    lands on an iteration boundary, with a fully committed database.
///
/// Only the evaluating thread touches a Governor; other threads reach it
/// solely through the (atomic) CancelToken.
///
/// The returned Status carries the cause ("wall-clock deadline of 50ms
/// expired"); the strategy loops annotate it with the position
/// (stratum / global iteration / facts stored) before surfacing it.
class Governor {
 public:
  Governor(const EvalOptions& options, long baseline_inserted)
      : cancel_(options.cancel),
        deadline_ms_(options.deadline_ms),
        max_facts_(options.max_derived_facts),
        baseline_inserted_(baseline_inserted),
        active_(options.deadline_ms > 0 || options.max_derived_facts > 0 ||
                options.cancel.can_cancel()) {
    if (deadline_ms_ > 0) {
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(deadline_ms_);
    }
  }

  bool active() const { return active_; }

  Status Fine() {
    if (!active_) return Status::OK();
    if (tripped_ != 0) return TrippedStatus();
    if ((tick_++ & (kFineInterval - 1)) != 0) return Status::OK();
    return Sample();
  }

  Status RuleBoundary() {
    if (!active_) return Status::OK();
    if (tripped_ != 0) return TrippedStatus();
    return Sample();
  }

  Status IterationBoundary(long inserted_total) {
    if (!active_) return Status::OK();
    CQLOPT_RETURN_IF_ERROR(RuleBoundary());
    if (max_facts_ > 0 && inserted_total - baseline_inserted_ > max_facts_) {
      return Status::ResourceExhausted(
          "derived-fact budget of " + std::to_string(max_facts_) +
          " exceeded (" + std::to_string(inserted_total - baseline_inserted_) +
          " facts stored by this call)");
    }
    return Status::OK();
  }

  /// True for codes a governed (or fault-injected) abort produces — the
  /// errors whose message the strategy loops annotate with the abort
  /// position and whose partial stats flow into EvalOptions::abort_stats.
  static bool IsAbortCode(StatusCode code) {
    return code == StatusCode::kDeadlineExceeded ||
           code == StatusCode::kCancelled ||
           code == StatusCode::kResourceExhausted;
  }

 private:
  static constexpr long kFineInterval = 64;  // power of two (mask below)

  /// Samples the token and the clock; records the first trip so later
  /// checks short-circuit without re-sampling.
  Status Sample() {
    if (cancel_.cancel_requested()) {
      tripped_ = kTripCancelled;
      return TrippedStatus();
    }
    if (deadline_ms_ > 0 && std::chrono::steady_clock::now() >= deadline_) {
      tripped_ = kTripDeadline;
      return TrippedStatus();
    }
    return Status::OK();
  }

  Status TrippedStatus() const {
    if (tripped_ == kTripCancelled || cancel_.cancel_requested()) {
      return Status::Cancelled("evaluation cancelled via CancelToken");
    }
    return Status::DeadlineExceeded("wall-clock deadline of " +
                                    std::to_string(deadline_ms_) +
                                    "ms expired");
  }

  static constexpr int kTripDeadline = 1;
  static constexpr int kTripCancelled = 2;

  CancelToken cancel_;
  const long deadline_ms_;
  const long max_facts_;
  const long baseline_inserted_;
  const bool active_;
  std::chrono::steady_clock::time_point deadline_{};
  long tick_ = 0;
  int tripped_ = 0;
};

/// One fixpoint iteration over `rule_indexes` against result->db: applies
/// the rules in order under the given delta discipline, reconciles the
/// buffered derivations as a set, and commits the survivors with birth
/// `iteration`. Constraint facts (body-free rules) fire only when
/// `fire_constraint_facts` is set. Returns the number of facts inserted.
///
/// The commit also maintains the counting state of DESIGN.md §14: a
/// duplicate-discarded derivation bumps the stored row's support(), a
/// single-fact-subsumed derivation bumps its subsumer's blocked(), and a
/// subsumption that cannot be pinned on one stored row (set-implication
/// mode, or a subsumer that itself was discarded) is charged to the
/// relation as an opaque event.
Result<long> RunIteration(const Program& program,
                          const std::vector<size_t>& rule_indexes,
                          int iteration, bool fire_constraint_facts,
                          bool require_delta, bool use_index,
                          bool delta_rotate, bool interval_index,
                          const EvalOptions& options, Governor* governor,
                          EvalResult* result);

/// Annotates a governed (or fault-injected) abort Status with the position
/// it landed at, mirrors the position into the partial stats, and copies
/// those stats out through options.abort_stats — on failure the Result
/// carries no EvalResult, so this is the only way the counters escape.
Status GovernedAbort(const Status& cause, const std::string& position,
                     const EvalOptions& options, EvalResult* result);

/// "<N> facts stored (<M> derivations made)" — the facts-so-far tail every
/// abort and cap message carries.
std::string FactsSoFar(const EvalResult& result);

/// The shape of one SCC-stratified evaluation: the predicate dependency
/// condensation in bottom-up order, each component's rules (assigned by
/// head predicate), and whether the component is recursive (some rule body
/// mentions a same-component predicate). Both Evaluate(kStratified) and
/// RetractEvaluate walk the same plan, which is what makes a retraction's
/// kept-prefix / recomputed-suffix split line up with scratch evaluation
/// iteration for iteration.
struct StratifiedPlan {
  SccDecomposition sccs;
  std::vector<std::vector<size_t>> rules_of;  // per component, by head pred
  std::vector<uint8_t> recursive;             // per component

  size_t component_count() const { return sccs.components().size(); }
};

StratifiedPlan PlanStratified(const Program& program);

/// Runs the stratified fixpoint over components [first_component, end) of
/// `plan` on top of `result` (already seeded with the EDB and, when
/// first_component > 0, the facts of every lower stratum), with the global
/// iteration counter starting at `start_iteration`. Appends one
/// scc_iterations entry per component that has rules, updates
/// stats.iterations after every committed iteration, sets reached_fixpoint,
/// and finalizes facts_per_pred / interval_index_build_ns on success.
/// A governed abort returns its annotated Status after routing the partial
/// stats through GovernedAbort.
Status RunStrata(const Program& program, const StratifiedPlan& plan,
                 size_t first_component, int start_iteration,
                 const EvalOptions& options, Governor* governor,
                 EvalResult* result);

/// Rejects option values the fixpoint loops cannot interpret (negative
/// caps and budgets).
Status CheckEvalOptions(const EvalOptions& options);

}  // namespace eval_internal
}  // namespace cqlopt

#endif  // CQLOPT_EVAL_FIXPOINT_H_
