#ifndef CQLOPT_EVAL_FIXPOINT_H_
#define CQLOPT_EVAL_FIXPOINT_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "eval/rule_application.h"
#include "eval/seminaive.h"
#include "graph/scc.h"

/// Internal fixpoint machinery shared by the evaluation entry points of
/// seminaive.h (Evaluate / ResumeEvaluate). Everything here is an
/// implementation detail: the governance sampler, the evaluation plans,
/// and RunStrata, which runs a plan's iterate/reconcile/commit loop.
/// Callers outside src/eval should use the public headers.
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
/// expired"); RunStrata annotates it with the position
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
  /// errors whose message RunStrata annotates with the abort
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

/// "<N> facts stored (<M> derivations made)" — the facts-so-far tail every
/// abort and cap message carries.
std::string FactsSoFar(const EvalResult& result);

/// Recomputes stats.facts_per_pred from result->db — the epilogue of every
/// evaluation entry point, successful or aborted. (RunStrata adds its Seal
/// time to stats.interval_index_build_ns as it goes.)
void FinalizeStats(EvalResult* result);

/// The shape of one evaluation: a list of components in evaluation order,
/// each with its rules (in program order) and whether it runs until a
/// round adds nothing ("recursive") or stops after one pass.
///
/// PlanFor(program, strategy) builds it; EvalStrategy decides nothing else.
///  - kStratified: the predicate dependency condensation (`sccs`) in
///    bottom-up order, rules assigned by head predicate, a component
///    recursive iff some rule body mentions a same-component predicate.
///  - kSemiNaive: one recursive component holding every rule, and no SCC
///    decomposition (`sccs` is empty). It always runs at least one
///    iteration, even for a rule-free program.
struct StratifiedPlan {
  SccDecomposition sccs;
  std::vector<std::vector<size_t>> rules_of;  // per component
  std::vector<uint8_t> recursive;             // per component
  /// Every iteration, the first included, joins under
  /// DeltaMode::kDeltaRotated (set by ResumeEvaluate).
  bool delta_rotated = false;

  size_t component_count() const { return rules_of.size(); }
};

StratifiedPlan PlanFor(const Program& program, EvalStrategy strategy);

/// Runs the fixpoint over every component of `plan` on top of `result`
/// (already seeded with the EDB, and with a finished evaluation's facts
/// when resuming), with the global iteration counter starting at
/// `start_iteration`. Each component
/// runs iteration 0 under DeltaMode::kAll (firing its constraint facts)
/// and later iterations under DeltaMode::kDelta, unless the plan is
/// `delta_rotated`. No iteration numbered `iteration_cap` or higher runs;
/// reaching the cap leaves reached_fixpoint false. Components with neither
/// rules nor the recursive flag are skipped; every other one appends its
/// iteration count to scc_iterations. Updates stats.iterations after every
/// committed iteration, sets reached_fixpoint, and calls FinalizeStats on
/// success. A governed abort returns a Status annotated with the stratum,
/// global iteration and facts stored, and copies the partial stats out
/// through options.abort_stats. Every iteration of every evaluation entry
/// point runs here.
Status RunStrata(const Program& program, const StratifiedPlan& plan,
                 int start_iteration, int iteration_cap,
                 const EvalOptions& options, Governor* governor,
                 EvalResult* result);

/// The entry check of Evaluate / ResumeEvaluate: rejects
/// programs ValidateProgram refuses (free head variables allowed, since the
/// magic rewrite emits them for unbound adornment positions) and option
/// values the fixpoint cannot interpret (negative caps and budgets).
Status CheckEvalOptions(const Program& program, const EvalOptions& options);

}  // namespace eval_internal
}  // namespace cqlopt

#endif  // CQLOPT_EVAL_FIXPOINT_H_
