#include "eval/seminaive.h"

#include <climits>

#include "constraint/decision_scope.h"
#include "eval/fixpoint.h"

namespace cqlopt {

using eval_internal::CheckEvalOptions;
using eval_internal::FactsSoFar;
using eval_internal::Governor;
using eval_internal::PlanFor;
using eval_internal::RunStrata;
using eval_internal::StratifiedPlan;

Result<EvalResult> Evaluate(const Program& program, const Database& edb,
                            const EvalOptions& options) {
  CQLOPT_RETURN_IF_ERROR(CheckEvalOptions(program, options));
  DecisionScope decisions({});
  Governor governor(options, /*baseline_inserted=*/0);
  EvalResult result;
  result.db = edb;  // EDB facts carry birth -1.
  // Iteration numbering (birth stamps, trace rows, max_iterations) is
  // global across the plan's components; lower components are frozen when
  // a later one runs, their facts joining as "old" facts.
  CQLOPT_RETURN_IF_ERROR(RunStrata(program, PlanFor(program, options.strategy),
                                   /*start_iteration=*/0,
                                   options.max_iterations, options, &governor,
                                   &result));
  decisions.AddTo(&result.stats);
  return result;
}

Result<EvalResult> ResumeEvaluate(const Program& program, EvalResult base,
                                  const std::vector<Fact>& delta,
                                  const EvalOptions& options) {
  CQLOPT_RETURN_IF_ERROR(CheckEvalOptions(program, options));
  if (!base.stats.reached_fixpoint) {
    // Say exactly where the base run stopped — callers picking a bigger
    // max_iterations (or diagnosing a governed abort) need the position,
    // not just the precondition.
    std::string where = base.stats.aborted
                            ? "was aborted at " + base.stats.abort_point
                            : "hit its iteration cap at global iteration " +
                                  std::to_string(base.stats.iterations);
    if (!base.stats.scc_iterations.empty()) {
      where += ", stratum iterations [";
      for (size_t i = 0; i < base.stats.scc_iterations.size(); ++i) {
        if (i > 0) where += ",";
        where += std::to_string(base.stats.scc_iterations[i]);
      }
      where += "]";
    }
    return Status::InvalidArgument(
        "ResumeEvaluate requires a base evaluation that reached its "
        "fixpoint, but the base " +
        where + "; " + FactsSoFar(base) +
        "; re-evaluate from scratch (with a higher max_iterations) instead");
  }
  DecisionScope decisions({});
  const long baseline_inserted = base.stats.inserted;
  Governor governor(options, baseline_inserted);
  EvalResult result = std::move(base);

  // The batch joins the database as-if derived in the first unused
  // iteration: every stored fact is strictly older, so the delta discipline
  // of the next iteration selects exactly the batch.
  const int ingest_iteration = result.stats.iterations;
  // Batch facts are EDB, not derivations: like loading, they bypass the
  // derivation counters (inserted/duplicates keep meaning "rule output").
  Database::BatchOutcome batch = result.db.AddFacts(delta, ingest_iteration);
  if (batch.inserted == 0) return result;  // nothing new: fixpoint unchanged
  // stats.all_ground tracks *derived* facts only, so the batch itself does
  // not clear it — exactly as EDB loading leaves it untouched.
  if (!result.trace.empty() || options.record_trace) {
    // Keep trace[i] == iteration i: the ingest pseudo-iteration derives
    // nothing through rules.
    result.trace.emplace_back();
  }

  // Every iteration is a delta iteration: the base run already fired the
  // constraint facts and joined every pre-batch combination.
  StratifiedPlan plan = PlanFor(program, EvalStrategy::kSemiNaive);
  plan.delta_rotated = true;
  // max_iterations caps the resumed iterations only; saturate so a huge
  // cap cannot overflow the absolute iteration bound.
  const int start = ingest_iteration + 1;
  const int cap = options.max_iterations > INT_MAX - start
                      ? INT_MAX
                      : start + options.max_iterations;
  CQLOPT_RETURN_IF_ERROR(
      RunStrata(program, plan, start, cap, options, &governor, &result));
  decisions.AddTo(&result.stats);
  return result;
}

std::string RenderTrace(const std::vector<std::vector<Derivation>>& trace) {
  std::string out;
  for (size_t i = 0; i < trace.size(); ++i) {
    out += "iteration " + std::to_string(i) + ": {";
    for (size_t j = 0; j < trace[i].size(); ++j) {
      if (j > 0) out += ", ";
      const Derivation& d = trace[i][j];
      bool discarded = d.outcome != InsertOutcome::kInserted;
      if (!d.rule_label.empty()) out += d.rule_label + ":";
      if (discarded) out += "*";
      out += d.fact;
      if (discarded) out += "*";
    }
    out += "}\n";
  }
  return out;
}

}  // namespace cqlopt
