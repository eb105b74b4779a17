#include "eval/seminaive.h"

#include <numeric>
#include <optional>

#include "constraint/decision_cache.h"
#include "constraint/interval.h"
#include "eval/fixpoint.h"
#include "eval/validate.h"

namespace cqlopt {
namespace {

using eval_internal::CheckEvalOptions;
using eval_internal::FactsSoFar;
using eval_internal::Governor;
using eval_internal::GovernedAbort;
using eval_internal::RunIteration;

/// SCC-stratified semi-naive evaluation: condense the predicate dependency
/// graph, assign every rule to the component of its head predicate, and run
/// one semi-naive fixpoint per component in bottom-up topological order
/// (eval_internal::RunStrata — the same walk RetractEvaluate resumes
/// mid-plan). Lower strata are frozen when a stratum runs: their facts
/// carry older births, so they join as "old" facts and are never
/// re-derived. Iteration numbering (birth stamps, trace rows,
/// max_iterations) is global across strata.
Result<EvalResult> EvaluateStratified(const Program& program,
                                      const Database& edb,
                                      const EvalOptions& options,
                                      Governor* governor) {
  EvalResult result;
  result.db = edb;  // EDB facts carry birth -1.
  eval_internal::StratifiedPlan plan = eval_internal::PlanStratified(program);
  CQLOPT_RETURN_IF_ERROR(eval_internal::RunStrata(
      program, plan, /*first_component=*/0, /*start_iteration=*/0, options,
      governor, &result));
  return result;
}

/// The kSemiNaive loop: every rule in one global fixpoint, linear-scan
/// joins — the reference evaluation the stratified path must reproduce.
Result<EvalResult> EvaluateGlobal(const Program& program, const Database& edb,
                                  const EvalOptions& options,
                                  Governor* governor) {
  EvalResult result;
  result.db = edb;  // EDB facts carry birth -1.

  std::vector<size_t> all_rules(program.rules.size());
  std::iota(all_rules.begin(), all_rules.end(), 0);
  for (int iteration = 0; iteration < options.max_iterations; ++iteration) {
    auto position = [&] {
      return "global iteration " + std::to_string(iteration) +
             " (single global stratum), " + FactsSoFar(result);
    };
    Result<long> ran = RunIteration(
        program, all_rules, iteration,
        /*fire_constraint_facts=*/iteration == 0,
        /*require_delta=*/iteration > 0, /*use_index=*/false,
        /*delta_rotate=*/false, /*interval_index=*/false, options, governor,
        &result);
    if (!ran.ok()) {
      if (Governor::IsAbortCode(ran.status().code())) {
        return GovernedAbort(ran.status(), position(), options, &result);
      }
      return ran.status();
    }
    long inserted = *ran;
    result.stats.iterations = iteration + 1;
    Status boundary = governor->IterationBoundary(result.stats.inserted);
    if (!boundary.ok()) {
      return GovernedAbort(boundary, position(), options, &result);
    }
    if (inserted == 0) {
      result.stats.reached_fixpoint = true;
      break;
    }
  }

  for (const auto& [pred, rel] : result.db.relations()) {
    result.stats.facts_per_pred[pred] = static_cast<long>(rel.size());
  }
  result.stats.interval_index_build_ns = result.db.IntervalBuildNs();
  return result;
}

}  // namespace

Result<EvalResult> Evaluate(const Program& program, const Database& edb,
                            const EvalOptions& options) {
  CQLOPT_RETURN_IF_ERROR(CheckEvalOptions(options));
  // Free head positions are legitimate here: the magic rewrite emits them
  // for unbound adornment positions (validate.h).
  CQLOPT_RETURN_IF_ERROR(ValidateProgram(
      program, {/*reject_free_head_vars=*/false,
                /*reject_constraint_only_recursion=*/true}));
  // The decision cache is process-wide; attribute its activity to this
  // evaluation by differencing the counters around the run. Same deal for
  // the interval-prepass counters; the EvalOptions::prepass toggle holds
  // the process-wide enable flag down for the duration of the call.
  std::optional<prepass::PrepassDisabler> prepass_off;
  if (!options.prepass) prepass_off.emplace();
  DecisionCache::Counters before = DecisionCache::Instance().Snapshot();
  prepass::Counters pre_before = prepass::Snapshot();
  Governor governor(options, /*baseline_inserted=*/0);
  Result<EvalResult> result =
      options.strategy == EvalStrategy::kStratified
          ? EvaluateStratified(program, edb, options, &governor)
          : EvaluateGlobal(program, edb, options, &governor);
  if (result.ok()) {
    DecisionCache::Counters after = DecisionCache::Instance().Snapshot();
    result->stats.cache_hits = after.hits - before.hits;
    result->stats.cache_misses = after.misses - before.misses;
    result->stats.cache_evictions = after.evictions - before.evictions;
    prepass::Counters pre_after = prepass::Snapshot();
    result->stats.prepass_conclusive =
        pre_after.conclusive() - pre_before.conclusive();
    result->stats.prepass_fallback = pre_after.fallback - pre_before.fallback;
  }
  return result;
}

Result<EvalResult> ResumeEvaluate(const Program& program, EvalResult base,
                                  const std::vector<Fact>& delta,
                                  const EvalOptions& options) {
  CQLOPT_RETURN_IF_ERROR(CheckEvalOptions(options));
  // Free head positions are legitimate here: the magic rewrite emits them
  // for unbound adornment positions (validate.h).
  CQLOPT_RETURN_IF_ERROR(ValidateProgram(
      program, {/*reject_free_head_vars=*/false,
                /*reject_constraint_only_recursion=*/true}));
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
  std::optional<prepass::PrepassDisabler> prepass_off;
  if (!options.prepass) prepass_off.emplace();
  DecisionCache::Counters before = DecisionCache::Instance().Snapshot();
  prepass::Counters pre_before = prepass::Snapshot();
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

  std::vector<size_t> all_rules(program.rules.size());
  std::iota(all_rules.begin(), all_rules.end(), 0);
  result.stats.reached_fixpoint = false;
  for (int resumed = 0; resumed < options.max_iterations; ++resumed) {
    int iteration = ingest_iteration + 1 + resumed;
    auto position = [&] {
      return "resumed iteration " + std::to_string(resumed) +
             " (global iteration " + std::to_string(iteration) + "), " +
             FactsSoFar(result);
    };
    // Constraint facts fired in the base run's iteration 0; re-firing them
    // would only produce duplicates.
    Result<long> ran = RunIteration(
        program, all_rules, iteration,
        /*fire_constraint_facts=*/false, /*require_delta=*/true,
        /*use_index=*/true, /*delta_rotate=*/true, options.interval_index,
        options, &governor, &result);
    if (!ran.ok()) {
      if (Governor::IsAbortCode(ran.status().code())) {
        return GovernedAbort(ran.status(), position(), options, &result);
      }
      return ran.status();
    }
    long inserted = *ran;
    result.stats.iterations = iteration + 1;
    Status boundary = governor.IterationBoundary(result.stats.inserted);
    if (!boundary.ok()) {
      return GovernedAbort(boundary, position(), options, &result);
    }
    if (inserted == 0) {
      result.stats.reached_fixpoint = true;
      break;
    }
  }

  for (const auto& [pred, rel] : result.db.relations()) {
    result.stats.facts_per_pred[pred] = static_cast<long>(rel.size());
  }
  result.stats.interval_index_build_ns = result.db.IntervalBuildNs();
  DecisionCache::Counters after = DecisionCache::Instance().Snapshot();
  result.stats.cache_hits += after.hits - before.hits;
  result.stats.cache_misses += after.misses - before.misses;
  result.stats.cache_evictions += after.evictions - before.evictions;
  prepass::Counters pre_after = prepass::Snapshot();
  result.stats.prepass_conclusive +=
      pre_after.conclusive() - pre_before.conclusive();
  result.stats.prepass_fallback += pre_after.fallback - pre_before.fallback;
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
