#include "eval/fixpoint.h"

#include <numeric>
#include <unordered_map>

#include "constraint/implication.h"
#include "eval/rule_application.h"
#include "eval/validate.h"

namespace cqlopt {
namespace eval_internal {

namespace {

/// The valuation-join plan of each program rule (null where none applies).
using GroundPlans = std::vector<std::shared_ptr<const GroundPlan>>;

/// A derivation buffered during one iteration, reconciled at iteration end.
struct Pending {
  size_t rule_index;  // into the program's rules; names the rule's label
  /// Canonical, with its groundness decided once where it was made. A
  /// ground derivation is its tuple only.
  CanonicalFact derived;
  std::vector<Relation::FactRef> parents;
  uint64_t hash = 0;  // derived.Hash()
  InsertOutcome outcome = InsertOutcome::kInserted;
};

/// End-of-iteration reconciliation: the derivations of one iteration are
/// treated as a *set* (the paper's tables discard a fact as subsumed even
/// when the subsuming fact was derived later in the same iteration, e.g.
/// Table 1 iteration 3 discards m_fib(0,4) in favour of m_fib(0,V2)).
///
/// Only a non-ground fact can subsume a distinct fact: a ground fact is a
/// point, and a satisfiable fact implied by a point is that point — the
/// same canonical tuple, which pass 1 already caught. So passes 2 and 3
/// visit only the non-ground candidates, in the order the full walks
/// would, and find the same first subsumer. Pass 1 compares tuples; a
/// ground derivation's point is built only when its predicate has a stored
/// non-ground row (pass 2) or a same-iteration non-ground derivation of
/// the same arity (pass 3).
void Reconcile(std::vector<Pending>* pending, const Database& db,
               SubsumptionMode mode) {
  // Pass 1: duplicates, against the database and earlier pending.
  std::unordered_multimap<uint64_t, size_t> seen;  // hash -> pending index
  seen.reserve(pending->size());
  std::vector<size_t> non_ground;  // pending indexes, ascending
  for (size_t i = 0; i < pending->size(); ++i) {
    Pending& p = (*pending)[i];
    p.hash = p.derived.Hash();
    if (!p.derived.ground()) non_ground.push_back(i);
    const Relation* rel = db.Find(p.derived.pred);
    bool duplicate = rel != nullptr && rel->Find(p.derived, p.hash);
    auto [first, last] = seen.equal_range(p.hash);
    for (auto it = first; !duplicate && it != last; ++it) {
      duplicate = (*pending)[it->second].derived.SameAs(p.derived);
    }
    if (duplicate) {
      p.outcome = InsertOutcome::kDuplicate;
    } else {
      seen.emplace(p.hash, i);
    }
  }
  if (mode == SubsumptionMode::kNone) return;
  // The constraint of pending derivation i as subsumption reads it: a
  // non-ground fact's own, a ground fact's point, built the first time a
  // check reads it and at most once.
  std::vector<std::optional<Conjunction>> points;  // sized on first use
  auto constraint_of = [&](size_t i) -> const Conjunction& {
    const CanonicalFact& derived = (*pending)[i].derived;
    if (!derived.ground()) return derived.constraint;
    if (points.empty()) points.resize(pending->size());
    if (!points[i].has_value()) points[i] = Conjunction::Point(*derived.tuple);
    return *points[i];
  };
  // Pass 2: subsumption by a stored non-ground row, first in row order.
  for (size_t i = 0; i < pending->size(); ++i) {
    Pending& p = (*pending)[i];
    if (p.outcome != InsertOutcome::kInserted) continue;
    const Relation* rel = db.Find(p.derived.pred);
    if (rel == nullptr) continue;
    for (size_t e : rel->non_ground_rows()) {
      if (Implies(constraint_of(i), rel->constraint(e))) {
        p.outcome = InsertOutcome::kSubsumed;
        break;
      }
    }
  }
  // Pass 3: subsumption by a non-ground derivation of the same iteration.
  // Equivalent facts keep the earliest derivation.
  for (size_t i = 0; i < pending->size(); ++i) {
    Pending& p = (*pending)[i];
    if (p.outcome != InsertOutcome::kInserted) continue;
    for (size_t j : non_ground) {
      if (j == i) continue;
      const Pending& q = (*pending)[j];
      if (q.outcome != InsertOutcome::kInserted) continue;
      if (q.derived.pred != p.derived.pred ||
          q.derived.arity != p.derived.arity) {
        continue;
      }
      const Conjunction& pc = constraint_of(i);
      const Conjunction& qc = constraint_of(j);
      if (!Implies(pc, qc)) continue;
      if (j > i && Implies(qc, pc)) {
        continue;  // Equivalent and p came first: p wins.
      }
      p.outcome = InsertOutcome::kSubsumed;
      break;
    }
  }
}

/// Seals result->db's indexed positions (Database::Seal), adding the time
/// taken to stats.interval_index_build_ns. result->db is the evaluation's
/// own copy, never a published epoch.
void SealIndexes(EvalResult* result) {
  auto start = std::chrono::steady_clock::now();
  result->db.Seal();
  result->stats.interval_index_build_ns +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
}

/// Applies one rule against the frozen pre-iteration database, buffering
/// derivations into `pending` and counting into `stats`. The rule's
/// derivations are counted locally and added to derivations_per_rule once,
/// whether the application completes or aborts.
Status ApplyOneRule(const Program& program, size_t rule_index,
                    const GroundPlan* plan, const Database& db, int iteration,
                    DeltaMode delta, bool interval_index, IndexDemand* demand,
                    Governor* governor, std::vector<Pending>* pending,
                    EvalStats* stats) {
  // Rule-batch boundary check: keeps long rule sequences responsive even
  // when individual rules derive nothing.
  CQLOPT_RETURN_IF_ERROR(governor->RuleBoundary());
  const Rule& rule = program.rules[rule_index];
  long derived_here = 0;
  auto emit = [&](CanonicalFact&& derived,
                  const std::vector<Relation::FactRef>& parents) -> Status {
    CQLOPT_RETURN_IF_ERROR(governor->Fine());
    ++derived_here;
    pending->emplace_back(rule_index, std::move(derived), parents);
    return Status::OK();
  };
  Status status = ApplyRule(rule, plan, db, /*max_birth=*/iteration - 1,
                            delta, interval_index, demand, emit, stats);
  if (derived_here > 0) {
    stats->derivations += derived_here;
    stats->derivations_per_rule[rule.label.empty()
                                    ? "rule#" + std::to_string(rule_index)
                                    : rule.label] += derived_here;
  }
  return status;
}

/// One fixpoint iteration over `rule_indexes` against result->db: applies
/// the rules in order under the `delta` discipline (rule_application.h),
/// with options.interval_index choosing interval pruning, reconciles the
/// buffered derivations as a set, and commits the survivors with birth
/// `iteration`. Constraint facts (body-free rules) fire only under
/// DeltaMode::kAll. Returns the number of facts inserted. Candidate
/// selection may index positions of result->db on demand (`demand`, the
/// evaluation's IndexDemand over result->db); the commit adds the new rows
/// to the indexed positions only and ends by sealing them, so the next
/// iteration's probes binary-search every row.
///
/// `buffer` holds the iteration's derivations; the caller passes the same
/// one to every iteration, so its capacity is reused.
Result<long> RunIteration(const Program& program, const GroundPlans& plans,
                          const std::vector<size_t>& rule_indexes,
                          int iteration, DeltaMode delta,
                          const EvalOptions& options, IndexDemand* demand,
                          Governor* governor, std::vector<Pending>* buffer,
                          EvalResult* result) {
  std::vector<Pending>& pending = *buffer;
  pending.clear();
  for (size_t rule_index : rule_indexes) {
    // A body-free rule joins no facts, so it has no delta to join either.
    if (program.rules[rule_index].IsConstraintFact() &&
        delta != DeltaMode::kAll) {
      continue;
    }
    CQLOPT_RETURN_IF_ERROR(ApplyOneRule(program, rule_index,
                                        plans[rule_index].get(), result->db,
                                        iteration, delta,
                                        options.interval_index, demand,
                                        governor, &pending, &result->stats));
  }
  Reconcile(&pending, result->db, options.subsumption);
  long inserted = 0;
  if (options.record_trace) result->trace.emplace_back();
  for (Pending& p : pending) {
    const std::string& rule_label = program.rules[p.rule_index].label;
    if (options.record_trace) {
      result->trace.back().push_back(Derivation{
          rule_label, p.derived.ToFact().ToString(*program.symbols),
          p.outcome});
    }
    switch (p.outcome) {
      case InsertOutcome::kInserted: {
        ++result->stats.inserted;
        ++inserted;
        if (!p.derived.ground()) result->stats.all_ground = false;
        result->db.AddFact(std::move(p.derived), p.hash, iteration,
                           rule_label, std::move(p.parents));
        break;
      }
      case InsertOutcome::kSubsumed:
        ++result->stats.subsumed;
        break;
      case InsertOutcome::kDuplicate:
        ++result->stats.duplicates;
        break;
    }
  }
  SealIndexes(result);
  return inserted;
}

/// Annotates a governed (or fault-injected) abort Status with the position
/// it landed at, mirrors the position into the partial stats, and copies
/// those stats out through options.abort_stats — on failure the Result
/// carries no EvalResult, so this is the only way the counters escape.
Status GovernedAbort(const Status& cause, const std::string& position,
                     const EvalOptions& options, EvalResult* result) {
  result->stats.aborted = true;
  result->stats.abort_point = position;
  FinalizeStats(result);
  if (options.abort_stats != nullptr) *options.abort_stats = result->stats;
  return Status(cause.code(), cause.message() + " at " + position);
}

}  // namespace

void FinalizeStats(EvalResult* result) {
  result->stats.facts_per_pred.clear();
  for (const auto& [pred, rel] : result->db.relations()) {
    result->stats.facts_per_pred[pred] = static_cast<long>(rel.size());
  }
}

std::string FactsSoFar(const EvalResult& result) {
  return std::to_string(result.db.TotalFacts()) + " facts stored (" +
         std::to_string(result.stats.derivations) + " derivations made)";
}

StratifiedPlan PlanFor(const Program& program, EvalStrategy strategy) {
  if (strategy == EvalStrategy::kSemiNaive) {
    // One component holding every rule in program order, run until a round
    // adds nothing — even with no rules at all, which still takes the one
    // iteration that confirms the fixpoint.
    StratifiedPlan plan{SccDecomposition(), {{}}, {1}};
    plan.rules_of[0].resize(program.rules.size());
    std::iota(plan.rules_of[0].begin(), plan.rules_of[0].end(), 0);
    return plan;
  }
  DependencyGraph graph(program);
  StratifiedPlan plan{SccDecomposition(graph), {}, {}};
  const auto& components = plan.sccs.components();
  plan.rules_of.resize(components.size());
  plan.recursive.assign(components.size(), 0);
  for (size_t rule_index = 0; rule_index < program.rules.size();
       ++rule_index) {
    int component = plan.sccs.ComponentOf(program.rules[rule_index].head.pred);
    plan.rules_of[static_cast<size_t>(component)].push_back(rule_index);
  }
  // A stratum is recursive iff some rule's body mentions a predicate of the
  // same component; non-recursive strata converge in one pass, so the empty
  // fixpoint-confirmation iteration is skipped.
  for (size_t c = 0; c < components.size(); ++c) {
    for (size_t rule_index : plan.rules_of[c]) {
      for (const Literal& lit : program.rules[rule_index].body) {
        if (plan.sccs.ComponentOf(lit.pred) == static_cast<int>(c)) {
          plan.recursive[c] = 1;
        }
      }
    }
  }
  return plan;
}

Status RunStrata(const Program& program, const StratifiedPlan& plan,
                 int start_iteration, int iteration_cap,
                 const EvalOptions& options, Governor* governor,
                 EvalResult* result) {
  const size_t component_count = plan.component_count();
  // Each rule is compiled for the valuation join once per evaluation.
  GroundPlans ground_plans;
  ground_plans.reserve(program.rules.size());
  for (const Rule& rule : program.rules) {
    ground_plans.push_back(CompileGroundPlan(rule));
  }
  SealIndexes(result);
  // The positions this evaluation's joins consult get indexed on demand,
  // in its own database (rule_application.h).
  IndexDemand demand(&result->db);
  std::vector<Pending> pending;
  int global_iteration = start_iteration;
  bool capped = false;
  result->stats.reached_fixpoint = false;
  for (size_t c = 0; c < component_count && !capped; ++c) {
    bool recursive = plan.recursive[c] != 0;
    if (plan.rules_of[c].empty() && !recursive) continue;  // pure-EDB
    long stratum_iterations = 0;
    for (int local = 0;; ++local) {
      if (global_iteration >= iteration_cap) {
        capped = true;
        break;
      }
      const int this_iteration = global_iteration;
      auto position = [&] {
        return "stratum " + std::to_string(c + 1) + "/" +
               std::to_string(component_count) + " (local iteration " +
               std::to_string(local) + "), global iteration " +
               std::to_string(this_iteration) + ", " + FactsSoFar(*result);
      };
      DeltaMode delta = plan.delta_rotated ? DeltaMode::kDeltaRotated
                        : local == 0        ? DeltaMode::kAll
                                            : DeltaMode::kDelta;
      Result<long> ran = RunIteration(program, ground_plans, plan.rules_of[c],
                                      global_iteration, delta, options,
                                      &demand, governor, &pending, result);
      if (!ran.ok()) {
        if (Governor::IsAbortCode(ran.status().code())) {
          return GovernedAbort(ran.status(), position(), options, result);
        }
        return ran.status();
      }
      long inserted = *ran;
      ++global_iteration;
      ++stratum_iterations;
      result->stats.iterations = global_iteration;
      Status boundary = governor->IterationBoundary(result->stats.inserted);
      if (!boundary.ok()) {
        return GovernedAbort(boundary, position(), options, result);
      }
      if (inserted == 0 || !recursive) break;
    }
    result->stats.scc_iterations.push_back(stratum_iterations);
  }
  result->stats.reached_fixpoint = !capped;
  FinalizeStats(result);
  return Status::OK();
}

Status CheckEvalOptions(const Program& program, const EvalOptions& options) {
  if (options.max_iterations < 0) {
    return Status::InvalidArgument(
        "EvalOptions::max_iterations must be >= 0, got " +
        std::to_string(options.max_iterations));
  }
  if (options.deadline_ms < 0) {
    return Status::InvalidArgument(
        "EvalOptions::deadline_ms must be >= 0 (0 = no deadline), got " +
        std::to_string(options.deadline_ms));
  }
  if (options.max_derived_facts < 0) {
    return Status::InvalidArgument(
        "EvalOptions::max_derived_facts must be >= 0 (0 = unlimited), got " +
        std::to_string(options.max_derived_facts));
  }
  // Free head positions are legitimate here: the magic rewrite emits them
  // for unbound adornment positions (validate.h).
  return ValidateProgram(program,
                         {/*reject_free_head_vars=*/false,
                          /*reject_constraint_only_recursion=*/true});
}

}  // namespace eval_internal
}  // namespace cqlopt
