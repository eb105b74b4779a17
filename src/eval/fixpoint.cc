#include "eval/fixpoint.h"

#include <limits>
#include <set>

#include "constraint/implication.h"
#include "eval/rule_application.h"

namespace cqlopt {
namespace eval_internal {

namespace {

constexpr size_t kNoRow = std::numeric_limits<size_t>::max();

/// A derivation buffered during one iteration, reconciled at iteration end.
struct Pending {
  std::string rule_label;
  Fact fact;
  std::vector<Relation::FactRef> parents;
  std::string key;
  bool ground = false;
  InsertOutcome outcome = InsertOutcome::kInserted;
  /// Counting attribution for kSubsumed (single-fact mode): the stored row
  /// that subsumed this derivation, or the pending index that did — the
  /// commit loop resolves the latter to a row once the subsumer commits.
  size_t subsumer_row = kNoRow;
  size_t subsumer_pending = kNoRow;
};

/// End-of-iteration reconciliation: the derivations of one iteration are
/// treated as a *set* (the paper's tables discard a fact as subsumed even
/// when the subsuming fact was derived later in the same iteration, e.g.
/// Table 1 iteration 3 discards m_fib(0,4) in favour of m_fib(0,V2)).
void Reconcile(std::vector<Pending>* pending, const Database& db,
               SubsumptionMode mode) {
  // Pass 1: structural duplicates, against the database and earlier pending.
  std::set<std::string> seen;
  for (Pending& p : *pending) {
    p.key = p.fact.Key();
    p.ground = p.fact.IsGround();
    const Relation* rel = db.Find(p.fact.pred);
    bool in_db = rel != nullptr && rel->ContainsKey(p.key);
    if (in_db || !seen.insert(p.key).second) {
      p.outcome = InsertOutcome::kDuplicate;
    }
  }
  if (mode == SubsumptionMode::kNone) return;
  if (mode == SubsumptionMode::kSetImplication) {
    // Disjunction-based subsumption: a derivation is discarded when the
    // union of the database facts and the other surviving derivations
    // already covers it. Processed in derivation order, so of two
    // equivalent covers the earlier one survives. No single cover fact
    // exists, so these events stay unattributed (opaque) for counting.
    for (size_t i = 0; i < pending->size(); ++i) {
      Pending& p = (*pending)[i];
      if (p.outcome != InsertOutcome::kInserted) continue;
      std::vector<Conjunction> others;
      const Relation* rel = db.Find(p.fact.pred);
      if (rel != nullptr) {
        for (size_t e = 0; e < rel->size(); ++e) {
          others.push_back(rel->fact(e).constraint);
        }
      }
      for (size_t j = 0; j < pending->size(); ++j) {
        if (j == i) continue;
        const Pending& q = (*pending)[j];
        if (q.outcome != InsertOutcome::kInserted) continue;
        if (q.fact.pred != p.fact.pred || q.fact.arity != p.fact.arity) {
          continue;
        }
        others.push_back(q.fact.constraint);
      }
      if (!others.empty() && ImpliesDisjunction(p.fact.constraint, others)) {
        p.outcome = InsertOutcome::kSubsumed;
      }
    }
    return;
  }
  // Pass 2: subsumption against existing database facts. Ground-vs-ground
  // pairs are skipped: a ground fact can only subsume a structurally
  // identical one (see Relation::Insert).
  for (Pending& p : *pending) {
    if (p.outcome != InsertOutcome::kInserted) continue;
    const Relation* rel = db.Find(p.fact.pred);
    if (rel == nullptr) continue;
    for (size_t e = 0; e < rel->size(); ++e) {
      if (p.ground && rel->ground(e)) continue;
      if (Implies(p.fact.constraint, rel->fact(e).constraint)) {
        p.outcome = InsertOutcome::kSubsumed;
        p.subsumer_row = e;
        break;
      }
    }
  }
  // Pass 3: mutual subsumption within the iteration. Equivalent facts keep
  // the earliest derivation.
  for (size_t i = 0; i < pending->size(); ++i) {
    Pending& p = (*pending)[i];
    if (p.outcome != InsertOutcome::kInserted) continue;
    for (size_t j = 0; j < pending->size(); ++j) {
      if (j == i) continue;
      const Pending& q = (*pending)[j];
      if (q.outcome != InsertOutcome::kInserted) continue;
      if (q.fact.pred != p.fact.pred || q.fact.arity != p.fact.arity) continue;
      if (p.ground && q.ground) continue;
      if (!Implies(p.fact.constraint, q.fact.constraint)) continue;
      if (j > i && Implies(q.fact.constraint, p.fact.constraint)) {
        continue;  // Equivalent and p came first: p wins.
      }
      p.outcome = InsertOutcome::kSubsumed;
      p.subsumer_pending = j;
      break;
    }
  }
}

/// Applies one rule against the frozen pre-iteration database, buffering
/// derivations into `pending` and counting into `stats`.
Status ApplyOneRule(const Program& program, size_t rule_index,
                    const Database& db, int iteration, bool require_delta,
                    bool use_index, bool delta_rotate, bool interval_index,
                    Governor* governor, std::vector<Pending>* pending,
                    EvalStats* stats) {
  // Rule-batch boundary check: keeps long rule sequences responsive even
  // when individual rules derive nothing.
  CQLOPT_RETURN_IF_ERROR(governor->RuleBoundary());
  const Rule& rule = program.rules[rule_index];
  const std::string rule_key =
      rule.label.empty() ? "rule#" + std::to_string(rule_index) : rule.label;
  auto emit = [&](Fact fact,
                  const std::vector<Relation::FactRef>& parents) -> Status {
    CQLOPT_RETURN_IF_ERROR(governor->Fine());
    ++stats->derivations;
    ++stats->derivations_per_rule[rule_key];
    pending->push_back(Pending{rule.label, std::move(fact), parents, "",
                               false, InsertOutcome::kInserted, kNoRow,
                               kNoRow});
    return Status::OK();
  };
  return ApplyRule(rule, db, /*max_birth=*/iteration - 1, require_delta, emit,
                   use_index, stats, delta_rotate, interval_index);
}

}  // namespace

Result<long> RunIteration(const Program& program,
                          const std::vector<size_t>& rule_indexes,
                          int iteration, bool fire_constraint_facts,
                          bool require_delta, bool use_index,
                          bool delta_rotate, bool interval_index,
                          const EvalOptions& options, Governor* governor,
                          EvalResult* result) {
  std::vector<size_t> active;
  active.reserve(rule_indexes.size());
  for (size_t rule_index : rule_indexes) {
    if (program.rules[rule_index].IsConstraintFact() && !fire_constraint_facts)
      continue;
    active.push_back(rule_index);
  }
  std::vector<Pending> pending;
  for (size_t rule_index : active) {
    CQLOPT_RETURN_IF_ERROR(ApplyOneRule(program, rule_index, result->db,
                                        iteration, require_delta, use_index,
                                        delta_rotate, interval_index, governor,
                                        &pending, &result->stats));
  }
  Reconcile(&pending, result->db, options.subsumption);
  long inserted = 0;
  if (options.record_trace) result->trace.emplace_back();
  // Row each pending committed into (kNoRow when discarded), so deferred
  // blocked() attribution can point at subsumers that committed later in
  // this same loop.
  std::vector<size_t> committed_row(pending.size(), kNoRow);
  for (size_t i = 0; i < pending.size(); ++i) {
    Pending& p = pending[i];
    if (options.record_trace) {
      result->trace.back().push_back(Derivation{
          p.rule_label, p.fact.ToString(*program.symbols), p.outcome});
    }
    switch (p.outcome) {
      case InsertOutcome::kInserted: {
        ++result->stats.inserted;
        ++inserted;
        if (!p.fact.IsGround()) result->stats.all_ground = false;
        PredId pred = p.fact.pred;
        result->db.AddFact(std::move(p.fact), iteration,
                           SubsumptionMode::kNone, p.rule_label,
                           std::move(p.parents));
        committed_row[i] = result->db.Find(pred)->size() - 1;
        break;
      }
      case InsertOutcome::kSubsumed:
        ++result->stats.subsumed;
        break;
      case InsertOutcome::kDuplicate: {
        ++result->stats.duplicates;
        // Counting maintenance: the duplicate event supports the stored
        // row (which may have committed earlier in this very loop). A
        // representative that was itself discarded stores no row — the
        // event then has no stored effect and is not counted.
        Relation* rel = result->db.FindMutable(p.fact.pred);
        if (auto row = rel->RowOf(p.key)) rel->BumpSupport(*row);
        break;
      }
    }
  }
  // Deferred subsumption attribution: by now every pending that commits has
  // its row. An unresolvable subsumer (set-implication cover, or a pending
  // subsumer that was itself discarded) is charged to the relation as an
  // opaque event, which disables row-level counting there for retractions.
  for (Pending& p : pending) {
    if (p.outcome != InsertOutcome::kSubsumed) continue;
    Relation* rel = result->db.FindMutable(p.fact.pred);
    size_t row = p.subsumer_row;
    if (row == kNoRow && p.subsumer_pending != kNoRow) {
      row = committed_row[p.subsumer_pending];
    }
    if (row != kNoRow) {
      rel->BumpBlocked(row);
    } else {
      rel->NoteOpaqueSubsumption();
    }
  }
  return inserted;
}

Status GovernedAbort(const Status& cause, const std::string& position,
                     const EvalOptions& options, EvalResult* result) {
  result->stats.aborted = true;
  result->stats.abort_point = position;
  for (const auto& [pred, rel] : result->db.relations()) {
    result->stats.facts_per_pred[pred] = static_cast<long>(rel.size());
  }
  result->stats.interval_index_build_ns = result->db.IntervalBuildNs();
  if (options.abort_stats != nullptr) *options.abort_stats = result->stats;
  return Status(cause.code(), cause.message() + " at " + position);
}

std::string FactsSoFar(const EvalResult& result) {
  return std::to_string(result.db.TotalFacts()) + " facts stored (" +
         std::to_string(result.stats.derivations) + " derivations made)";
}

StratifiedPlan PlanStratified(const Program& program) {
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
                 size_t first_component, int start_iteration,
                 const EvalOptions& options, Governor* governor,
                 EvalResult* result) {
  const size_t component_count = plan.component_count();
  int global_iteration = start_iteration;
  bool capped = false;
  for (size_t c = first_component; c < component_count && !capped; ++c) {
    if (plan.rules_of[c].empty()) continue;  // pure-EDB component
    bool recursive = plan.recursive[c] != 0;
    long stratum_iterations = 0;
    for (int local = 0;; ++local) {
      if (global_iteration >= options.max_iterations) {
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
      Result<long> ran = RunIteration(
          program, plan.rules_of[c], global_iteration,
          /*fire_constraint_facts=*/local == 0,
          /*require_delta=*/local > 0, /*use_index=*/true,
          /*delta_rotate=*/false, options.interval_index, options, governor,
          result);
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

  for (const auto& [pred, rel] : result->db.relations()) {
    result->stats.facts_per_pred[pred] = static_cast<long>(rel.size());
  }
  result->stats.interval_index_build_ns = result->db.IntervalBuildNs();
  return Status::OK();
}

Status CheckEvalOptions(const EvalOptions& options) {
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
  return Status::OK();
}

}  // namespace eval_internal
}  // namespace cqlopt
