#include "transform/predicate_constraints.h"

#include <functional>
#include <set>

#include "ast/arg_map.h"
#include "ast/normalize.h"
#include "constraint/decision_scope.h"

namespace cqlopt {
namespace {

/// Recursion over body literals enumerating one disjunct per literal,
/// accumulating the conjunction; calls `leaf` with the full conjunction.
Status ForEachDisjunctChoice(
    const Rule& rule, size_t index,
    const std::function<const ConstraintSet&(PredId)>& constraint_of,
    const Conjunction& accumulated,
    const std::function<Status(const Conjunction&)>& leaf) {
  if (index == rule.body.size()) return leaf(accumulated);
  const Literal& lit = rule.body[index];
  const ConstraintSet& set = constraint_of(lit.pred);
  for (const Conjunction& disjunct : set.disjuncts()) {
    Conjunction next = accumulated;
    CQLOPT_RETURN_IF_ERROR(
        next.AddConjunction(PtolConjunction(lit, disjunct)));
    if (next.known_unsat() || !next.IsSatisfiable()) continue;
    CQLOPT_RETURN_IF_ERROR(
        ForEachDisjunctChoice(rule, index + 1, constraint_of, next, leaf));
  }
  return Status::OK();
}

}  // namespace

Result<std::map<PredId, ConstraintSet>> PredicateSingleStep(
    const Program& program,
    const std::function<const ConstraintSet&(PredId)>& constraint_of) {
  std::map<PredId, ConstraintSet> inferred;
  for (const Rule& rule : program.rules) {
    auto leaf = [&](const Conjunction& conj) -> Status {
      CQLOPT_ASSIGN_OR_RETURN(Conjunction head_c,
                              LtopConjunction(rule.head, conj));
      head_c.Simplify();
      inferred[rule.head.pred].AddDisjunct(head_c);
      return Status::OK();
    };
    CQLOPT_RETURN_IF_ERROR(
        ForEachDisjunctChoice(rule, 0, constraint_of, rule.constraints, leaf));
  }
  return inferred;
}

namespace {

Result<InferenceResult> GenPredicateConstraintsImpl(
    const Program& program,
    const std::map<PredId, ConstraintSet>& edb_constraints,
    const InferenceOptions& options) {
  InferenceResult result;
  std::vector<PredId> derived = program.DerivedPredicates();
  std::set<PredId> derived_set(derived.begin(), derived.end());
  // C1_p = false for every derived predicate.
  for (PredId p : derived) result.constraints[p] = ConstraintSet::False();

  const ConstraintSet kTrue = ConstraintSet::True();
  auto constraint_of = [&](PredId p) -> const ConstraintSet& {
    if (derived_set.count(p) > 0) return result.constraints.at(p);
    auto it = edb_constraints.find(p);
    return it == edb_constraints.end() ? kTrue : it->second;
  };

  std::set<PredId> widened;  // predicates forced to `true` by the caps
  for (int iteration = 0; iteration < options.max_iterations; ++iteration) {
    result.iterations = iteration + 1;
    // Single_step: inferred head constraints per rule and disjunct choice.
    std::map<PredId, ConstraintSet> inferred;  // C2
    for (const Rule& rule : program.rules) {
      if (widened.count(rule.head.pred) > 0) continue;
      auto leaf = [&](const Conjunction& conj) -> Status {
        CQLOPT_ASSIGN_OR_RETURN(Conjunction head_c,
                                LtopConjunction(rule.head, conj));
        head_c.Simplify();
        inferred[rule.head.pred].AddDisjunct(head_c);
        return Status::OK();
      };
      CQLOPT_RETURN_IF_ERROR(ForEachDisjunctChoice(rule, 0, constraint_of,
                                                   rule.constraints, leaf));
    }
    bool all_marked = true;
    for (PredId p : derived) {
      if (widened.count(p) > 0) continue;
      ConstraintSet& current = result.constraints[p];
      auto it = inferred.find(p);
      if (it == inferred.end()) continue;
      if (it->second.Implies(current)) continue;  // 'marked'
      current.UnionWith(it->second);
      all_marked = false;
      if (static_cast<int>(current.disjuncts().size()) >
          options.max_disjuncts) {
        current = ConstraintSet::True();
        widened.insert(p);
      }
    }
    if (all_marked) {
      result.converged = widened.empty();
      return result;
    }
  }
  // Cap hit: fall back to `true` for every derived predicate (Section 4.2's
  // terminating variant) — trivially a predicate constraint.
  for (PredId p : derived) result.constraints[p] = ConstraintSet::True();
  result.converged = false;
  return result;
}

}  // namespace

Result<InferenceResult> GenPredicateConstraints(
    const Program& program,
    const std::map<PredId, ConstraintSet>& edb_constraints,
    const InferenceOptions& options) {
  DecisionScope decisions({});
  Result<InferenceResult> result =
      GenPredicateConstraintsImpl(program, edb_constraints, options);
  if (result.ok()) decisions.AddTo(&*result);
  return result;
}

Result<Program> PropagatePredicateConstraints(
    const Program& program,
    const std::map<PredId, ConstraintSet>& edb_constraints,
    const InferenceOptions& options, InferenceResult* inference_out) {
  CQLOPT_ASSIGN_OR_RETURN(
      InferenceResult inference,
      GenPredicateConstraints(program, edb_constraints, options));
  if (inference_out != nullptr) *inference_out = inference;

  const ConstraintSet kTrue = ConstraintSet::True();
  auto constraint_of = [&](PredId p) -> const ConstraintSet& {
    auto it = inference.constraints.find(p);
    if (it != inference.constraints.end()) return it->second;
    auto edb = edb_constraints.find(p);
    return edb == edb_constraints.end() ? kTrue : edb->second;
  };

  Program out(program.symbols);
  out.arities = program.arities;
  for (const Rule& rule : program.rules) {
    // One rule copy per choice of disjunct per body literal (footnote 4).
    std::vector<Rule> copies;
    int counter = 0;
    auto leaf = [&](const Conjunction& conj) -> Status {
      Rule copy = rule;
      copy.constraints = conj;
      if (counter > 0) {
        copy.label = rule.label + "_" + std::to_string(counter);
      }
      ++counter;
      copies.push_back(std::move(copy));
      return Status::OK();
    };
    CQLOPT_RETURN_IF_ERROR(
        ForEachDisjunctChoice(rule, 0, constraint_of, rule.constraints, leaf));
    for (Rule& copy : copies) out.rules.push_back(std::move(copy));
  }
  DeduplicateRules(&out);
  return out;
}

Result<Program> PropagateGivenConstraints(
    const Program& program,
    const std::map<PredId, ConstraintSet>& constraints) {
  const ConstraintSet kTrue = ConstraintSet::True();
  auto constraint_of = [&](PredId p) -> const ConstraintSet& {
    auto it = constraints.find(p);
    return it == constraints.end() ? kTrue : it->second;
  };
  Program out(program.symbols);
  out.arities = program.arities;
  for (const Rule& rule : program.rules) {
    std::vector<Rule> copies;
    int counter = 0;
    auto leaf = [&](const Conjunction& conj) -> Status {
      Rule copy = rule;
      copy.constraints = conj;
      if (counter > 0) {
        copy.label = rule.label + "_" + std::to_string(counter);
      }
      ++counter;
      copies.push_back(std::move(copy));
      return Status::OK();
    };
    CQLOPT_RETURN_IF_ERROR(
        ForEachDisjunctChoice(rule, 0, constraint_of, rule.constraints, leaf));
    for (Rule& copy : copies) out.rules.push_back(std::move(copy));
  }
  DeduplicateRules(&out);
  return out;
}

}  // namespace cqlopt
