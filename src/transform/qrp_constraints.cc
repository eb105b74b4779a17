#include "transform/qrp_constraints.h"

#include <set>

#include "ast/arg_map.h"
#include "constraint/decision_scope.h"

namespace cqlopt {
namespace {

Result<InferenceResult> GenQrpConstraintsImpl(const Program& program,
                                              PredId query_pred,
                                              const InferenceOptions& options) {
  InferenceResult result;
  // QRP constraints are tracked for every predicate occurring in the
  // program — derived predicates feed the propagation; database-predicate
  // QRP constraints are the index selections of Section 4.6.
  std::set<PredId> preds;
  for (const Rule& rule : program.rules) {
    preds.insert(rule.head.pred);
    for (const Literal& lit : rule.body) preds.insert(lit.pred);
  }
  preds.insert(query_pred);
  for (PredId p : preds) {
    result.constraints[p] =
        p == query_pred ? ConstraintSet::True() : ConstraintSet::False();
  }

  std::set<PredId> widened;
  for (int iteration = 0; iteration < options.max_iterations; ++iteration) {
    result.iterations = iteration + 1;
    std::map<PredId, ConstraintSet> inferred;  // C2
    for (const Rule& rule : program.rules) {
      const ConstraintSet& head_set = result.constraints.at(rule.head.pred);
      for (const Conjunction& head_disjunct : head_set.disjuncts()) {
        Conjunction base = rule.constraints;
        CQLOPT_RETURN_IF_ERROR(
            base.AddConjunction(PtolConjunction(rule.head, head_disjunct)));
        if (base.known_unsat() || !base.IsSatisfiable()) continue;
        for (const Literal& lit : rule.body) {
          if (widened.count(lit.pred) > 0) continue;
          CQLOPT_ASSIGN_OR_RETURN(Conjunction lit_c,
                                  LtopConjunction(lit, base));
          lit_c.Simplify();
          inferred[lit.pred].AddDisjunct(lit_c);
        }
      }
    }
    bool all_marked = true;
    for (PredId p : preds) {
      if (p == query_pred || widened.count(p) > 0) continue;
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
  // Cap hit: `true` is trivially a QRP constraint (Section 4.2).
  for (PredId p : preds) result.constraints[p] = ConstraintSet::True();
  result.converged = false;
  return result;
}

}  // namespace

Result<InferenceResult> GenQrpConstraints(const Program& program,
                                          PredId query_pred,
                                          const InferenceOptions& options) {
  DecisionScope decisions({});
  Result<InferenceResult> result =
      GenQrpConstraintsImpl(program, query_pred, options);
  if (result.ok()) decisions.AddTo(&*result);
  return result;
}

}  // namespace cqlopt
