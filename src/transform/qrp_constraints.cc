#include "transform/qrp_constraints.h"

#include "ast/arg_map.h"
#include "transform/inference_loop.h"

namespace cqlopt {
namespace transform_internal {

Result<InferenceResult> GenQrpConstraintsWith(
    const Program& program, PredId query_pred, const InferenceOptions& options,
    const LiteralConstraintFn& literal_constraint) {
  // QRP constraints are tracked for every predicate occurring in the
  // program — derived predicates feed the propagation; database-predicate
  // QRP constraints are the index selections of Section 4.6.
  std::map<PredId, ConstraintSet> start;
  for (const Rule& rule : program.rules) {
    start[rule.head.pred] = ConstraintSet::False();
    for (const Literal& lit : rule.body) {
      start[lit.pred] = ConstraintSet::False();
    }
  }
  start[query_pred] = ConstraintSet::True();
  auto step = [&](const ConstraintLookup& current,
                  const std::set<PredId>& settled)
      -> Result<std::map<PredId, ConstraintSet>> {
    std::map<PredId, ConstraintSet> inferred;  // C2
    for (const Rule& rule : program.rules) {
      for (const Conjunction& head_disjunct :
           current(rule.head.pred).disjuncts()) {
        // The rule's constraints plus the (mapped) head constraint.
        Conjunction pool = rule.constraints;
        CQLOPT_RETURN_IF_ERROR(
            pool.AddConjunction(PtolConjunction(rule.head, head_disjunct)));
        if (pool.known_unsat() || !pool.IsSatisfiable()) continue;
        for (const Literal& lit : rule.body) {
          if (settled.count(lit.pred) > 0) continue;
          CQLOPT_ASSIGN_OR_RETURN(Conjunction lit_c,
                                  literal_constraint(lit, pool));
          inferred[lit.pred].AddDisjunct(lit_c);
        }
      }
    }
    return inferred;
  };
  return IterateInference(std::move(start), {query_pred}, {}, step, options);
}

}  // namespace transform_internal

Result<InferenceResult> GenQrpConstraints(const Program& program,
                                          PredId query_pred,
                                          const InferenceOptions& options) {
  return transform_internal::GenQrpConstraintsWith(
      program, query_pred, options,
      [](const Literal& lit, const Conjunction& pool) -> Result<Conjunction> {
        CQLOPT_ASSIGN_OR_RETURN(Conjunction lit_c, LtopConjunction(lit, pool));
        lit_c.Simplify();
        return lit_c;
      });
}

}  // namespace cqlopt
