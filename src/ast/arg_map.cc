#include "ast/arg_map.h"

namespace cqlopt {

Conjunction PtolConjunction(const Literal& lit, const Conjunction& over_args) {
  std::map<VarId, VarId> mapping;
  for (int i = 0; i < lit.arity(); ++i) {
    mapping[i + 1] = lit.args[static_cast<size_t>(i)];
  }
  // Rule variable ids (>= 1024) are disjoint from position ids (1..arity),
  // so the simultaneous rename is well defined; a non-injective argument
  // tuple conjoins the per-position constraints, per Definition 2.7.
  return over_args.Rename(mapping);
}

Result<Conjunction> LtopConjunction(const Literal& lit,
                                    const Conjunction& over_vars) {
  // Definition 2.8: conjoin position-variable equalities $i = X_i, then
  // project onto the positions.
  Conjunction tied = over_vars;
  std::vector<VarId> positions;
  positions.reserve(static_cast<size_t>(lit.arity()));
  for (int i = 0; i < lit.arity(); ++i) {
    CQLOPT_RETURN_IF_ERROR(
        tied.AddEquality(i + 1, lit.args[static_cast<size_t>(i)]));
    positions.push_back(i + 1);
  }
  return tied.Project(positions);
}

}  // namespace cqlopt
