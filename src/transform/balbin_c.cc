#include "transform/balbin_c.h"

#include <algorithm>

#include "ast/arg_map.h"
#include "transform/inference_loop.h"

namespace cqlopt {
namespace {

/// The syntactic literal constraint: the atoms of `pool` mentioning only
/// variables of `lit`.
Result<Conjunction> SyntacticLiteralConstraint(const Conjunction& pool,
                                               const Literal& lit) {
  std::vector<VarId> lit_vars = lit.Vars();
  auto covered = [&lit_vars](const std::vector<VarId>& vars) {
    for (VarId v : vars) {
      if (!std::binary_search(lit_vars.begin(), lit_vars.end(), v)) {
        return false;
      }
    }
    return true;
  };
  Conjunction out;
  for (const LinearConstraint& atom : pool.linear()) {
    if (covered(atom.Vars())) CQLOPT_RETURN_IF_ERROR(out.AddLinear(atom));
  }
  for (const auto& [member, root] : pool.EqualityPairs()) {
    if (covered({member, root})) {
      CQLOPT_RETURN_IF_ERROR(out.AddEquality(member, root));
    }
  }
  for (const auto& [root, symbol] : pool.SymbolBindings()) {
    if (covered({root})) CQLOPT_RETURN_IF_ERROR(out.BindSymbol(root, symbol));
  }
  return out;
}

}  // namespace

Result<InferenceResult> GenSyntacticQrpConstraints(
    const Program& program, PredId query_pred,
    const InferenceOptions& options) {
  return transform_internal::GenQrpConstraintsWith(
      program, query_pred, options,
      [](const Literal& lit, const Conjunction& pool) -> Result<Conjunction> {
        CQLOPT_ASSIGN_OR_RETURN(Conjunction selected,
                                SyntacticLiteralConstraint(pool, lit));
        return LtopConjunction(lit, selected);
      });
}

}  // namespace cqlopt
