#ifndef CQLOPT_EVAL_PROVENANCE_H_
#define CQLOPT_EVAL_PROVENANCE_H_

#include <optional>
#include <string>

#include "eval/database.h"

namespace cqlopt {

/// Derivation trees (Definition 2.2): every derived fact records the rule
/// and the body facts that produced it, so the tree rooted at any stored
/// fact can be reconstructed. EDB facts are leaves; constraints are the
/// conditions that admitted each node, not tree nodes themselves — exactly
/// the paper's reading.

/// Renders the derivation tree rooted at `ref`, e.g.
///
///   t(1, 3)  [r2]
///   |- e(1, 2)
///   `- t(2, 3)  [r1]
///      `- e(2, 3)
///
/// Returns NotFound if `ref` does not name a stored fact.
Result<std::string> RenderDerivationTree(const Database& db,
                                         Relation::FactRef ref,
                                         const SymbolTable& symbols);

/// Finds the first stored fact of `pred` whose rendering equals `text`
/// (e.g. "t(1, 3)"); nullopt if absent.
std::optional<Relation::FactRef> FindFactByText(const Database& db,
                                                PredId pred,
                                                const std::string& text,
                                                const SymbolTable& symbols);

}  // namespace cqlopt

#endif  // CQLOPT_EVAL_PROVENANCE_H_
