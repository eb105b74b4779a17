#ifndef CQLOPT_AST_NORMALIZE_H_
#define CQLOPT_AST_NORMALIZE_H_

#include "ast/program.h"

namespace cqlopt {

/// Helpers shared by the transformations for building normalized rules.

/// A variable allocator whose floor is above every id used in `program`
/// (and never below 1024, the rule-variable floor).
VarAllocator MakeAllocator(const Program& program);

/// Builds `head_pred(X1..Xn) :- body_pred(X1..Xn).` over fresh distinct
/// variables — the shape of the query-wrapper rule of Theorem 3.3 /
/// Constraint_rewrite and of fold/unfold definition rules.
Rule MakeBridgeRule(PredId head_pred, PredId body_pred, int arity,
                    VarAllocator* alloc, const std::string& label);

/// Canonical structural key of a rule: predicates plus argument pattern plus
/// constraints, with variables renumbered by first occurrence — two
/// alpha-equivalent rules get the same key.
std::string RuleCanonicalKey(const Rule& rule);

/// Removes rules that are alpha-equivalent duplicates of earlier rules
/// (the propagation's disjunct cross-products can emit copies). Returns the
/// number removed.
int DeduplicateRules(Program* program);

/// True if every rule of the program is range-restricted in the CQL sense
/// used by Sections 6–7: every head variable either occurs in a body
/// literal or is functionally determined (through equality constraints and
/// symbol bindings) by variables that do. Range restriction is the
/// syntactic guarantee that bottom-up evaluation computes only ground facts
/// on ground EDBs (the paper's footnote 8).
bool IsRangeRestricted(const Program& program);
bool IsRuleRangeRestricted(const Rule& rule);

}  // namespace cqlopt

#endif  // CQLOPT_AST_NORMALIZE_H_
