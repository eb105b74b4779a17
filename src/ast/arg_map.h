#ifndef CQLOPT_AST_ARG_MAP_H_
#define CQLOPT_AST_ARG_MAP_H_

#include "ast/literal.h"
#include "constraint/constraint_set.h"

namespace cqlopt {

/// PTOL and LTOP (Definitions 2.7 and 2.8): the conversions between
/// constraints over the *argument positions* of a predicate ($1, $2, ...,
/// represented as VarIds 1..arity) and constraints over the *variables* of a
/// literal p(X̄) in a rule. A constraint set converts disjunct by disjunct.
///
/// Example (Definition 2.7): for flight of arity 4,
///   PTOL(flight(S,D,T,C), ($3 <= 240) | ($4 <= 150))
///     = (T <= 240) | (C <= 150).
/// Example (Definition 2.8):
///   LTOP(flight(S,D,T,C), (T <= 240) | (C <= 150))
///     = ($3 <= 240) | ($4 <= 150).
///
/// Both handle literals with repeated variables: PTOL for p(X, X) conjoins
/// the constraints on $1 and $2 onto the same variable; LTOP ties each
/// position to its variable with an equality and projects onto the
/// positions, exactly as Definition 2.8 prescribes.

/// Converts a conjunction over argument positions into one over `lit`'s
/// variables.
Conjunction PtolConjunction(const Literal& lit, const Conjunction& over_args);

/// Converts a conjunction over `lit`'s variables (or any superset: extra
/// variables are projected away) into one over argument positions 1..arity.
Result<Conjunction> LtopConjunction(const Literal& lit,
                                    const Conjunction& over_vars);

}  // namespace cqlopt

#endif  // CQLOPT_AST_ARG_MAP_H_
