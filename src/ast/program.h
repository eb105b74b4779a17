#ifndef CQLOPT_AST_PROGRAM_H_
#define CQLOPT_AST_PROGRAM_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ast/rule.h"

namespace cqlopt {

/// A query `?- C, q(X̄).` in normalized form: one literal over distinct
/// fresh variables plus a constraint conjunction binding some of them
/// (e.g. `?- cheaporshort(madison, seattle, T, C)` binds the first two
/// arguments to symbols).
struct Query {
  Literal literal;
  Conjunction constraints;
  /// 1-based source line of the `?-` statement, or 0 if built
  /// programmatically (mirrors Rule::source_line).
  int source_line = 0;
};

/// A CQL program: a finite set of rules over a shared symbol table
/// (Section 2). Predicates with at least one rule are *derived*; all others
/// are *database (EDB)* predicates.
struct Program {
  Program() : symbols(std::make_shared<SymbolTable>()) {}
  explicit Program(std::shared_ptr<SymbolTable> table)
      : symbols(std::move(table)) {}

  std::shared_ptr<SymbolTable> symbols;
  std::vector<Rule> rules;
  /// Declared arity of every predicate seen (rules and queries).
  std::map<PredId, int> arities;

  /// Predicates in rule heads, sorted.
  std::vector<PredId> DerivedPredicates() const;
  /// Declared arity, or -1 if the predicate is unknown.
  int Arity(PredId pred) const;
  /// Records the arity of a predicate; returns InvalidArgument on conflict.
  Status DeclareArity(PredId pred, int arity);

  /// Removes rules whose head predicate cannot reach `query_pred` in the
  /// dependency graph ("deleting rules not reachable from the query
  /// predicate", Example 4.1). Returns the number of rules removed.
  int RemoveUnreachable(PredId query_pred);

  /// Next variable id above every id used in the program; used to seed
  /// VarAllocators so transformation-introduced variables stay fresh.
  VarId MaxVar() const;
};

}  // namespace cqlopt

#endif  // CQLOPT_AST_PROGRAM_H_
