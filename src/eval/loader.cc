#include "eval/loader.h"

#include "ast/arg_map.h"
#include "ast/parser.h"
#include "ast/printer.h"

namespace cqlopt {
namespace {

/// Positional load error: cites the 1-based source line and the offending
/// statement rendered back in the surface syntax, so a bad row in a large
/// fact file can be found without bisecting the input.
Status FactError(int line, const std::string& statement,
                 const std::string& problem) {
  return Status::InvalidArgument("database text line " + std::to_string(line) +
                                 ": " + problem + ": " + statement);
}

}  // namespace

Result<int> LoadDatabaseText(const std::string& text,
                             std::shared_ptr<SymbolTable> symbols,
                             Database* db) {
  CQLOPT_ASSIGN_OR_RETURN(ParseResult parsed,
                          ParseProgram(text, std::move(symbols)));
  if (!parsed.queries.empty()) {
    return Status::InvalidArgument(
        "database text line " + std::to_string(parsed.queries[0].source_line) +
        ": queries are not allowed in an EDB: " +
        RenderQuery(parsed.queries[0], *parsed.program.symbols));
  }
  int loaded = 0;
  for (const Rule& rule : parsed.program.rules) {
    if (!rule.IsConstraintFact()) {
      return FactError(rule.source_line,
                       RenderRule(rule, *parsed.program.symbols),
                       "rule has a body; only facts are allowed");
    }
    // A statement pinning every argument directly (`singleleg(msn, ord, 50,
    // 80).`) is a tuple: store it as one, no decision made.
    if (auto tuple = DirectValuesOf(rule.constraints, rule.head.args)) {
      CanonicalFact fact = CanonicalFact::Ground(rule.head.pred,
                                                 std::move(*tuple));
      const uint64_t hash = fact.Hash();
      db->AddFact(std::move(fact), hash);
      ++loaded;
      continue;
    }
    // Otherwise convert the head's variable-form constraints to
    // argument-position form, exactly as a derived fact would be built.
    CQLOPT_ASSIGN_OR_RETURN(Conjunction over_positions,
                            LtopConjunction(rule.head, rule.constraints));
    if (!over_positions.IsSatisfiable()) {
      return FactError(rule.source_line,
                       RenderRule(rule, *parsed.program.symbols),
                       "fact is unsatisfiable");
    }
    over_positions.Simplify();
    db->AddFact(
        Fact(rule.head.pred, rule.head.arity(), std::move(over_positions)));
    ++loaded;
  }
  return loaded;
}

}  // namespace cqlopt
