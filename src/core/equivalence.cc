#include "core/equivalence.h"

#include "ast/arg_map.h"
#include "constraint/implication.h"

namespace cqlopt {

namespace {

/// What the query's filter says of each argument position, for skipping
/// ground rows without building their points.
struct ConstantFilter {
  /// Whether rows may be skipped at all: not when the filter equates
  /// positions (a row mixing kinds across them is a TypeError).
  bool usable;
  std::vector<std::optional<SymbolId>> symbol;  // the bound symbol
  std::vector<std::optional<Rational>> number;  // the bound number
  std::vector<uint8_t> numeric;  // some linear atom mentions the position

  ConstantFilter(const Conjunction& filter, size_t arity)
      : usable(filter.EqualityPairs().empty()),
        symbol(arity),
        number(arity),
        numeric(arity, 0) {
    for (size_t p = 0; p < arity; ++p) {
      const VarId v = static_cast<VarId>(p + 1);
      symbol[p] = filter.GetSymbol(v);
      number[p] = filter.QuickNumericValue(v);
      const VarId root = filter.Find(v);  // linear atoms are over roots
      for (const LinearConstraint& atom : filter.linear()) {
        for (VarId var : atom.Vars()) {
          if (var == root) numeric[p] = 1;
        }
      }
    }
  }

  /// True if ground row `i` of `rel` holds, at some position, a different
  /// value of the same kind as the constant the filter binds there, so it
  /// cannot answer the query. False whenever a position's value is of the
  /// other kind than the filter treats it as: AddConjunction reports that
  /// symbol/number mix as a TypeError, and such a row goes through it.
  bool Excludes(const Relation& rel, size_t i) const {
    if (!usable) return false;
    bool clash = false;
    for (size_t p = 0; p < symbol.size(); ++p) {
      const int position = static_cast<int>(p + 1);
      switch (rel.tag(i, position)) {
        case Relation::ColTag::kSymbol:
          if (numeric[p] != 0) return false;
          clash = clash || (symbol[p].has_value() &&
                            rel.symbol_at(i, position) != *symbol[p]);
          break;
        case Relation::ColTag::kNumber:
          if (symbol[p].has_value()) return false;
          clash = clash || (number[p].has_value() &&
                            rel.number_at(i, position) != *number[p]);
          break;
        default:
          break;
      }
    }
    return clash;
  }
};

}  // namespace

Result<std::vector<Fact>> QueryAnswers(const EvalResult& result,
                                       const Query& query) {
  std::vector<Fact> answers;
  const Relation* rel = result.db.Find(query.literal.pred);
  if (rel == nullptr) return answers;
  CQLOPT_ASSIGN_OR_RETURN(Conjunction filter,
                          LtopConjunction(query.literal, query.constraints));
  // A ground row holding another value of the same kind where the query
  // binds a constant is skipped without building its point.
  const ConstantFilter constants(filter, query.literal.args.size());
  for (size_t i = 0; i < rel->size(); ++i) {
    if (rel->ground(i) && constants.Excludes(*rel, i)) continue;
    Fact answer = rel->fact(i);
    CQLOPT_RETURN_IF_ERROR(answer.constraint.AddConjunction(filter));
    if (!answer.constraint.IsSatisfiable()) continue;
    answer.constraint.Simplify();
    answers.push_back(std::move(answer));
  }
  return answers;
}

bool SameAnswers(const std::vector<Fact>& a, const std::vector<Fact>& b) {
  auto covered = [](const std::vector<Fact>& xs, const std::vector<Fact>& ys) {
    std::vector<Conjunction> ys_c;
    ys_c.reserve(ys.size());
    for (const Fact& y : ys) ys_c.push_back(y.constraint);
    for (const Fact& x : xs) {
      if (!ImpliesDisjunction(x.constraint, ys_c)) return false;
    }
    return true;
  };
  return covered(a, b) && covered(b, a);
}

}  // namespace cqlopt
