#include "core/equivalence.h"

#include <gtest/gtest.h>

#include "ast/parser.h"

namespace cqlopt {
namespace {

struct Parsed {
  Program program;
  Query query;
};

Parsed ParseWithQuery(const std::string& text) {
  auto parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->queries.size(), 1u);
  return Parsed{parsed->program, parsed->queries[0]};
}

TEST(EquivalenceTest, QueryAnswersFiltersByConstants) {
  Parsed in = ParseWithQuery(
      "t(X, Y) :- e(X, Y).\n"
      "?- t(1, Y).\n");
  Database db;
  auto add = [&](int a, int b) {
    ASSERT_TRUE(db.AddGroundFact(in.program.symbols.get(), "e",
                                 {Database::Value::Number(Rational(a)),
                                  Database::Value::Number(Rational(b))})
                    .ok());
  };
  add(1, 2);
  add(1, 3);
  add(9, 9);
  auto run = Evaluate(in.program, db, {});
  ASSERT_TRUE(run.ok());
  auto answers = QueryAnswers(*run, in.query);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 2u);
  for (const Fact& f : *answers) {
    EXPECT_EQ(f.constraint.GetNumericValue(1),
              std::optional<Rational>(Rational(1)));
  }
}

TEST(EquivalenceTest, QueryAnswersFiltersByInequalities) {
  Parsed in = ParseWithQuery(
      "t(X) :- e(X, Y).\n"
      "?- t(X), X <= 2.\n");
  Database db;
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(db.AddGroundFact(in.program.symbols.get(), "e",
                                 {Database::Value::Number(Rational(i)),
                                  Database::Value::Number(Rational(0))})
                    .ok());
  }
  auto run = Evaluate(in.program, db, {});
  ASSERT_TRUE(run.ok());
  auto answers = QueryAnswers(*run, in.query);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 2u);
}

TEST(EquivalenceTest, MissingRelationGivesNoAnswers) {
  Parsed in = ParseWithQuery("t(X) :- e(X). ?- t(1).");
  EvalResult empty;
  auto answers = QueryAnswers(empty, in.query);
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->empty());
}

/// An EvalResult whose `t` relation holds the given rows, each a symbol or
/// a number per position, plus a constraint row t(a, Y) with Y <= 3.
EvalResult ResultWithRows(
    Parsed* in, const std::vector<std::vector<Database::Value>>& rows) {
  EvalResult result;
  SymbolTable* symbols = in->program.symbols.get();
  for (const auto& row : rows) {
    EXPECT_TRUE(result.db.AddGroundFact(symbols, "t", row).ok());
  }
  Conjunction c;
  EXPECT_TRUE(c.BindSymbol(1, symbols->InternSymbol("a")).ok());
  EXPECT_TRUE(c.AddLinear(LinearConstraint(LinearExpr::Var(2) -
                                               LinearExpr::Constant(3),
                                           CmpOp::kLe))
                  .ok());
  result.db.AddFact(Fact(symbols->LookupPredicate("t"), 2, c));
  return result;
}

Database::Value Sym(const std::string& name) {
  return Database::Value::Symbol(name);
}
Database::Value Num(int n) { return Database::Value::Number(Rational(n)); }

std::vector<std::string> Rendered(const std::vector<Fact>& facts,
                                  const SymbolTable& symbols) {
  std::vector<std::string> out;
  for (const Fact& f : facts) out.push_back(f.ToString(symbols));
  return out;
}

// The column pre-filter skips ground rows holding another constant of the
// same kind where the query binds one; the answers are those AddConjunction
// keeps, in row order, constraint rows included.
TEST(EquivalenceTest, QueryAnswersSkipsRowsWithAnotherConstant) {
  Parsed in = ParseWithQuery("t(X, Y) :- e(X, Y).\n?- t(a, Y).\n");
  EvalResult result = ResultWithRows(
      &in, {{Sym("a"), Num(1)}, {Sym("b"), Num(2)}, {Sym("a"), Num(7)},
            {Sym("c"), Sym("d")}});
  auto answers = QueryAnswers(result, in.query);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(Rendered(*answers, *in.program.symbols),
            (std::vector<std::string>{"t(a, 1)", "t(a, 7)",
                                      "t(a, $2; $2 <= 3)"}));

  Parsed both = ParseWithQuery("t(X, Y) :- e(X, Y).\n?- t(a, 7).\n");
  result = ResultWithRows(&both, {{Sym("a"), Num(1)}, {Sym("a"), Num(7)}});
  answers = QueryAnswers(result, both.query);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(Rendered(*answers, *both.program.symbols),
            (std::vector<std::string>{"t(a, 7)"}));
}

// A row mixing kinds with the query is never skipped by the pre-filter:
// AddConjunction reports it as a TypeError, as it always has — also when
// another position holds a clashing constant of the same kind.
TEST(EquivalenceTest, QueryAnswersKindMismatchStillRaisesTypeError) {
  Parsed in = ParseWithQuery("t(X, Y) :- e(X, Y).\n?- t(a, Y).\n");
  EvalResult result = ResultWithRows(&in, {{Num(1), Num(2)}});
  auto answers = QueryAnswers(result, in.query);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kTypeError);

  Parsed ranged =
      ParseWithQuery("t(X, Y) :- e(X, Y).\n?- t(a, Y), Y <= 5.\n");
  result = ResultWithRows(&ranged, {{Sym("b"), Sym("d")}});
  answers = QueryAnswers(result, ranged.query);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kTypeError);
}

Fact NumericFact(int value) {
  Conjunction c;
  LinearExpr e = LinearExpr::Var(1) - LinearExpr::Constant(Rational(value));
  EXPECT_TRUE(c.AddLinear(LinearConstraint(e, CmpOp::kEq)).ok());
  return Fact(0, 1, c);
}

Fact RangeFact(int lo, int hi) {
  Conjunction c;
  LinearExpr upper = LinearExpr::Var(1) - LinearExpr::Constant(Rational(hi));
  LinearExpr lower = LinearExpr::Constant(Rational(lo)) - LinearExpr::Var(1);
  EXPECT_TRUE(c.AddLinear(LinearConstraint(upper, CmpOp::kLe)).ok());
  EXPECT_TRUE(c.AddLinear(LinearConstraint(lower, CmpOp::kLe)).ok());
  return Fact(0, 1, c);
}

TEST(EquivalenceTest, SameAnswersGroundSets) {
  std::vector<Fact> a = {NumericFact(1), NumericFact(2)};
  std::vector<Fact> b = {NumericFact(2), NumericFact(1)};
  EXPECT_TRUE(SameAnswers(a, b));
  b.push_back(NumericFact(3));
  EXPECT_FALSE(SameAnswers(a, b));
}

TEST(EquivalenceTest, SameAnswersConstraintFactsCoverage) {
  // {[0,10]} == {[0,5], [5,10]} as ground sets.
  std::vector<Fact> whole = {RangeFact(0, 10)};
  std::vector<Fact> split = {RangeFact(0, 5), RangeFact(5, 10)};
  EXPECT_TRUE(SameAnswers(whole, split));
  // {[0,10]} != {[0,4], [5,10]} (gap at (4,5)).
  std::vector<Fact> gap = {RangeFact(0, 4), RangeFact(5, 10)};
  EXPECT_FALSE(SameAnswers(whole, gap));
}

TEST(EquivalenceTest, EmptySetsAreEqual) {
  EXPECT_TRUE(SameAnswers({}, {}));
  EXPECT_FALSE(SameAnswers({NumericFact(1)}, {}));
}

}  // namespace
}  // namespace cqlopt
