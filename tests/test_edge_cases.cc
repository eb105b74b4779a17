// Edge cases across modules: malformed inputs, degenerate programs, and
// boundary behaviours that the per-module suites do not cover.

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "ast/printer.h"
#include "constraint/fourier_motzkin.h"
#include "constraint/implication.h"
#include "core/equivalence.h"
#include "transform/magic.h"

namespace cqlopt {
namespace {

TEST(ParserEdgeTest, MalformedInputsRejectedNotCrashing) {
  for (const char* bad : {
           "q(X",                       // unclosed literal
           "q(X) :- .",                 // empty body item
           "q(X) :- e(X)",              // missing dot
           ":- e(X).",                  // missing head
           "q(X) :- e(X), <= 4.",       // dangling operator
           "q(X) :- e(X), X <= .",      // missing rhs
           "q(X) :- e(X), X ! 4.",      // unknown operator
           "?- .",                      // empty query
           "q() :- .",                  // empty args + empty body
           "123(X).",                   // numeric predicate
           "q(X) :- e(X) e(X).",        // missing comma
       }) {
    auto result = ParseProgram(bad);
    EXPECT_FALSE(result.ok()) << bad;
  }
}

TEST(ParserEdgeTest, DeepParenthesesNest) {
  auto result = ParseProgram("q(X) :- e(X), ((((X)))) <= ((4)).");
  EXPECT_TRUE(result.ok());
}

TEST(ParserEdgeTest, LargeCoefficientsExact) {
  auto result = ParseProgram(
      "q(X) :- e(X), 123456789123456789 * X <= 987654321987654321.");
  ASSERT_TRUE(result.ok());
  const Rule& rule = result->program.rules[0];
  ASSERT_EQ(rule.constraints.linear().size(), 1u);
}

TEST(ParserEdgeTest, NegativeConstantsInArgs) {
  auto result = ParseProgram("fact(-3, 0 - 5).");
  ASSERT_TRUE(result.ok());
  const Rule& rule = result->program.rules[0];
  EXPECT_EQ(rule.constraints.GetNumericValue(rule.head.args[0]),
            std::optional<Rational>(Rational(-3)));
  EXPECT_EQ(rule.constraints.GetNumericValue(rule.head.args[1]),
            std::optional<Rational>(Rational(-5)));
}

TEST(FmEdgeTest, ManyVariablesChain) {
  // x0 <= x1 <= ... <= x19 and x19 <= x0 - 1: unsat via a 20-step chain.
  std::vector<LinearConstraint> sys;
  for (VarId v = 1; v < 20; ++v) {
    LinearExpr e = LinearExpr::Var(v) - LinearExpr::Var(v + 1);
    sys.emplace_back(e, CmpOp::kLe);
  }
  LinearExpr close = LinearExpr::Var(20) - LinearExpr::Var(1);
  close.AddConstant(Rational(1));
  sys.emplace_back(close, CmpOp::kLe);
  EXPECT_FALSE(fm::IsSatisfiable(sys));
  sys.pop_back();
  EXPECT_TRUE(fm::IsSatisfiable(sys));
}

TEST(FmEdgeTest, CoefficientBlowupStaysExact) {
  // Doubling chain: x_{i+1} = 2 x_i; x1 = 1 forces x30 = 2^29.
  std::vector<LinearConstraint> sys;
  for (VarId v = 1; v < 30; ++v) {
    LinearExpr e = LinearExpr::Var(v + 1) - LinearExpr::Var(v).Scale(Rational(2));
    sys.emplace_back(e, CmpOp::kEq);
  }
  sys.emplace_back(LinearExpr::Var(1) - LinearExpr::Constant(Rational(1)),
                   CmpOp::kEq);
  Conjunction c;
  for (const auto& atom : sys) ASSERT_TRUE(c.AddLinear(atom).ok());
  auto value = c.GetNumericValue(30);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->ToString(), "536870912");  // 2^29, exactly
}

TEST(EvalEdgeTest, EmptyProgramFixpointImmediately) {
  Program p;
  EvalOptions options;
  options.strategy = EvalStrategy::kSemiNaive;
  auto run = Evaluate(p, Database(), options);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->stats.reached_fixpoint);
  EXPECT_EQ(run->stats.derivations, 0);
  // The one iteration that finds nothing to add confirms the fixpoint.
  EXPECT_EQ(run->stats.iterations, 1);
}

TEST(EvalEdgeTest, RuleOverMissingEdbRelation) {
  auto parsed = ParseProgram("q(X) :- nothing(X).");
  ASSERT_TRUE(parsed.ok());
  auto run = Evaluate(parsed->program, Database(), {});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->db.TotalFacts(), 0u);
}

TEST(EvalEdgeTest, ZeroArityPredicates) {
  // Parser requires parentheses; a 0-ary head is spelled p().
  auto parsed = ParseProgram("p() :- e(X), X <= 4.  q() :- p().");
  ASSERT_TRUE(parsed.ok());
  Database db;
  ASSERT_TRUE(db.AddGroundFact(parsed->program.symbols.get(), "e",
                               {Database::Value::Number(Rational(1))})
                  .ok());
  auto run = Evaluate(parsed->program, db, {});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->db.FactsFor(parsed->program.symbols->LookupPredicate("q")),
            1u);
}

TEST(MagicEdgeTest, AllFreeQueryStillSound) {
  auto parsed = ParseProgram(
      "t(X, Y) :- e(X, Y).\n"
      "?- t(X, Y).\n");
  ASSERT_TRUE(parsed.ok());
  auto magic = MagicTemplates(parsed->program, parsed->queries[0], {});
  ASSERT_TRUE(magic.ok());
  Database db;
  ASSERT_TRUE(db.AddGroundFact(parsed->program.symbols.get(), "e",
                               {Database::Value::Number(Rational(1)),
                                Database::Value::Number(Rational(2))})
                  .ok());
  auto run = Evaluate(magic->program, db, {});
  ASSERT_TRUE(run.ok());
  auto answers = QueryAnswers(*run, magic->query);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 1u);
}

TEST(MagicEdgeTest, QueryOnEdbPredicateRejectedGracefully) {
  // Adorning a query against a predicate with no rules: the magic program
  // degenerates to the seed plus nothing; evaluation returns EDB matches
  // only if the predicate was treated as derived. We only require no crash
  // and a sound (possibly empty) rewrite.
  auto parsed = ParseProgram(
      "t(X) :- e(X).\n"
      "?- e(1).\n");
  ASSERT_TRUE(parsed.ok());
  auto magic = MagicTemplates(parsed->program, parsed->queries[0], {});
  EXPECT_TRUE(magic.ok());
}

TEST(ImplicationEdgeTest, EqualityChainsThroughManyVariables) {
  Conjunction a;
  for (VarId v = 1; v < 30; ++v) ASSERT_TRUE(a.AddEquality(v, v + 1).ok());
  Conjunction b;
  ASSERT_TRUE(b.AddEquality(1, 30).ok());
  EXPECT_TRUE(Implies(a, b));
  EXPECT_FALSE(Implies(b, a));
}

TEST(EvalEdgeTest, ConstraintFactOnlyProgram) {
  auto parsed = ParseProgram("window(T) :- T >= 0, T <= 10.\n");
  ASSERT_TRUE(parsed.ok());
  auto run = Evaluate(parsed->program, Database(), {});
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->stats.all_ground);
  EXPECT_EQ(run->db.TotalFacts(), 1u);
}

}  // namespace
}  // namespace cqlopt
