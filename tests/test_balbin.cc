#include "transform/balbin_c.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "ast/parser.h"
#include "ast/printer.h"
#include "transform/qrp_constraints.h"

namespace cqlopt {
namespace {

Program ParseOrDie(const std::string& text) {
  auto parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed->program;
}

LinearConstraint Atom(std::vector<std::pair<VarId, int>> terms, int constant,
                      CmpOp op) {
  LinearExpr e;
  for (auto& [v, c] : terms) e.Add(v, Rational(c));
  e.AddConstant(Rational(constant));
  return LinearConstraint(e, op);
}

Conjunction Conj(std::vector<LinearConstraint> atoms) {
  Conjunction c;
  for (auto& a : atoms) EXPECT_TRUE(c.AddLinear(a).ok());
  return c;
}

const ConstraintSet& Of(const Program& p, const InferenceResult& r,
                        const std::string& pred) {
  return r.constraints.at(p.symbols->LookupPredicate(pred));
}

TEST(BalbinTest, Example41SyntacticMissesImpliedConstraint) {
  // The paper's Section 6.1/4.1 claim: the C transformation, treating
  // constraints as ordinary literals, pushes (X+Y<=6 & X>=2) into p1 but
  // can push NOTHING into p2 — there is no explicit constraining literal
  // on Y alone. Gen_QRP_constraints derives Y <= 4 semantically.
  Program p = ParseOrDie(
      "r1: q(X) :- p1(X, Y), p2(Y), X + Y <= 6, X >= 2.\n"
      "r2: p1(X, Y) :- b1(X, Y).\n"
      "r3: p2(X) :- b2(X).\n");
  PredId q = p.symbols->LookupPredicate("q");

  auto syntactic = GenSyntacticQrpConstraints(p, q, {});
  ASSERT_TRUE(syntactic.ok());
  EXPECT_TRUE(syntactic->converged);
  ConstraintSet expected_p1 = ConstraintSet::Of(
      Conj({Atom({{1, 1}, {2, 1}}, -6, CmpOp::kLe),
            Atom({{1, -1}}, 2, CmpOp::kLe)}));
  EXPECT_TRUE(Of(p, *syntactic, "p1").EquivalentTo(expected_p1));
  EXPECT_TRUE(Of(p, *syntactic, "p2").IsTriviallyTrue())
      << RenderConstraintSet(Of(p, *syntactic, "p2"), *p.symbols,
                             DollarNames());

  auto semantic = GenQrpConstraints(p, q, {});
  ASSERT_TRUE(semantic.ok());
  ConstraintSet expected_p2 =
      ConstraintSet::Of(Conj({Atom({{1, 1}}, -4, CmpOp::kLe)}));
  EXPECT_TRUE(Of(p, *semantic, "p2").EquivalentTo(expected_p2));
}

TEST(BalbinTest, SyntacticMatchesSemanticWhenConstraintsAreDirect) {
  // When every constraint is a direct selection on one literal's variables,
  // the two generators agree.
  Program p = ParseOrDie(
      "q(X) :- a(X), X <= 9.\n"
      "a(X) :- e(X).\n");
  PredId q = p.symbols->LookupPredicate("q");
  auto syntactic = GenSyntacticQrpConstraints(p, q, {});
  auto semantic = GenQrpConstraints(p, q, {});
  ASSERT_TRUE(syntactic.ok());
  ASSERT_TRUE(semantic.ok());
  PredId a = p.symbols->LookupPredicate("a");
  EXPECT_TRUE(syntactic->constraints.at(a).EquivalentTo(
      semantic->constraints.at(a)));
}

TEST(BalbinTest, SyntacticNeverStrongerThanSemantic) {
  // Soundness relation: the semantic QRP constraint implies the syntactic
  // one on every derived predicate (syntactic is an over-approximation).
  Program p = ParseOrDie(
      "q(X) :- a(X, Y), b(Y), X + Y <= 10, X >= 1, Y >= 0.\n"
      "a(X, Y) :- e(X, Y).\n"
      "b(X) :- f(X).\n");
  PredId q = p.symbols->LookupPredicate("q");
  auto syntactic = GenSyntacticQrpConstraints(p, q, {});
  auto semantic = GenQrpConstraints(p, q, {});
  ASSERT_TRUE(syntactic.ok());
  ASSERT_TRUE(semantic.ok());
  for (const auto& [pred, semantic_set] : semantic->constraints) {
    auto it = syntactic->constraints.find(pred);
    if (it == syntactic->constraints.end()) continue;
    EXPECT_TRUE(semantic_set.Implies(it->second))
        << p.symbols->PredicateName(pred);
  }
}

TEST(BalbinTest, PropagatesThroughRecursion) {
  // Direct selections survive recursion in the syntactic variant too.
  Program p = ParseOrDie(
      "q(X, Y) :- t(X, Y), X <= 5.\n"
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- t(X, Z), e(Z, Y).\n");
  PredId q = p.symbols->LookupPredicate("q");
  auto syntactic = GenSyntacticQrpConstraints(p, q, {});
  ASSERT_TRUE(syntactic.ok());
  ConstraintSet expected =
      ConstraintSet::Of(Conj({Atom({{1, 1}}, -5, CmpOp::kLe)}));
  EXPECT_TRUE(Of(p, *syntactic, "t").EquivalentTo(expected))
      << RenderConstraintSet(Of(p, *syntactic, "t"), *p.symbols,
                             DollarNames());
}

TEST(BalbinTest, FlightsRunReportsItsDecisions) {
  // The syntactic generation runs under its own DecisionScope, as
  // Gen_QRP_constraints does, so its result carries its cache activity.
  std::ifstream file(std::string(CQLOPT_PROGRAMS_DIR) + "/flights.cql");
  std::stringstream text;
  text << file.rdbuf();
  auto parsed = ParseProgram(text.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->queries.size(), 1u);
  auto syntactic = GenSyntacticQrpConstraints(
      parsed->program, parsed->queries[0].literal.pred, {});
  ASSERT_TRUE(syntactic.ok());
  EXPECT_GT(syntactic->cache_hits + syntactic->cache_misses, 0);
}

}  // namespace
}  // namespace cqlopt
