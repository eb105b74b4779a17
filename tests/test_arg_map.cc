#include "ast/arg_map.h"

#include <gtest/gtest.h>

#include "constraint/implication.h"

namespace cqlopt {
namespace {

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

// flight(S, D, T, C) with rule variables 2001..2004.
Literal FlightLiteral() { return Literal(0, {2001, 2002, 2003, 2004}); }

TEST(ArgMapTest, PtolDefinition27Example) {
  // PTOL(flight(S,D,T,C), ($3 <= 240) | ($4 <= 150)) = (T<=240) | (C<=150),
  // disjunct by disjunct.
  Conjunction time = Conj({Atom({{3, 1}}, -240, CmpOp::kLe)});
  EXPECT_TRUE(Equivalent(PtolConjunction(FlightLiteral(), time),
                         Conj({Atom({{2003, 1}}, -240, CmpOp::kLe)})));
  Conjunction cost = Conj({Atom({{4, 1}}, -150, CmpOp::kLe)});
  EXPECT_TRUE(Equivalent(PtolConjunction(FlightLiteral(), cost),
                         Conj({Atom({{2004, 1}}, -150, CmpOp::kLe)})));
}

TEST(ArgMapTest, LtopDefinition28Example) {
  // LTOP(flight(S,D,T,C), (T<=240)|(C<=150)) = ($3<=240)|($4<=150),
  // disjunct by disjunct.
  auto time = LtopConjunction(FlightLiteral(),
                              Conj({Atom({{2003, 1}}, -240, CmpOp::kLe)}));
  ASSERT_TRUE(time.ok());
  EXPECT_TRUE(Equivalent(*time, Conj({Atom({{3, 1}}, -240, CmpOp::kLe)})));
  auto cost = LtopConjunction(FlightLiteral(),
                              Conj({Atom({{2004, 1}}, -150, CmpOp::kLe)}));
  ASSERT_TRUE(cost.ok());
  EXPECT_TRUE(Equivalent(*cost, Conj({Atom({{4, 1}}, -150, CmpOp::kLe)})));
}

TEST(ArgMapTest, PtolThenLtopRoundTrips) {
  Conjunction c = Conj({Atom({{1, 1}, {3, 1}}, -6, CmpOp::kLe),
                        Atom({{2, -1}}, 2, CmpOp::kLe)});
  Conjunction over_vars = PtolConjunction(FlightLiteral(), c);
  auto back = LtopConjunction(FlightLiteral(), over_vars);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(Equivalent(*back, c));
}

TEST(ArgMapTest, PtolRepeatedVariableConjoins) {
  // p(X, X) with ($1 <= 4) & ($2 >= 10) is unsatisfiable on X.
  Literal lit(1, {2001, 2001});
  Conjunction c = Conj({Atom({{1, 1}}, -4, CmpOp::kLe),
                        Atom({{2, -1}}, 10, CmpOp::kLe)});
  Conjunction out = PtolConjunction(lit, c);
  EXPECT_FALSE(out.IsSatisfiable());
}

TEST(ArgMapTest, LtopRepeatedVariableInducesPositionEquality) {
  // LTOP(p(X, X), X <= 4) must give $1 = $2 & $1 <= 4 (Definition 2.8's
  // detour through distinct variables).
  Literal lit(1, {2001, 2001});
  Conjunction c = Conj({Atom({{2001, 1}}, -4, CmpOp::kLe)});
  auto out = LtopConjunction(lit, c);
  ASSERT_TRUE(out.ok());
  Conjunction expected;
  ASSERT_TRUE(expected.AddEquality(1, 2).ok());
  ASSERT_TRUE(expected.AddLinear(Atom({{1, 1}}, -4, CmpOp::kLe)).ok());
  EXPECT_TRUE(Equivalent(*out, expected));
}

TEST(ArgMapTest, LtopProjectsAwayAuxiliaryVariables) {
  // Constraint mentions a variable not in the literal: projected away.
  Literal lit(1, {2001});
  // 2001 <= aux, aux <= 5  =>  $1 <= 5.
  Conjunction c = Conj({Atom({{2001, 1}, {2002, -1}}, 0, CmpOp::kLe),
                        Atom({{2002, 1}}, -5, CmpOp::kLe)});
  auto out = LtopConjunction(lit, c);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->ToString(), "$1 <= 5");
}

TEST(ArgMapTest, LtopCarriesSymbols) {
  Literal lit(1, {2001, 2002});
  Conjunction c;
  ASSERT_TRUE(c.BindSymbol(2001, 5).ok());
  auto out = LtopConjunction(lit, c);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->GetSymbol(1), std::optional<SymbolId>(5));
  EXPECT_FALSE(out->GetSymbol(2).has_value());
}

TEST(ArgMapTest, ZeroArityLiteral) {
  Literal lit(1, {});
  Conjunction sat = Conj({Atom({{2001, 1}}, -4, CmpOp::kLe)});
  auto out = LtopConjunction(lit, sat);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->IsSatisfiable());
  auto out_false = LtopConjunction(lit, Conjunction::False());
  ASSERT_TRUE(out_false.ok());
  EXPECT_FALSE(out_false->IsSatisfiable());
}

}  // namespace
}  // namespace cqlopt
