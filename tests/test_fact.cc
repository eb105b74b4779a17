#include "eval/fact.h"

#include <gtest/gtest.h>

namespace cqlopt {
namespace {

LinearConstraint Atom(std::vector<std::pair<VarId, int>> terms, int constant,
                      CmpOp op) {
  LinearExpr e;
  for (auto& [v, c] : terms) e.Add(v, Rational(c));
  e.AddConstant(Rational(constant));
  return LinearConstraint(e, op);
}

TEST(FactTest, GroundFactDetection) {
  SymbolTable symbols;
  PredId p = symbols.InternPredicate("p");
  Conjunction c;
  ASSERT_TRUE(c.AddLinear(Atom({{1, 1}}, -3, CmpOp::kEq)).ok());
  ASSERT_TRUE(c.BindSymbol(2, symbols.InternSymbol("madison")).ok());
  Fact fact(p, 2, c);
  EXPECT_TRUE(Canonicalize(fact).ground());
}

TEST(FactTest, GroundValuesOfMixedEntailedAndUnsatisfiable) {
  // A symbol and a direct number: ground; an unconstrained third position
  // is not.
  Conjunction c;
  ASSERT_TRUE(c.BindSymbol(1, 4).ok());
  ASSERT_TRUE(c.AddLinear(Atom({{2, 1}}, -7, CmpOp::kEq)).ok());
  auto values = GroundValuesOf(Fact(0, 2, c));
  ASSERT_TRUE(values.has_value());
  EXPECT_EQ(*values, (GroundTuple{PointValue::Symbol(4),
                                  PointValue::Number(Rational(7))}));
  EXPECT_FALSE(GroundValuesOf(Fact(0, 3, c)).has_value());
  // A value only entailed (`$1 - $2 = 0 & $2 = 7`) is found by projection,
  // and the canonical form keeps one atom per position.
  Conjunction entailed;
  ASSERT_TRUE(entailed.AddLinear(Atom({{1, 1}, {2, -1}}, 0, CmpOp::kEq)).ok());
  ASSERT_TRUE(entailed.AddLinear(Atom({{2, 1}}, -7, CmpOp::kEq)).ok());
  CanonicalFact canonical = Canonicalize(Fact(0, 2, entailed));
  ASSERT_TRUE(canonical.ground());
  EXPECT_EQ(canonical.ToFact().Key(),
            GroundFact(0, {PointValue::Number(Rational(7)),
                           PointValue::Number(Rational(7))})
                .Key());
  // DirectValuesOf reads only a store that is nothing but single-variable
  // equalities on distinct variables: `$1 = 5 & $1 = 6` is not one.
  Conjunction clash;
  ASSERT_TRUE(clash.AddLinear(Atom({{1, 1}}, -5, CmpOp::kEq)).ok());
  ASSERT_TRUE(clash.AddLinear(Atom({{1, 1}}, -6, CmpOp::kEq)).ok());
  EXPECT_FALSE(DirectValuesOf(clash, {1}).has_value());
  EXPECT_TRUE(DirectValuesOf(c, {1, 2}).has_value());
}

TEST(FactTest, ConstraintFactNotGround) {
  SymbolTable symbols;
  PredId p = symbols.InternPredicate("p");
  Conjunction c;
  ASSERT_TRUE(c.AddLinear(Atom({{1, 1}}, -3, CmpOp::kLe)).ok());
  Fact fact(p, 1, c);
  EXPECT_FALSE(Canonicalize(fact).ground());
}

TEST(FactTest, ToStringGround) {
  SymbolTable symbols;
  PredId p = symbols.InternPredicate("flight");
  Conjunction c;
  ASSERT_TRUE(c.BindSymbol(1, symbols.InternSymbol("madison")).ok());
  ASSERT_TRUE(c.AddLinear(Atom({{2, 1}}, -50, CmpOp::kEq)).ok());
  Fact fact(p, 2, c);
  EXPECT_EQ(fact.ToString(symbols), "flight(madison, 50)");
}

TEST(FactTest, ToStringConstraintFactShowsResidual) {
  SymbolTable symbols;
  PredId p = symbols.InternPredicate("m_fib");
  Conjunction c;
  ASSERT_TRUE(c.AddLinear(Atom({{1, -1}}, 0, CmpOp::kLt)).ok());  // $1 > 0
  ASSERT_TRUE(c.AddLinear(Atom({{2, 1}}, -5, CmpOp::kEq)).ok());
  Fact fact(p, 2, c);
  EXPECT_EQ(fact.ToString(symbols), "m_fib($1, 5; $1 > 0)");
}

TEST(FactTest, KeyIdentifiesStructurally) {
  SymbolTable symbols;
  PredId p = symbols.InternPredicate("p");
  Conjunction c1;
  ASSERT_TRUE(c1.AddLinear(Atom({{1, 1}}, -3, CmpOp::kLe)).ok());
  Conjunction c2;
  ASSERT_TRUE(c2.AddLinear(Atom({{1, 1}}, -3, CmpOp::kLe)).ok());
  EXPECT_EQ(Fact(p, 1, c1).Key(), Fact(p, 1, c2).Key());
  Conjunction c3;
  ASSERT_TRUE(c3.AddLinear(Atom({{1, 1}}, -4, CmpOp::kLe)).ok());
  EXPECT_NE(Fact(p, 1, c1).Key(), Fact(p, 1, c3).Key());
  PredId q = symbols.InternPredicate("q");
  EXPECT_NE(Fact(p, 1, c1).Key(), Fact(q, 1, c1).Key());
}

}  // namespace
}  // namespace cqlopt
