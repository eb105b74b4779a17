#include "constraint/conjunction.h"

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

TEST(ConjunctionTest, EmptyIsTrue) {
  Conjunction c;
  EXPECT_TRUE(c.IsSatisfiable());
  EXPECT_EQ(c.ToString(), "true");
  EXPECT_FALSE(c.known_unsat());
}

TEST(ConjunctionTest, FalseIsUnsatisfiable) {
  Conjunction f = Conjunction::False();
  EXPECT_TRUE(f.known_unsat());
  EXPECT_FALSE(f.IsSatisfiable());
  EXPECT_EQ(f.ToString(), "false");
}

TEST(ConjunctionTest, LinearAtomsAccumulate) {
  Conjunction c;
  ASSERT_TRUE(c.AddLinear(Atom({{1, 1}}, -4, CmpOp::kLe)).ok());   // x <= 4
  ASSERT_TRUE(c.AddLinear(Atom({{1, -1}}, 2, CmpOp::kLe)).ok());   // x >= 2
  EXPECT_TRUE(c.IsSatisfiable());
  ASSERT_TRUE(c.AddLinear(Atom({{1, 1}}, -1, CmpOp::kLe)).ok());   // x <= 1
  EXPECT_FALSE(c.IsSatisfiable());
}

TEST(ConjunctionTest, TriviallyFalseAtomSetsUnsat) {
  Conjunction c;
  ASSERT_TRUE(c.AddLinear(Atom({}, 1, CmpOp::kLe)).ok());  // 1 <= 0
  EXPECT_TRUE(c.known_unsat());
}

TEST(ConjunctionTest, EqualityMergesClasses) {
  Conjunction c;
  ASSERT_TRUE(c.AddEquality(1, 2).ok());
  ASSERT_TRUE(c.AddEquality(2, 3).ok());
  EXPECT_EQ(c.Find(1), c.Find(3));
  ASSERT_TRUE(c.AddLinear(Atom({{1, 1}}, -4, CmpOp::kLe)).ok());
  ASSERT_TRUE(c.AddLinear(Atom({{3, -1}}, 5, CmpOp::kLe)).ok());  // v3 >= 5
  EXPECT_FALSE(c.IsSatisfiable());  // v1 = v3 but v1 <= 4 < 5 <= v3
}

TEST(ConjunctionTest, SymbolBindingConflictIsUnsat) {
  Conjunction c;
  ASSERT_TRUE(c.BindSymbol(1, 7).ok());
  ASSERT_TRUE(c.BindSymbol(1, 7).ok());
  EXPECT_TRUE(c.IsSatisfiable());
  ASSERT_TRUE(c.BindSymbol(1, 8).ok());
  EXPECT_FALSE(c.IsSatisfiable());
}

TEST(ConjunctionTest, SymbolConflictThroughEquality) {
  Conjunction c;
  ASSERT_TRUE(c.BindSymbol(1, 7).ok());
  ASSERT_TRUE(c.BindSymbol(2, 8).ok());
  ASSERT_TRUE(c.AddEquality(1, 2).ok());
  EXPECT_FALSE(c.IsSatisfiable());
}

TEST(ConjunctionTest, MixingSymbolAndArithmeticIsTypeError) {
  Conjunction c;
  ASSERT_TRUE(c.BindSymbol(1, 7).ok());
  Status st = c.AddLinear(Atom({{1, 1}}, -4, CmpOp::kLe));
  EXPECT_EQ(st.code(), StatusCode::kTypeError);

  Conjunction d;
  ASSERT_TRUE(d.AddLinear(Atom({{1, 1}}, -4, CmpOp::kLe)).ok());
  Status st2 = d.BindSymbol(1, 7);
  EXPECT_EQ(st2.code(), StatusCode::kTypeError);
}

TEST(ConjunctionTest, EquatingSymbolicAndNumericVarIsTypeError) {
  Conjunction c;
  ASSERT_TRUE(c.BindSymbol(1, 7).ok());
  ASSERT_TRUE(c.AddLinear(Atom({{2, 1}}, -4, CmpOp::kLe)).ok());
  Status st = c.AddEquality(1, 2);
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
}

TEST(ConjunctionTest, AddConjunctionMergesEverything) {
  Conjunction a;
  ASSERT_TRUE(a.AddLinear(Atom({{1, 1}}, -4, CmpOp::kLe)).ok());
  Conjunction b;
  ASSERT_TRUE(b.AddEquality(1, 2).ok());
  ASSERT_TRUE(b.BindSymbol(3, 9).ok());
  ASSERT_TRUE(a.AddConjunction(b).ok());
  EXPECT_EQ(a.Find(1), a.Find(2));
  EXPECT_EQ(a.GetSymbol(3), std::optional<SymbolId>(9));
  EXPECT_TRUE(a.IsSatisfiable());
}

TEST(ConjunctionTest, GetNumericValueFromEquality) {
  Conjunction c;
  ASSERT_TRUE(c.AddLinear(Atom({{1, 1}}, -5, CmpOp::kEq)).ok());  // x = 5
  EXPECT_EQ(c.GetNumericValue(1), std::optional<Rational>(Rational(5)));
}

TEST(ConjunctionTest, GetNumericValueFromTightBounds) {
  Conjunction c;
  ASSERT_TRUE(c.AddLinear(Atom({{1, 1}}, -5, CmpOp::kLe)).ok());   // x <= 5
  ASSERT_TRUE(c.AddLinear(Atom({{1, -1}}, 5, CmpOp::kLe)).ok());   // x >= 5
  EXPECT_EQ(c.GetNumericValue(1), std::optional<Rational>(Rational(5)));
}

TEST(ConjunctionTest, GetNumericValueThroughSubstitution) {
  Conjunction c;
  // x = y + 2, y = 3 -> x = 5.
  ASSERT_TRUE(c.AddLinear(Atom({{1, 1}, {2, -1}}, -2, CmpOp::kEq)).ok());
  ASSERT_TRUE(c.AddLinear(Atom({{2, 1}}, -3, CmpOp::kEq)).ok());
  EXPECT_EQ(c.GetNumericValue(1), std::optional<Rational>(Rational(5)));
}

TEST(ConjunctionTest, GetNumericValueAbsentWhenRange) {
  Conjunction c;
  ASSERT_TRUE(c.AddLinear(Atom({{1, 1}}, -5, CmpOp::kLe)).ok());
  EXPECT_FALSE(c.GetNumericValue(1).has_value());
}

TEST(ConjunctionTest, ProjectKeepsOnlyRequestedVars) {
  Conjunction c;
  // x + y <= 6, x >= 2: project onto {y} gives y <= 4 (Example 4.1).
  ASSERT_TRUE(c.AddLinear(Atom({{1, 1}, {2, 1}}, -6, CmpOp::kLe)).ok());
  ASSERT_TRUE(c.AddLinear(Atom({{1, -1}}, 2, CmpOp::kLe)).ok());
  auto projected = c.Project({2});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->ToString(), "$2 <= 4");
}

TEST(ConjunctionTest, ProjectPreservesSymbolsAndEqualities) {
  Conjunction c;
  ASSERT_TRUE(c.AddEquality(1, 2).ok());
  ASSERT_TRUE(c.AddEquality(2, 3).ok());
  ASSERT_TRUE(c.BindSymbol(1, 5).ok());
  auto projected = c.Project({2, 3});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->Find(2), projected->Find(3));
  EXPECT_EQ(projected->GetSymbol(3), std::optional<SymbolId>(5));
  for (VarId v : projected->Vars()) EXPECT_NE(v, 1);
}

TEST(ConjunctionTest, ProjectReRootsLinearAtoms) {
  Conjunction c;
  // v1 = v2 and v1 <= 4; project onto {v2}: v2 <= 4 must survive even
  // though the atom was stored over the class root v1.
  ASSERT_TRUE(c.AddEquality(2, 1).ok());
  ASSERT_TRUE(c.AddLinear(Atom({{1, 1}}, -4, CmpOp::kLe)).ok());
  auto projected = c.Project({2});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->ToString(), "$2 <= 4");
}

TEST(ConjunctionTest, ProjectOfFalseIsFalse) {
  auto projected = Conjunction::False().Project({1});
  ASSERT_TRUE(projected.ok());
  EXPECT_FALSE(projected->IsSatisfiable());
}

TEST(ConjunctionTest, RenameAppliesMapping) {
  Conjunction c;
  ASSERT_TRUE(c.AddLinear(Atom({{1, 1}, {2, 1}}, -6, CmpOp::kLe)).ok());
  ASSERT_TRUE(c.BindSymbol(3, 9).ok());
  Conjunction renamed = c.Rename({{1, 10}, {2, 20}, {3, 30}});
  EXPECT_EQ(renamed.GetSymbol(30), std::optional<SymbolId>(9));
  EXPECT_FALSE(renamed.GetSymbol(3).has_value());
  EXPECT_TRUE(renamed.IsSatisfiable());
}

TEST(ConjunctionTest, NonInjectiveRenameConjoins) {
  Conjunction c;
  // $1 <= 4 and $2 >= 10 renamed {$1->X, $2->X} is unsatisfiable.
  ASSERT_TRUE(c.AddLinear(Atom({{1, 1}}, -4, CmpOp::kLe)).ok());
  ASSERT_TRUE(c.AddLinear(Atom({{2, -1}}, 10, CmpOp::kLe)).ok());
  Conjunction renamed = c.Rename({{1, 5}, {2, 5}});
  EXPECT_FALSE(renamed.IsSatisfiable());
}

TEST(ConjunctionTest, SimplifyRemovesRedundantAtoms) {
  Conjunction c;
  ASSERT_TRUE(c.AddLinear(Atom({{1, 1}}, -2, CmpOp::kLe)).ok());
  ASSERT_TRUE(c.AddLinear(Atom({{1, 1}}, -5, CmpOp::kLe)).ok());
  c.Simplify();
  EXPECT_EQ(c.linear().size(), 1u);
  EXPECT_EQ(c.ToString(), "$1 <= 2");
}

TEST(ConjunctionTest, ToStringIsCanonicalAcrossInsertionOrder) {
  Conjunction a;
  ASSERT_TRUE(a.AddEquality(1, 2).ok());
  ASSERT_TRUE(a.AddLinear(Atom({{3, 1}}, -4, CmpOp::kLe)).ok());
  Conjunction b;
  ASSERT_TRUE(b.AddLinear(Atom({{3, 1}}, -4, CmpOp::kLe)).ok());
  ASSERT_TRUE(b.AddEquality(2, 1).ok());
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_TRUE(a.StructurallyEquals(b));
}

TEST(ConjunctionTest, LinearWithEqualitiesMaterializes) {
  Conjunction c;
  ASSERT_TRUE(c.AddEquality(1, 2).ok());
  ASSERT_TRUE(c.AddLinear(Atom({{1, 1}}, -4, CmpOp::kLe)).ok());
  auto atoms = c.LinearWithEqualities();
  EXPECT_EQ(atoms.size(), 2u);  // the bound plus the equality
}

}  // namespace
}  // namespace cqlopt
