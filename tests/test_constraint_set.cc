#include "constraint/constraint_set.h"

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

Conjunction Le(VarId v, int bound) {
  return Conj({Atom({{v, 1}}, -bound, CmpOp::kLe)});
}
Conjunction Ge(VarId v, int bound) {
  return Conj({Atom({{v, -1}}, bound, CmpOp::kLe)});
}

TEST(ConstraintSetTest, DefaultIsFalse) {
  ConstraintSet s;
  EXPECT_TRUE(s.is_false());
}

TEST(ConstraintSetTest, TrueIsTriviallyTrue) {
  EXPECT_TRUE(ConstraintSet::True().IsTriviallyTrue());
  EXPECT_FALSE(ConstraintSet::True().is_false());
  EXPECT_FALSE(ConstraintSet::Of(Le(1, 5)).IsTriviallyTrue());
}

TEST(ConstraintSetTest, AddDisjunctRejectsUnsatisfiable) {
  ConstraintSet s;
  EXPECT_FALSE(s.AddDisjunct(Conjunction::False()));
  EXPECT_TRUE(s.is_false());
}

TEST(ConstraintSetTest, AddDisjunctRejectsImplied) {
  // {x <= 5} already covers x <= 3.
  ConstraintSet s = ConstraintSet::Of(Le(1, 5));
  EXPECT_FALSE(s.AddDisjunct(Le(1, 3)));
  EXPECT_EQ(s.disjuncts().size(), 1u);
}

TEST(ConstraintSetTest, AddDisjunctDropsNowRedundant) {
  // Adding x <= 5 to {x <= 3} replaces the weaker disjunct.
  ConstraintSet s = ConstraintSet::Of(Le(1, 3));
  EXPECT_TRUE(s.AddDisjunct(Le(1, 5)));
  ASSERT_EQ(s.disjuncts().size(), 1u);
  EXPECT_TRUE(Equivalent(s.disjuncts()[0], Le(1, 5)));
}

TEST(ConstraintSetTest, AddDisjunctCoveredByUnionStillAdds) {
  // x <= 3 v x >= 3 covers x = 3, but no single disjunct does, and
  // AddDisjunct prunes with the full-disjunction test.
  ConstraintSet s = ConstraintSet::Of(Le(1, 3));
  s.AddDisjunct(Ge(1, 3));
  Conjunction eq = Conj({Atom({{1, 1}}, -3, CmpOp::kEq)});
  EXPECT_FALSE(s.AddDisjunct(eq));
}

TEST(ConstraintSetTest, UnionWithReportsChange) {
  ConstraintSet a = ConstraintSet::Of(Le(1, 3));
  ConstraintSet b = ConstraintSet::Of(Le(1, 2));
  EXPECT_FALSE(a.UnionWith(b));  // implied, no change
  ConstraintSet c = ConstraintSet::Of(Ge(2, 7));
  EXPECT_TRUE(a.UnionWith(c));
  EXPECT_EQ(a.disjuncts().size(), 2u);
}

TEST(ConstraintSetTest, ImpliesIsDefinition23) {
  // (x<=2 v x<=3) implies (x<=5); not conversely.
  ConstraintSet a = ConstraintSet::Of(Le(1, 2));
  a.AddDisjunct(Le(1, 3));
  ConstraintSet b = ConstraintSet::Of(Le(1, 5));
  EXPECT_TRUE(a.Implies(b));
  EXPECT_FALSE(b.Implies(a));
  EXPECT_TRUE(a.Implies(ConstraintSet::True()));
  EXPECT_TRUE(ConstraintSet::False().Implies(a));
}

TEST(ConstraintSetTest, EquivalentToCatchesReorderings) {
  ConstraintSet a = ConstraintSet::Of(Le(1, 3));
  a.AddDisjunct(Ge(1, 7));
  ConstraintSet b = ConstraintSet::Of(Ge(1, 7));
  b.AddDisjunct(Le(1, 3));
  EXPECT_TRUE(a.EquivalentTo(b));
}

TEST(ConstraintSetTest, ProjectEachDisjunct) {
  // (x+y<=6 & x>=2) v (y>=9), projected on y: (y<=4) v (y>=9).
  Conjunction d1 = Conj({Atom({{1, 1}, {2, 1}}, -6, CmpOp::kLe),
                         Atom({{1, -1}}, 2, CmpOp::kLe)});
  ConstraintSet s = ConstraintSet::Of(d1);
  s.AddDisjunct(Ge(2, 9));
  auto projected = s.Project({2});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->disjuncts().size(), 2u);
  ConstraintSet expected = ConstraintSet::Of(Le(2, 4));
  expected.AddDisjunct(Ge(2, 9));
  EXPECT_TRUE(projected->EquivalentTo(expected));
}

TEST(ConstraintSetTest, RenameAppliesToAllDisjuncts) {
  ConstraintSet s = ConstraintSet::Of(Le(1, 3));
  s.AddDisjunct(Ge(1, 7));
  ConstraintSet renamed = s.Rename({{1, 9}});
  for (const Conjunction& d : renamed.disjuncts()) {
    for (VarId v : d.Vars()) EXPECT_EQ(v, 9);
  }
}

}  // namespace
}  // namespace cqlopt
