// Unit coverage of the interval domain behind the interval index (DESIGN.md
// §12): interval arithmetic with rational endpoints, strict vs. non-strict
// bounds, empty detection, ±inf widening, and round-capped bound
// propagation over LinearConstraint conjunctions.

#include <gtest/gtest.h>

#include "constraint/interval.h"

namespace cqlopt {
namespace {

LinearConstraint Atom(std::vector<std::pair<VarId, int>> terms, int constant,
                      CmpOp op) {
  LinearExpr expr = LinearExpr::Constant(Rational(constant));
  for (const auto& [var, coeff] : terms) {
    expr = expr + LinearExpr::Var(var).Scale(Rational(coeff));
  }
  return LinearConstraint(expr, op);
}

// ---------------------------------------------------------------- Interval

TEST(IntervalTest, DefaultIsFullLine) {
  Interval iv;
  EXPECT_TRUE(iv.lower_infinite());
  EXPECT_TRUE(iv.upper_infinite());
  EXPECT_FALSE(iv.IsEmpty());
  EXPECT_FALSE(iv.Point().has_value());
  EXPECT_EQ(iv.ToString(), "(-inf, +inf)");
}

TEST(IntervalTest, TightenLowerOnlyShrinks) {
  Interval iv;
  EXPECT_TRUE(iv.TightenLower(Rational(2), /*strict=*/false));
  EXPECT_FALSE(iv.lower_infinite());
  EXPECT_EQ(iv.lower(), Rational(2));
  EXPECT_FALSE(iv.lower_strict());
  // A looser bound is a no-op.
  EXPECT_FALSE(iv.TightenLower(Rational(1), false));
  EXPECT_FALSE(iv.TightenLower(Rational(2), false));
  EXPECT_EQ(iv.lower(), Rational(2));
  // Same value but strict is a genuine tightening ([2,.. -> (2,..).
  EXPECT_TRUE(iv.TightenLower(Rational(2), true));
  EXPECT_TRUE(iv.lower_strict());
  // And a non-strict bound at the same value no longer tightens.
  EXPECT_FALSE(iv.TightenLower(Rational(2), false));
  EXPECT_TRUE(iv.lower_strict());
  EXPECT_TRUE(iv.TightenLower(Rational(3), false));
  EXPECT_EQ(iv.lower(), Rational(3));
  EXPECT_FALSE(iv.lower_strict());
}

TEST(IntervalTest, TightenUpperMirrorsLower) {
  Interval iv;
  EXPECT_TRUE(iv.TightenUpper(Rational(5), false));
  EXPECT_FALSE(iv.TightenUpper(Rational(7), false));
  EXPECT_TRUE(iv.TightenUpper(Rational(5), true));
  EXPECT_FALSE(iv.TightenUpper(Rational(5), false));
  EXPECT_TRUE(iv.TightenUpper(Rational(5, 2), false));
  EXPECT_EQ(iv.upper(), Rational(5, 2));
  EXPECT_FALSE(iv.upper_strict());
  EXPECT_EQ(iv.ToString(), "(-inf, 5/2]");
}

TEST(IntervalTest, RationalEndpointsCompareExactly) {
  Interval iv;
  EXPECT_TRUE(iv.TightenLower(Rational(1, 3), false));
  // 1/3 < 10/30 is false: identical rationals, so no tightening.
  EXPECT_FALSE(iv.TightenLower(Rational(10, 30), false));
  EXPECT_TRUE(iv.TightenLower(Rational(11, 30), false));
  EXPECT_TRUE(iv.TightenUpper(Rational(2, 5), false));
  EXPECT_FALSE(iv.IsEmpty());  // [11/30, 12/30]
  EXPECT_TRUE(iv.TightenUpper(Rational(11, 30), false));
  EXPECT_FALSE(iv.IsEmpty());  // the closed point 11/30
  ASSERT_TRUE(iv.Point().has_value());
  EXPECT_EQ(*iv.Point(), Rational(11, 30));
}

TEST(IntervalTest, EmptyOnCrossedBounds) {
  Interval iv;
  iv.TightenLower(Rational(4), false);
  EXPECT_FALSE(iv.IsEmpty());
  iv.TightenUpper(Rational(3), false);
  EXPECT_TRUE(iv.IsEmpty());
}

TEST(IntervalTest, EmptyOnEqualBoundsWithStrictEnd) {
  // [3, 3] is the point 3; [3, 3) and (3, 3] are empty.
  Interval closed;
  closed.TightenLower(Rational(3), false);
  closed.TightenUpper(Rational(3), false);
  EXPECT_FALSE(closed.IsEmpty());
  EXPECT_TRUE(closed.Point().has_value());

  Interval open_hi;
  open_hi.TightenLower(Rational(3), false);
  open_hi.TightenUpper(Rational(3), true);
  EXPECT_TRUE(open_hi.IsEmpty());

  Interval open_lo;
  open_lo.TightenLower(Rational(3), true);
  open_lo.TightenUpper(Rational(3), false);
  EXPECT_TRUE(open_lo.IsEmpty());
}

TEST(IntervalTest, HalfInfiniteIntervalsAreNeverEmpty) {
  Interval lower_only;
  lower_only.TightenLower(Rational(1000000), true);
  EXPECT_FALSE(lower_only.IsEmpty());
  EXPECT_FALSE(lower_only.Point().has_value());
  EXPECT_EQ(lower_only.ToString(), "(1000000, +inf)");

  Interval upper_only;
  upper_only.TightenUpper(Rational(-1000000), false);
  EXPECT_FALSE(upper_only.IsEmpty());
  EXPECT_EQ(upper_only.ToString(), "(-inf, -1000000]");
}

// ---------------------------------------------------------- IntervalDomain

TEST(IntervalDomainTest, SingleVariableBoundsLand) {
  const VarId x = 1;
  // x - 5 <= 0 and -x + 3 < 0: x in (3, 5].
  IntervalDomain dom = IntervalDomain::Propagate({
      Atom({{x, 1}}, -5, CmpOp::kLe),
      Atom({{x, -1}}, 3, CmpOp::kLt),
  });
  EXPECT_FALSE(dom.definitely_empty());
  const Interval& iv = dom.Of(x);
  ASSERT_FALSE(iv.lower_infinite());
  ASSERT_FALSE(iv.upper_infinite());
  EXPECT_EQ(iv.lower(), Rational(3));
  EXPECT_TRUE(iv.lower_strict());
  EXPECT_EQ(iv.upper(), Rational(5));
  EXPECT_FALSE(iv.upper_strict());
}

TEST(IntervalDomainTest, UnconstrainedVariableStaysFullLine) {
  const VarId x = 1, y = 2;
  IntervalDomain dom =
      IntervalDomain::Propagate({Atom({{x, 1}}, -5, CmpOp::kLe)});
  EXPECT_TRUE(dom.Of(y).lower_infinite());
  EXPECT_TRUE(dom.Of(y).upper_infinite());
}

TEST(IntervalDomainTest, EqualityPinsAPoint) {
  const VarId x = 1;
  IntervalDomain dom =
      IntervalDomain::Propagate({Atom({{x, 2}}, -7, CmpOp::kEq)});  // 2x = 7
  ASSERT_FALSE(dom.definitely_empty());
  ASSERT_TRUE(dom.Of(x).Point().has_value());
  EXPECT_EQ(*dom.Of(x).Point(), Rational(7, 2));
}

TEST(IntervalDomainTest, TransitiveChainPropagatesThroughEqualities) {
  // t1 = 5, t2 = 7, t - t1 - t2 - 30 = 0  =>  t = 42.
  const VarId t = 1, t1 = 2, t2 = 3;
  IntervalDomain dom = IntervalDomain::Propagate({
      Atom({{t1, 1}}, -5, CmpOp::kEq),
      Atom({{t2, 1}}, -7, CmpOp::kEq),
      Atom({{t, 1}, {t1, -1}, {t2, -1}}, -30, CmpOp::kEq),
  });
  ASSERT_FALSE(dom.definitely_empty());
  ASSERT_TRUE(dom.Of(t).Point().has_value());
  EXPECT_EQ(*dom.Of(t).Point(), Rational(42));
}

TEST(IntervalDomainTest, DetectsEmptyBox) {
  const VarId x = 1;
  // x >= 1 and x <= 0.
  IntervalDomain dom = IntervalDomain::Propagate({
      Atom({{x, -1}}, 1, CmpOp::kLe),
      Atom({{x, 1}}, 0, CmpOp::kLe),
  });
  EXPECT_TRUE(dom.definitely_empty());
}

TEST(IntervalDomainTest, StrictnessDecidesBoundaryEmptiness) {
  const VarId x = 1;
  // x >= 3 and x <= 3 is the point; making either side strict empties it.
  EXPECT_FALSE(IntervalDomain::Propagate({
                                             Atom({{x, -1}}, 3, CmpOp::kLe),
                                             Atom({{x, 1}}, -3, CmpOp::kLe),
                                         })
                   .definitely_empty());
  EXPECT_TRUE(IntervalDomain::Propagate({
                                            Atom({{x, -1}}, 3, CmpOp::kLt),
                                            Atom({{x, 1}}, -3, CmpOp::kLe),
                                        })
                  .definitely_empty());
}

TEST(IntervalDomainTest, GroundFalseConstraintEmptiesTheBox) {
  IntervalDomain dom =
      IntervalDomain::Propagate({Atom({}, 1, CmpOp::kLe)});  // 1 <= 0
  EXPECT_TRUE(dom.definitely_empty());
}

TEST(IntervalDomainTest, DivergentTighteningTerminatesInconclusively) {
  // x <= y - 1, y <= x - 1 and x <= 0 walk both upper bounds down forever
  // (each round lowers them by 2); the round cap must stop the walk without
  // claiming emptiness. The conjunction is genuinely unsatisfiable, but
  // the box never empties: both intervals stay lower-infinite.
  const VarId x = 1, y = 2;
  IntervalDomain dom = IntervalDomain::Propagate({
      Atom({{x, 1}, {y, -1}}, 1, CmpOp::kLe),
      Atom({{y, 1}, {x, -1}}, 1, CmpOp::kLe),
      Atom({{x, 1}}, 0, CmpOp::kLe),
  });
  EXPECT_FALSE(dom.definitely_empty());
  for (VarId v : {x, y}) {
    const Interval& iv = dom.Of(v);
    EXPECT_TRUE(iv.lower_infinite());
    ASSERT_FALSE(iv.upper_infinite());
    // Still walking when the cap stopped it: below its first bound, but no
    // lower than kMaxRounds rounds of the walk can reach.
    EXPECT_LT(iv.upper(), Rational(0));
    EXPECT_GE(iv.upper(), Rational(-2 * IntervalDomain::kMaxRounds));
  }
}

}  // namespace
}  // namespace cqlopt
