#include "constraint/linear_constraint.h"

#include <gtest/gtest.h>

namespace cqlopt {
namespace {

LinearConstraint Make(const std::string& op, int a1, int a2, int c) {
  // a1*$1 + a2*$2 op -c   i.e. expr = a1*$1 + a2*$2 + c.
  LinearExpr lhs;
  lhs.Add(1, Rational(a1));
  lhs.Add(2, Rational(a2));
  return LinearConstraint::Make(lhs, op, LinearExpr::Constant(Rational(-c)));
}

TEST(LinearConstraintTest, MakeNormalizesOperators) {
  // $1 >= 3  ==  -$1 + 3 <= 0.
  LinearConstraint ge =
      LinearConstraint::Make(LinearExpr::Var(1), ">=",
                             LinearExpr::Constant(Rational(3)));
  EXPECT_EQ(ge.op(), CmpOp::kLe);
  EXPECT_EQ(ge.expr().CoefficientOf(1), Rational(-1));
  LinearConstraint gt =
      LinearConstraint::Make(LinearExpr::Var(1), ">",
                             LinearExpr::Constant(Rational(3)));
  EXPECT_EQ(gt.op(), CmpOp::kLt);
}

TEST(LinearConstraintTest, CanonicalizationScalesToIntegerGcdOne) {
  // (2/3)$1 + (4/3)$2 <= 2  canonicalizes to $1 + 2$2 - 3 <= 0.
  LinearExpr e;
  e.Add(1, Rational(BigInt(2), BigInt(3)));
  e.Add(2, Rational(BigInt(4), BigInt(3)));
  e.AddConstant(Rational(-2));
  LinearConstraint c(e, CmpOp::kLe);
  EXPECT_EQ(c.expr().CoefficientOf(1), Rational(1));
  EXPECT_EQ(c.expr().CoefficientOf(2), Rational(2));
  EXPECT_EQ(c.expr().constant(), Rational(-3));
}

TEST(LinearConstraintTest, CanonicalizationBeyondInt64) {
  // Scaling by a positive factor never changes the canonical form, also
  // when the scaled coefficients or their lcm/gcd leave int64.
  LinearExpr e;
  e.Add(1, Rational(BigInt(2), BigInt(3)));
  e.Add(2, Rational(BigInt(4), BigInt(3)));
  e.AddConstant(Rational(-2));
  const LinearConstraint small(e, CmpOp::kLe);
  BigInt huge;
  ASSERT_TRUE(BigInt::FromString("98765432109876543210987", &huge));
  for (const Rational& k :
       {Rational(huge, BigInt(7)), Rational(BigInt(7), huge),
        Rational(int64_t{3} << 61)}) {
    EXPECT_EQ(LinearConstraint(e.Scale(k), CmpOp::kLe), small) << k.ToString();
  }
  // 2^62/3 $1 + 2^62/5 $2 <= 0: the lcm-scaled numerators overflow int64,
  // the result 5$1 + 3$2 <= 0 does not.
  const int64_t two62 = int64_t{1} << 62;
  LinearExpr wide;
  wide.Add(1, Rational(two62, 3));
  wide.Add(2, Rational(two62, 5));
  LinearConstraint reduced(wide, CmpOp::kLe);
  EXPECT_EQ(reduced.expr().CoefficientOf(1), Rational(5));
  EXPECT_EQ(reduced.expr().CoefficientOf(2), Rational(3));
  // A result that stays past int64: 10^20/3 $1 + 5/2 <= 0 is
  // 4*10^19 $1 + 3 <= 0.
  BigInt e20;
  ASSERT_TRUE(BigInt::FromString("100000000000000000000", &e20));
  LinearExpr big;
  big.Add(1, Rational(e20, BigInt(3)));
  big.AddConstant(Rational(5, 2));
  LinearConstraint kept(big, CmpOp::kLe);
  EXPECT_EQ(kept.expr().CoefficientOf(1).ToString(), "40000000000000000000");
  EXPECT_EQ(kept.expr().constant(), Rational(3));
}

TEST(LinearConstraintTest, EqualityOrientationCanonical) {
  // x - y = 0 and y - x = 0 canonicalize identically.
  LinearConstraint a(LinearExpr::Var(1) - LinearExpr::Var(2), CmpOp::kEq);
  LinearConstraint b(LinearExpr::Var(2) - LinearExpr::Var(1), CmpOp::kEq);
  EXPECT_EQ(a, b);
}

TEST(LinearConstraintTest, GroundEvaluation) {
  EXPECT_TRUE(LinearConstraint(LinearExpr::Constant(Rational(-1)), CmpOp::kLt)
                  .IsTriviallyTrue());
  EXPECT_TRUE(LinearConstraint(LinearExpr::Constant(Rational(0)), CmpOp::kLe)
                  .IsTriviallyTrue());
  EXPECT_TRUE(LinearConstraint(LinearExpr::Constant(Rational(0)), CmpOp::kLt)
                  .IsTriviallyFalse());
  EXPECT_TRUE(LinearConstraint(LinearExpr::Constant(Rational(1)), CmpOp::kLe)
                  .IsTriviallyFalse());
  EXPECT_TRUE(LinearConstraint(LinearExpr::Constant(Rational(0)), CmpOp::kEq)
                  .IsTriviallyTrue());
}

TEST(LinearConstraintTest, NegationsOfInequalities) {
  LinearConstraint le = Make("<=", 1, 0, 0);  // $1 <= 0
  auto neg = le.Negations();
  ASSERT_EQ(neg.size(), 1u);
  EXPECT_EQ(neg[0].op(), CmpOp::kLt);
  EXPECT_EQ(neg[0].expr().CoefficientOf(1), Rational(-1));  // -$1 < 0
}

TEST(LinearConstraintTest, NegationOfEqualitySplits) {
  LinearConstraint eq = Make("=", 1, -1, 0);  // $1 = $2
  auto neg = eq.Negations();
  ASSERT_EQ(neg.size(), 2u);
  EXPECT_EQ(neg[0].op(), CmpOp::kLt);
  EXPECT_EQ(neg[1].op(), CmpOp::kLt);
  EXPECT_NE(neg[0], neg[1]);
}

TEST(LinearConstraintTest, SubstituteRecanonicalizes) {
  // $1 + $2 <= 4 with $2 := 4 - $1 gives 0 <= 0: trivially true.
  LinearConstraint c = Make("<=", 1, 1, -4);
  LinearExpr repl = LinearExpr::Constant(Rational(4)) - LinearExpr::Var(1);
  LinearConstraint out = c.Substitute(2, repl);
  EXPECT_TRUE(out.IsTriviallyTrue());
}

TEST(LinearConstraintTest, OrderingIsTotalAndConsistent) {
  LinearConstraint a = Make("<=", 1, 0, 0);
  LinearConstraint b = Make("<=", 0, 1, 0);
  LinearConstraint c = Make("<", 1, 0, 0);
  EXPECT_TRUE(a < b || b < a);
  EXPECT_FALSE(a < a);
  EXPECT_TRUE((a < c) != (c < a));
}

TEST(LinearConstraintTest, PrettyStringFlipsAllNegative) {
  // -$1 < 0 prints as $1 > 0.
  LinearConstraint c(-LinearExpr::Var(1), CmpOp::kLt);
  EXPECT_EQ(c.ToPrettyString(), "$1 > 0");
  LinearConstraint le(-LinearExpr::Var(1) + LinearExpr::Constant(Rational(2)),
                      CmpOp::kLe);
  EXPECT_EQ(le.ToPrettyString(), "$1 >= 2");
}

}  // namespace
}  // namespace cqlopt
