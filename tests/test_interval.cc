// Unit and randomized coverage of the interval prepass (DESIGN.md §11):
// interval arithmetic with rational endpoints, strict vs. non-strict
// bounds, empty detection, ±inf widening, bound propagation over
// LinearConstraint conjunctions — and the soundness contract itself: a 10k
// case randomized sweep asserting that every conclusive prepass verdict
// (SAT / UNSAT / implied / not-implied) is confirmed by the exact
// Fourier–Motzkin tier. The prepass is allowed to say "don't know"; it is
// never allowed to disagree with FM.

#include <gtest/gtest.h>

#include "constraint/conjunction.h"
#include "constraint/decision_scope.h"
#include "constraint/fourier_motzkin.h"
#include "constraint/implication.h"
#include "constraint/interval.h"
#include "testing/generator.h"
#include "testing/rng.h"

namespace cqlopt {
namespace {

using ::cqlopt::testing::ConstraintGenOptions;
using ::cqlopt::testing::RandomConjunction;
using ::cqlopt::testing::Rng;

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
  // x <= y - 1 and y <= x - 1 walks both upper bounds down forever; the
  // round cap must stop it without claiming emptiness (the box never
  // empties — both intervals stay lower-infinite).
  const VarId x = 1, y = 2;
  IntervalDomain dom = IntervalDomain::Propagate({
      Atom({{x, 1}, {y, -1}}, 1, CmpOp::kLe),
      Atom({{y, 1}, {x, -1}}, 1, CmpOp::kLe),
  });
  EXPECT_FALSE(dom.definitely_empty());
  // FM knows better — the conjunction is genuinely unsatisfiable — so the
  // prepass must return "don't know" here, not a wrong "sat".
  EXPECT_EQ(prepass::TrySatisfiable({
                Atom({{x, 1}, {y, -1}}, 1, CmpOp::kLe),
                Atom({{y, 1}, {x, -1}}, 1, CmpOp::kLe),
            }),
            std::nullopt);
}

TEST(IntervalDomainTest, RangeOfTracksAttainment) {
  const VarId x = 1, y = 2;
  // x in [1, 2), y in [10, 20]: range of x + 2y is [21, 42), lo closed
  // (both minima attained), hi open (x's sup is not attained).
  IntervalDomain dom = IntervalDomain::Propagate({
      Atom({{x, -1}}, 1, CmpOp::kLe),
      Atom({{x, 1}}, -2, CmpOp::kLt),
      Atom({{y, -1}}, 10, CmpOp::kLe),
      Atom({{y, 1}}, -20, CmpOp::kLe),
  });
  ASSERT_FALSE(dom.definitely_empty());
  ExprRange r = dom.RangeOf(LinearExpr::Var(x) +
                            LinearExpr::Var(y).Scale(Rational(2)));
  ASSERT_FALSE(r.lo.infinite);
  ASSERT_FALSE(r.hi.infinite);
  EXPECT_EQ(r.lo.value, Rational(21));
  EXPECT_FALSE(r.lo.open);
  EXPECT_EQ(r.hi.value, Rational(42));
  EXPECT_TRUE(r.hi.open);
}

TEST(IntervalDomainTest, NegativeCoefficientFlipsContribution) {
  const VarId x = 1;
  // x in [1, 4]: range of -3x + 2 is [-10, -1].
  IntervalDomain dom = IntervalDomain::Propagate({
      Atom({{x, -1}}, 1, CmpOp::kLe),
      Atom({{x, 1}}, -4, CmpOp::kLe),
  });
  ExprRange r = dom.RangeOf(LinearExpr::Var(x).Scale(Rational(-3)) +
                            LinearExpr::Constant(Rational(2)));
  ASSERT_FALSE(r.lo.infinite);
  ASSERT_FALSE(r.hi.infinite);
  EXPECT_EQ(r.lo.value, Rational(-10));
  EXPECT_EQ(r.hi.value, Rational(-1));
}

TEST(IntervalDomainTest, ProvesAndRefutesAtoms) {
  const VarId x = 1;
  // x in [3, 5].
  IntervalDomain dom = IntervalDomain::Propagate({
      Atom({{x, -1}}, 3, CmpOp::kLe),
      Atom({{x, 1}}, -5, CmpOp::kLe),
  });
  // x <= 6 holds everywhere; x <= 2 fails everywhere; x <= 4 is mixed.
  EXPECT_TRUE(dom.ProvesAtom(Atom({{x, 1}}, -6, CmpOp::kLe)));
  EXPECT_TRUE(dom.RefutesAtom(Atom({{x, 1}}, -2, CmpOp::kLe)));
  EXPECT_FALSE(dom.ProvesAtom(Atom({{x, 1}}, -4, CmpOp::kLe)));
  EXPECT_FALSE(dom.RefutesAtom(Atom({{x, 1}}, -4, CmpOp::kLe)));
  EXPECT_TRUE(dom.ViolatedSomewhere(Atom({{x, 1}}, -4, CmpOp::kLe)));
  // Boundary: x <= 5 holds everywhere (sup attained at 5 <= 5);
  // x < 5 does not (the point x = 5 violates it), but x < 6 does.
  EXPECT_TRUE(dom.ProvesAtom(Atom({{x, 1}}, -5, CmpOp::kLe)));
  EXPECT_FALSE(dom.ProvesAtom(Atom({{x, 1}}, -5, CmpOp::kLt)));
  EXPECT_TRUE(dom.ViolatedSomewhere(Atom({{x, 1}}, -5, CmpOp::kLt)));
  EXPECT_TRUE(dom.ProvesAtom(Atom({{x, 1}}, -6, CmpOp::kLt)));
  // x >= 3 everywhere, so x < 3 is refuted everywhere.
  EXPECT_TRUE(dom.RefutesAtom(Atom({{x, 1}}, -3, CmpOp::kLt)));
  EXPECT_FALSE(dom.RefutesAtom(Atom({{x, 1}}, -3, CmpOp::kLe)));
}

TEST(IntervalDomainTest, EqualityAtomVerdicts) {
  const VarId x = 1, y = 2;
  // x pinned to 4, y in [0, 1].
  IntervalDomain dom = IntervalDomain::Propagate({
      Atom({{x, 1}}, -4, CmpOp::kEq),
      Atom({{y, -1}}, 0, CmpOp::kLe),
      Atom({{y, 1}}, -1, CmpOp::kLe),
  });
  EXPECT_TRUE(dom.ProvesAtom(Atom({{x, 1}}, -4, CmpOp::kEq)));
  EXPECT_TRUE(dom.RefutesAtom(Atom({{x, 1}}, -5, CmpOp::kEq)));
  // y = 1/2 is achievable but not everywhere: neither proved nor refuted.
  EXPECT_FALSE(dom.ProvesAtom(Atom({{y, 2}}, -1, CmpOp::kEq)));
  EXPECT_FALSE(dom.RefutesAtom(Atom({{y, 2}}, -1, CmpOp::kEq)));
  EXPECT_TRUE(dom.ViolatedSomewhere(Atom({{y, 2}}, -1, CmpOp::kEq)));
}

// ----------------------------------------------------------- prepass tier

TEST(PrepassTest, ConclusiveVerdictsOnEasyInputs) {
  const VarId x = 1;
  EXPECT_EQ(prepass::TrySatisfiable({
                Atom({{x, -1}}, 1, CmpOp::kLe),  // x >= 1
                Atom({{x, 1}}, 0, CmpOp::kLe),   // x <= 0
            }),
            std::optional<bool>(false));
  EXPECT_EQ(prepass::TrySatisfiable({
                Atom({{x, -1}}, 1, CmpOp::kLe),  // x >= 1
                Atom({{x, 1}}, -3, CmpOp::kLe),  // x <= 3
            }),
            std::optional<bool>(true));
  EXPECT_EQ(prepass::TryImpliesAtom({Atom({{x, -1}}, 2, CmpOp::kLe)},
                                    Atom({{x, -1}}, 0, CmpOp::kLe)),
            std::optional<bool>(true));  // x >= 2 implies x >= 0
  EXPECT_EQ(prepass::TryImpliesAtom({Atom({{x, -1}}, 0, CmpOp::kLe)},
                                    Atom({{x, -1}}, 2, CmpOp::kLe)),
            std::optional<bool>(false));  // x >= 0 does not imply x >= 2
}

TEST(PrepassTest, ScopeOffSuppressesProbes) {
  const VarId x = 1;
  std::vector<LinearConstraint> unsat = {
      Atom({{x, -1}}, 1, CmpOp::kLe),
      Atom({{x, 1}}, 0, CmpOp::kLe),
  };
  DecisionScope off({.prepass = false});
  prepass::Counters before = prepass::Snapshot();
  EXPECT_FALSE(prepass::IsSatisfiable(unsat));  // exact tier decides
  EXPECT_FALSE(prepass::TryImplies(Conjunction(), Conjunction()).has_value());
  prepass::Counters after = prepass::Snapshot();
  EXPECT_EQ(after.conclusive(), before.conclusive());
  EXPECT_EQ(after.fallback, before.fallback);
  DecisionScope::Counts counts;
  off.AddTo(&counts);
  EXPECT_EQ(counts.prepass_conclusive, 0);
  EXPECT_EQ(counts.prepass_fallback, 0);
  {
    // A nested scope cannot turn the tier back on.
    DecisionScope on({.prepass = true});
    EXPECT_FALSE(DecisionScope::prepass_on());
  }
}

TEST(PrepassTest, ScopeCountsItsOwnVerdicts) {
  const VarId x = 1;
  std::vector<LinearConstraint> unsat = {
      Atom({{x, -1}}, 1, CmpOp::kLe),
      Atom({{x, 1}}, 0, CmpOp::kLe),
  };
  DecisionScope outer({});
  {
    DecisionScope inner({});
    EXPECT_FALSE(prepass::IsSatisfiable(unsat));  // conclusive UNSAT
    DecisionScope::Counts counts;
    inner.AddTo(&counts);
    EXPECT_EQ(counts.prepass_conclusive, 1);
  }
  // The inner scope handed its count to the outer one on exit.
  DecisionScope::Counts counts;
  outer.AddTo(&counts);
  EXPECT_EQ(counts.prepass_conclusive, 1);
  EXPECT_EQ(counts.prepass_fallback, 0);
}

TEST(PrepassTest, WrapperCountsVerdicts) {
  const VarId x = 1;
  prepass::Counters before = prepass::Snapshot();
  EXPECT_FALSE(prepass::IsSatisfiable({
      Atom({{x, -1}}, 1, CmpOp::kLe),
      Atom({{x, 1}}, 0, CmpOp::kLe),
  }));
  prepass::Counters after = prepass::Snapshot();
  EXPECT_EQ(after.unsat, before.unsat + 1);
  EXPECT_EQ(after.fallback, before.fallback);
}

// The soundness sweep: 10k random conjunction/atom pairs, drawn from both
// the order-constraint class and the dense multi-variable class. Whenever
// the prepass is conclusive its answer must equal exact FM's. (With the
// DecisionCache untouched: fm:: wrappers cache, but both sides compute the
// same key families, so agreement is what matters.)
TEST(PrepassSoundnessTest, RandomizedVerdictsMatchExactFm) {
  constexpr int kCases = 10000;
  Rng rng(20260807);
  long sat_hits = 0, implies_hits = 0;
  for (int i = 0; i < kCases; ++i) {
    ConstraintGenOptions gen;
    gen.num_vars = 1 + static_cast<int>(rng.Next() % 4);
    gen.atoms = 1 + static_cast<int>(rng.Next() % 4);
    gen.dense = (i % 2) == 1;
    Conjunction lhs = RandomConjunction(&rng, gen);
    Conjunction probe = RandomConjunction(&rng, gen);
    std::vector<LinearConstraint> cs = lhs.LinearWithEqualities();

    if (auto fast = prepass::TrySatisfiable(cs)) {
      ++sat_hits;
      EXPECT_EQ(*fast, fm::IsSatisfiable(cs))
          << "case " << i << ": prepass SAT verdict diverged from FM";
    }
    for (const LinearConstraint& atom : probe.linear()) {
      if (auto fast = prepass::TryImpliesAtom(cs, atom)) {
        ++implies_hits;
        EXPECT_EQ(*fast, fm::ImpliesAtom(cs, atom))
            << "case " << i
            << ": prepass implication verdict diverged from FM";
      }
    }
  }
  // The sweep only proves soundness if the prepass actually concludes on a
  // healthy share of inputs; an always-inconclusive prepass would pass
  // vacuously.
  EXPECT_GT(sat_hits, kCases / 4);
  EXPECT_GT(implies_hits, kCases / 10);
}

// Conjunction-level prepass: conclusive TryImplies answers must match the
// exact cached Implies (which we query with the prepass disabled so the
// exact path is what actually runs).
TEST(PrepassSoundnessTest, RandomizedTryImpliesMatchesExactImplies) {
  constexpr int kCases = 2000;
  Rng rng(987654321);
  long hits = 0;
  for (int i = 0; i < kCases; ++i) {
    ConstraintGenOptions gen;
    gen.num_vars = 1 + static_cast<int>(rng.Next() % 3);
    gen.atoms = 1 + static_cast<int>(rng.Next() % 3);
    gen.dense = (i % 2) == 1;
    Conjunction a = RandomConjunction(&rng, gen);
    Conjunction b = RandomConjunction(&rng, gen);
    std::optional<bool> fast = prepass::TryImplies(a, b);
    if (!fast.has_value()) continue;
    ++hits;
    DecisionScope off({.prepass = false});
    EXPECT_EQ(*fast, Implies(a, b))
        << "case " << i << ": TryImplies diverged from exact Implies";
  }
  EXPECT_GT(hits, kCases / 8);
}

}  // namespace
}  // namespace cqlopt
