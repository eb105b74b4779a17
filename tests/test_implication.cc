#include "constraint/implication.h"

#include <gtest/gtest.h>

#include "constraint/decision_cache.h"
#include "constraint/decision_scope.h"
#include "constraint/fourier_motzkin.h"
#include "testing/generator.h"
#include "testing/rng.h"

namespace cqlopt {
namespace {

using ::cqlopt::testing::ConstraintGenOptions;
using ::cqlopt::testing::RandomConjunction;
using ::cqlopt::testing::Rng;

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

TEST(ImplicationTest, PaperExampleFromDefinition23) {
  // (X + Y <= 4) & (X >= 2) implies Y <= 2 (the paper's Section 2 example).
  Conjunction a = Conj({Atom({{1, 1}, {2, 1}}, -4, CmpOp::kLe),
                        Atom({{1, -1}}, 2, CmpOp::kLe)});
  Conjunction b = Conj({Atom({{2, 1}}, -2, CmpOp::kLe)});
  EXPECT_TRUE(Implies(a, b));
  EXPECT_FALSE(Implies(b, a));
}

TEST(ImplicationTest, UnsatisfiableImpliesEverything) {
  Conjunction f = Conjunction::False();
  Conjunction b = Conj({Atom({{1, 1}}, -1, CmpOp::kLe)});
  EXPECT_TRUE(Implies(f, b));
  EXPECT_FALSE(Implies(b, f));
}

TEST(ImplicationTest, EverythingImpliesTrue) {
  Conjunction a = Conj({Atom({{1, 1}}, -1, CmpOp::kLe)});
  EXPECT_TRUE(Implies(a, Conjunction::True()));
}

TEST(ImplicationTest, StrictVsNonStrict) {
  Conjunction lt = Conj({Atom({{1, 1}}, -3, CmpOp::kLt)});   // x < 3
  Conjunction le = Conj({Atom({{1, 1}}, -3, CmpOp::kLe)});   // x <= 3
  EXPECT_TRUE(Implies(lt, le));
  EXPECT_FALSE(Implies(le, lt));
}

TEST(ImplicationTest, SymbolBindingsEntailSyntactically) {
  Conjunction a;
  ASSERT_TRUE(a.BindSymbol(1, 7).ok());
  ASSERT_TRUE(a.BindSymbol(2, 7).ok());
  Conjunction b;
  ASSERT_TRUE(b.BindSymbol(1, 7).ok());
  EXPECT_TRUE(Implies(a, b));
  Conjunction c;
  ASSERT_TRUE(c.BindSymbol(1, 8).ok());
  EXPECT_FALSE(Implies(a, c));
}

TEST(ImplicationTest, EqualityEntailedByUnionFind) {
  Conjunction a;
  ASSERT_TRUE(a.AddEquality(1, 2).ok());
  ASSERT_TRUE(a.AddEquality(2, 3).ok());
  Conjunction b;
  ASSERT_TRUE(b.AddEquality(1, 3).ok());
  EXPECT_TRUE(Implies(a, b));
}

TEST(ImplicationTest, EqualityEntailedByLinearAtoms) {
  // x <= y and y <= x entail x = y.
  Conjunction a = Conj({Atom({{1, 1}, {2, -1}}, 0, CmpOp::kLe),
                        Atom({{2, 1}, {1, -1}}, 0, CmpOp::kLe)});
  Conjunction b;
  ASSERT_TRUE(b.AddEquality(1, 2).ok());
  EXPECT_TRUE(Implies(a, b));
}

TEST(ImplicationTest, SymbolEqualityEntailedBySharedBinding) {
  Conjunction a;
  ASSERT_TRUE(a.BindSymbol(1, 7).ok());
  ASSERT_TRUE(a.BindSymbol(2, 7).ok());
  Conjunction b;
  ASSERT_TRUE(b.AddEquality(1, 2).ok());
  ASSERT_TRUE(b.BindSymbol(1, 7).ok());
  EXPECT_TRUE(Implies(a, b));
}

TEST(ImplicationTest, DisjunctionNeedsCaseSplit) {
  // 0 <= x <= 10 implies (x <= 5) v (x >= 5): no single disjunct covers it.
  Conjunction a = Conj({Atom({{1, -1}}, 0, CmpOp::kLe),
                        Atom({{1, 1}}, -10, CmpOp::kLe)});
  Conjunction d1 = Conj({Atom({{1, 1}}, -5, CmpOp::kLe)});
  Conjunction d2 = Conj({Atom({{1, -1}}, 5, CmpOp::kLe)});
  EXPECT_FALSE(Implies(a, d1));
  EXPECT_FALSE(Implies(a, d2));
  EXPECT_TRUE(ImpliesDisjunction(a, {d1, d2}));
}

TEST(ImplicationTest, DisjunctionWithGapNotImplied) {
  // 0 <= x <= 10 does NOT imply (x < 5) v (x > 5): x = 5 escapes.
  Conjunction a = Conj({Atom({{1, -1}}, 0, CmpOp::kLe),
                        Atom({{1, 1}}, -10, CmpOp::kLe)});
  Conjunction d1 = Conj({Atom({{1, 1}}, -5, CmpOp::kLt)});
  Conjunction d2 = Conj({Atom({{1, -1}}, 5, CmpOp::kLt)});
  EXPECT_FALSE(ImpliesDisjunction(a, {d1, d2}));
}

TEST(ImplicationTest, DisjunctionEmptyIsFalse) {
  Conjunction a = Conj({Atom({{1, 1}}, -1, CmpOp::kLe)});
  EXPECT_FALSE(ImpliesDisjunction(a, {}));
  EXPECT_TRUE(ImpliesDisjunction(Conjunction::False(), {}));
}

TEST(ImplicationTest, EmptyDisjunctCoversEverything) {
  // A disjunct with no atoms is `true`, so the disjunction is implied by
  // anything — including conjunctions that imply no other disjunct. Pins
  // the contract the RefuteAll tail (constraint/implication.cc) documents:
  // ¬true contributes no case-split branches, so an empty disjunct covers
  // all of `a` (in practice the per-disjunct fast path already accepts it).
  Conjunction a = Conj({Atom({{1, 1}}, -1, CmpOp::kLe)});
  Conjunction empty;  // no atoms: true
  EXPECT_TRUE(ImpliesDisjunction(a, {empty}));
  Conjunction unrelated = Conj({Atom({{2, 1}}, -9, CmpOp::kLe)});
  EXPECT_TRUE(ImpliesDisjunction(a, {unrelated, empty}));
  EXPECT_TRUE(ImpliesDisjunction(Conjunction::True(), {empty}));
}

TEST(ImplicationTest, UnsatisfiableDisjunctsIgnored) {
  Conjunction a = Conj({Atom({{1, 1}}, -1, CmpOp::kLe)});
  Conjunction dead = Conjunction::False();
  Conjunction live = Conj({Atom({{1, 1}}, -2, CmpOp::kLe)});
  EXPECT_TRUE(ImpliesDisjunction(a, {dead, live}));
}

TEST(ImplicationTest, FlightDisjunctionFromExample43) {
  // (T > 0 & T <= 240 & C > 0 & C <= 150) implies the QRP constraint of
  // flight: (T>0 & T<=240 & C>0) | (T>0 & C>0 & C<=150) — via either arm.
  Conjunction a = Conj({Atom({{1, -1}}, 0, CmpOp::kLt),
                        Atom({{1, 1}}, -240, CmpOp::kLe),
                        Atom({{2, -1}}, 0, CmpOp::kLt),
                        Atom({{2, 1}}, -150, CmpOp::kLe)});
  Conjunction arm1 = Conj({Atom({{1, -1}}, 0, CmpOp::kLt),
                           Atom({{1, 1}}, -240, CmpOp::kLe),
                           Atom({{2, -1}}, 0, CmpOp::kLt)});
  Conjunction arm2 = Conj({Atom({{1, -1}}, 0, CmpOp::kLt),
                           Atom({{2, -1}}, 0, CmpOp::kLt),
                           Atom({{2, 1}}, -150, CmpOp::kLe)});
  EXPECT_TRUE(ImpliesDisjunction(a, {arm1, arm2}));
  // But (T>0 & C>0) alone does not imply the disjunction.
  Conjunction weak = Conj({Atom({{1, -1}}, 0, CmpOp::kLt),
                           Atom({{2, -1}}, 0, CmpOp::kLt)});
  EXPECT_FALSE(ImpliesDisjunction(weak, {arm1, arm2}));
}

TEST(ImplicationTest, EquivalentDetectsSyntacticVariants) {
  // 2x <= 4 is equivalent to x <= 2.
  Conjunction a = Conj({Atom({{1, 2}}, -4, CmpOp::kLe)});
  Conjunction b = Conj({Atom({{1, 1}}, -2, CmpOp::kLe)});
  EXPECT_TRUE(Equivalent(a, b));
  Conjunction c = Conj({Atom({{1, 1}}, -3, CmpOp::kLe)});
  EXPECT_FALSE(Equivalent(a, c));
}

/// DecisionCache lookups (hits + misses) made by `Implies(a, b)`.
long CacheLookups(const Conjunction& a, const Conjunction& b, bool* answer) {
  DecisionScope scope({});
  *answer = Implies(a, b);
  DecisionScope::Counts counts;
  scope.AddTo(&counts);
  return counts.cache_hits + counts.cache_misses;
}

TEST(ImplicationTest, SyntacticPairsMakeNoCacheLookups) {
  // Pairs the syntactic step settles never fingerprint or look up anything
  // once a's satisfiability is known (a per-object cached bool, as it is
  // for every stored fact and accumulated body constraint).
  Conjunction a = Conj({Atom({{1, -1}}, 0, CmpOp::kLe)});  // x >= 0
  ASSERT_TRUE(a.BindSymbol(2, 7).ok());
  ASSERT_TRUE(a.IsSatisfiable());
  Conjunction unsat = Conj({Atom({{1, -1}}, 1, CmpOp::kLe),
                            Atom({{1, 1}}, 0, CmpOp::kLe)});  // x >= 1, x <= 0
  ASSERT_FALSE(unsat.IsSatisfiable());
  Conjunction other_symbol;
  ASSERT_TRUE(other_symbol.BindSymbol(2, 8).ok());
  ASSERT_TRUE(other_symbol.AddLinear(Atom({{1, -1}}, 0, CmpOp::kLe)).ok());
  Conjunction unbound_symbol;
  ASSERT_TRUE(unbound_symbol.BindSymbol(3, 7).ok());
  Conjunction same_symbol;
  ASSERT_TRUE(same_symbol.BindSymbol(2, 7).ok());
  // A ground point: x = 3, y = 5.
  Conjunction point = Conj({Atom({{1, 1}}, -3, CmpOp::kEq),
                            Atom({{3, 1}}, -5, CmpOp::kEq)});
  ASSERT_TRUE(point.IsSatisfiable());
  Conjunction x_le_4 = Conj({Atom({{1, 1}}, -4, CmpOp::kLe)});
  Conjunction sum_ge_9 = Conj({Atom({{1, -1}, {3, -1}}, 9, CmpOp::kLe)});

  struct Case {
    const char* name;
    const Conjunction& a;
    const Conjunction& b;
    bool expected;
  };
  const Case cases[] = {
      {"UNSAT a", unsat, a, true},
      {"known-UNSAT b", a, Conjunction::False(), false},
      {"b binds another symbol", a, other_symbol, false},
      {"b binds a variable a leaves free", a, unbound_symbol, false},
      {"b has no obligations left", a, same_symbol, true},
      {"b is true", a, Conjunction::True(), true},
      {"b's atom holds at a's point", point, x_le_4, true},
      {"b's atom fails at a's point", point, sum_ge_9, false},
  };
  for (const Case& c : cases) {
    bool answer = !c.expected;
    EXPECT_EQ(CacheLookups(c.a, c.b, &answer), 0) << c.name;
    EXPECT_EQ(answer, c.expected) << c.name;
  }

  // A linear atom a does not pin, or a variable equality, goes to the
  // cache: the counter does see lookups.
  Conjunction weaker = Conj({Atom({{1, -1}}, -1, CmpOp::kLe)});  // x >= -1
  bool answer = false;
  EXPECT_GT(CacheLookups(a, weaker, &answer), 0);
  EXPECT_TRUE(answer);
  Conjunction x_le_4_and_x_eq_y = x_le_4;
  ASSERT_TRUE(x_le_4_and_x_eq_y.AddEquality(1, 3).ok());
  answer = true;
  EXPECT_GT(CacheLookups(point, x_le_4_and_x_eq_y, &answer), 0);
  EXPECT_FALSE(answer);
}

/// Implies(a, b) for a symbol-free pair straight from FM: a's linear part
/// is unsatisfiable, or it entails every atom and variable equality of b.
bool FmImplies(const Conjunction& a, const Conjunction& b) {
  std::vector<LinearConstraint> a_atoms = a.LinearWithEqualities();
  if (a.known_unsat() || !fm::IsSatisfiable(a_atoms)) return true;
  if (b.known_unsat()) return false;
  for (const LinearConstraint& atom : b.LinearWithEqualities()) {
    if (!fm::ImpliesAtom(a_atoms, atom)) return false;
  }
  return true;
}

/// A random pair member: linear atoms from the constraint generator over
/// variables 1..3, plus (at random) an equality 1 = 2, a symbol binding of
/// variable 10 and an equality 10 = 11 joining it, so every syntactic step
/// and both kinds of equality obligation occur.
Conjunction RandomPairMember(Rng* rng, int index) {
  ConstraintGenOptions gen;
  gen.num_vars = 1 + static_cast<int>(rng->Next() % 3);
  gen.atoms = 1 + static_cast<int>(rng->Next() % 3);
  gen.dense = (index % 2) == 1;
  Conjunction c = RandomConjunction(rng, gen);
  if (rng->Next() % 6 == 0) {
    EXPECT_TRUE(c.AddEquality(1, 2).ok());
  }
  if (rng->Next() % 2 == 0) {
    EXPECT_TRUE(c.BindSymbol(10, static_cast<SymbolId>(rng->Next() % 2)).ok());
  }
  if (rng->Next() % 4 == 0) {
    EXPECT_TRUE(c.AddEquality(10, 11).ok());
  }
  return c;
}

TEST(ImplicationTest, RandomizedPairsAgreeWithCacheOnAndOff) {
  // 2k random pairs: Implies answers the same with the DecisionCache off,
  // on and cold, and on and warm, and on symbol-free pairs the same as FM
  // on every obligation. Both the syntactic step and the cached exact path
  // must see a real share of the pairs.
  constexpr int kCases = 2000;
  Rng rng(987654321);
  DecisionCache::Instance().Clear();
  int settled = 0;
  int symbol_free = 0;
  for (int i = 0; i < kCases; ++i) {
    Conjunction a = RandomPairMember(&rng, i);
    Conjunction b = RandomPairMember(&rng, i);
    bool off = false;
    {
      DecisionScope no_cache({.cache = false});
      off = Implies(a, b);
    }
    bool cold = !off;
    if (CacheLookups(a, b, &cold) == 0) ++settled;
    EXPECT_EQ(cold, off) << "case " << i << ": " << a.ToString() << " => "
                         << b.ToString();
    EXPECT_EQ(Implies(a, b), off) << "case " << i << " (warm)";
    if (a.SymbolBindings().empty() && b.SymbolBindings().empty()) {
      ++symbol_free;
      EXPECT_EQ(off, FmImplies(a, b)) << "case " << i << ": " << a.ToString()
                                      << " => " << b.ToString();
    }
  }
  EXPECT_GT(settled, kCases / 8);
  EXPECT_LT(settled, kCases - kCases / 8);
  EXPECT_GT(symbol_free, kCases / 8);
}

}  // namespace
}  // namespace cqlopt
