#include "transform/predicate_constraints.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "ast/printer.h"
#include "constraint/implication.h"
#include "core/equivalence.h"
#include "eval/seminaive.h"
#include "transform/magic.h"

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

TEST(HullTest, EmptySetIsFalse) {
  EXPECT_TRUE(HullOf(ConstraintSet::False()).known_unsat());
}

TEST(HullTest, SingleDisjunctIsItself) {
  Conjunction d = Conj({Atom({{1, 1}}, -4, CmpOp::kLe)});
  Conjunction hull = HullOf(ConstraintSet::Of(d));
  EXPECT_TRUE(Equivalent(hull, d));
}

TEST(HullTest, PointFactsHullToTrend) {
  // {$1 = 1} ∨ {$1 = 2} ∨ {$1 = 5} hulls to 1 <= $1 <= 5.
  ConstraintSet set = ConstraintSet::Of(Conj({Atom({{1, 1}}, -1, CmpOp::kEq)}));
  set.AddDisjunct(Conj({Atom({{1, 1}}, -2, CmpOp::kEq)}));
  set.AddDisjunct(Conj({Atom({{1, 1}}, -5, CmpOp::kEq)}));
  Conjunction hull = HullOf(set);
  Conjunction expected = Conj({Atom({{1, -1}}, 1, CmpOp::kLe),
                               Atom({{1, 1}}, -5, CmpOp::kLe)});
  EXPECT_TRUE(Equivalent(hull, expected)) << hull.ToString();
}

TEST(HullTest, SharedSymbolSurvives) {
  Conjunction a;
  ASSERT_TRUE(a.BindSymbol(1, 7).ok());
  ASSERT_TRUE(a.AddLinear(Atom({{2, 1}}, -1, CmpOp::kEq)).ok());
  Conjunction b;
  ASSERT_TRUE(b.BindSymbol(1, 7).ok());
  ASSERT_TRUE(b.AddLinear(Atom({{2, 1}}, -2, CmpOp::kEq)).ok());
  ConstraintSet set = ConstraintSet::Of(a);
  set.AddDisjunct(b);
  Conjunction hull = HullOf(set);
  EXPECT_EQ(hull.GetSymbol(1), std::optional<SymbolId>(7));
}

TEST(WideningTest, ExactConvergenceDetected) {
  // The flights program's predicate constraints converge exactly within the
  // budget; the pred step must report exact convergence with the minimum
  // constraints.
  Program p = ParseOrDie(
      "r3: flight(T, C) :- singleleg(T, C), C > 0, T > 0.\n"
      "r4: flight(T, C) :- flight(T1, C1), flight(T2, C2), "
      "T = T1 + T2 + 30, C = C1 + C2.\n");
  InferenceResult result;
  ASSERT_TRUE(PropagatePredicateConstraints(p, {}, {}, &result).ok());
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.exact);
  PredId flight = p.symbols->LookupPredicate("flight");
  ConstraintSet expected = ConstraintSet::Of(
      Conj({Atom({{1, -1}}, 0, CmpOp::kLt), Atom({{2, -1}}, 0, CmpOp::kLt)}));
  EXPECT_TRUE(result.constraints.at(flight).EquivalentTo(expected));
}

TEST(WideningTest, FibDerivesTheTable2ConstraintAutomatically) {
  // The headline: the paper hand-picks fib: $2 >= 1 (Example 4.4) because
  // the exact fixpoint diverges. The pred step's widening derives it.
  Program p = ParseOrDie(
      "r1: fib(0, 1).\n"
      "r2: fib(1, 1).\n"
      "r3: fib(N, X1 + X2) :- N > 1, fib(N - 1, X1), fib(N - 2, X2).\n");
  InferenceResult result;
  ASSERT_TRUE(PropagatePredicateConstraints(p, {}, {}, &result).ok());
  EXPECT_TRUE(result.converged);
  EXPECT_FALSE(result.exact);
  PredId fib = p.symbols->LookupPredicate("fib");
  const ConstraintSet& derived = result.constraints.at(fib);
  // Must imply the paper's $2 >= 1 (and be satisfiable).
  ConstraintSet paper =
      ConstraintSet::Of(Conj({Atom({{2, -1}}, 1, CmpOp::kLe)}));
  EXPECT_TRUE(derived.Implies(paper))
      << RenderConstraintSet(derived, *p.symbols, DollarNames());
  EXPECT_FALSE(derived.is_false());
}

TEST(WideningTest, DerivedFibConstraintIsSound) {
  // Every fact of a bounded forward evaluation satisfies the widened
  // constraint (predicate-constraint soundness, empirically). The bound
  // N <= 12 makes the exact iteration converge only at iteration 13, past
  // the budget, so the pred step widens.
  Program p = ParseOrDie(
      "r1: fib(0, 1).\n"
      "r2: fib(1, 1).\n"
      "r3: fib(N, X1 + X2) :- N > 1, N <= 12, fib(N - 1, X1), "
      "fib(N - 2, X2).\n");
  InferenceResult widened;
  ASSERT_TRUE(PropagatePredicateConstraints(p, {}, {}, &widened).ok());
  ASSERT_TRUE(widened.converged);
  PredId fib = p.symbols->LookupPredicate("fib");
  EvalOptions eval;
  eval.max_iterations = 32;
  auto run = Evaluate(p, Database(), eval);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(run->stats.reached_fixpoint);
  const Relation* rel = run->db.Find(fib);
  ASSERT_NE(rel, nullptr);
  EXPECT_GE(rel->size(), 12u);
  const auto& disjuncts = widened.constraints.at(fib).disjuncts();
  for (size_t i = 0; i < rel->size(); ++i) {
    EXPECT_TRUE(ImpliesDisjunction(rel->fact(i).constraint, disjuncts))
        << rel->fact(i).ToString(*p.symbols);
  }
}

TEST(WideningTest, MakesBackwardFibTerminateEndToEnd) {
  // Full automation of Table 2: pred (widening), magic, evaluate — the
  // evaluation terminates and finds fib(4, 5) without any hand-supplied
  // constraint.
  auto parsed = ParseProgram(
      "r1: fib(0, 1).\n"
      "r2: fib(1, 1).\n"
      "r3: fib(N, X1 + X2) :- N > 1, fib(N - 1, X1), fib(N - 2, X2).\n"
      "?- fib(N, 5).\n");
  ASSERT_TRUE(parsed.ok());
  Program& program = parsed->program;
  InferenceResult widened;
  auto propagated =
      PropagatePredicateConstraints(program, {}, {}, &widened);
  ASSERT_TRUE(propagated.ok());
  ASSERT_TRUE(widened.converged);
  MagicOptions magic_options;
  magic_options.sips = SipStrategy::kFullLeftToRight;
  auto magic = MagicTemplates(*propagated, parsed->queries[0], magic_options);
  ASSERT_TRUE(magic.ok());
  EvalOptions eval;
  eval.max_iterations = 64;
  auto run = Evaluate(magic->program, Database(), eval);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->stats.reached_fixpoint);
  auto answers = QueryAnswers(*run, magic->query);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->size(), 1u);
  EXPECT_EQ((*answers)[0].ToString(*program.symbols), "fib(4, 5)");
}

TEST(WideningTest, EmptyModelStaysFalse) {
  Program p = ParseOrDie("loop(X) :- loop(X).\n");
  InferenceResult result;
  ASSERT_TRUE(PropagatePredicateConstraints(p, {}, {}, &result).ok());
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(
      result.constraints.at(p.symbols->LookupPredicate("loop")).is_false());
}

}  // namespace
}  // namespace cqlopt
