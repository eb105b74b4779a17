#include "transform/predicate_constraints.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "ast/parser.h"
#include "ast/printer.h"
#include "constraint/implication.h"
#include "testing/generator.h"
#include "testing/rng.h"

namespace cqlopt {
namespace {

Program ParseOrDie(const std::string& text) {
  auto parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed->program;
}

ConstraintSet SetOf(const std::string& rendered_expect, const Program& p,
                    const InferenceResult& result, const std::string& pred) {
  PredId id = p.symbols->LookupPredicate(pred);
  EXPECT_NE(id, SymbolTable::kNoPred) << pred;
  auto it = result.constraints.find(id);
  EXPECT_NE(it, result.constraints.end()) << pred;
  (void)rendered_expect;
  return it->second;
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

TEST(PredicateConstraintsTest, FlightExampleMinimumConstraints) {
  // Section 4.4 on Example 1.1: flight's minimum predicate constraint is
  // ($3 > 0) & ($4 > 0); cheaporshort's is the two-disjunct set.
  Program p = ParseOrDie(
      "r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.\n"
      "r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.\n"
      "r3: flight(S, D, T, C) :- singleleg(S, D, T, C), C > 0, T > 0.\n"
      "r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, "
      "C2), T = T1 + T2 + 30, C = C1 + C2.\n");
  auto result = GenPredicateConstraints(p, {}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  ConstraintSet flight = SetOf("", p, *result, "flight");
  ConstraintSet expected_flight = ConstraintSet::Of(
      Conj({Atom({{3, -1}}, 0, CmpOp::kLt), Atom({{4, -1}}, 0, CmpOp::kLt)}));
  EXPECT_TRUE(flight.EquivalentTo(expected_flight))
      << RenderConstraintSet(flight, *p.symbols, DollarNames());

  ConstraintSet cheap = SetOf("", p, *result, "cheaporshort");
  ConstraintSet expected_cheap = ConstraintSet::Of(
      Conj({Atom({{3, -1}}, 0, CmpOp::kLt), Atom({{3, 1}}, -240, CmpOp::kLe),
            Atom({{4, -1}}, 0, CmpOp::kLt)}));
  expected_cheap.AddDisjunct(
      Conj({Atom({{3, -1}}, 0, CmpOp::kLt), Atom({{4, -1}}, 0, CmpOp::kLt),
            Atom({{4, 1}}, -150, CmpOp::kLe)}));
  EXPECT_TRUE(cheap.EquivalentTo(expected_cheap))
      << RenderConstraintSet(cheap, *p.symbols, DollarNames());
}

TEST(PredicateConstraintsTest, Example42RecursivePreservation) {
  // Example 4.2: every a fact satisfies $2 <= $1.
  Program p = ParseOrDie(
      "r1: q(X, Y) :- a(X, Y), X <= 10.\n"
      "r2: a(X, Y) :- p(X, Y), Y <= X.\n"
      "r3: a(X, Y) :- a(X, Z), a(Z, Y).\n");
  auto result = GenPredicateConstraints(p, {}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  ConstraintSet a = SetOf("", p, *result, "a");
  ConstraintSet expected =
      ConstraintSet::Of(Conj({Atom({{2, 1}, {1, -1}}, 0, CmpOp::kLe)}));
  EXPECT_TRUE(a.EquivalentTo(expected))
      << RenderConstraintSet(a, *p.symbols, DollarNames());
}

TEST(PredicateConstraintsTest, EdbConstraintsFlowThrough) {
  Program p = ParseOrDie("q(X) :- e(X).\n");
  PredId e = p.symbols->LookupPredicate("e");
  std::map<PredId, ConstraintSet> edb;
  edb[e] = ConstraintSet::Of(Conj({Atom({{1, 1}}, -9, CmpOp::kLe)}));
  auto result = GenPredicateConstraints(p, edb, {});
  ASSERT_TRUE(result.ok());
  ConstraintSet q = SetOf("", p, *result, "q");
  EXPECT_TRUE(q.EquivalentTo(edb[e]));
}

TEST(PredicateConstraintsTest, UnreachableDerivedStaysFalse) {
  // A derived predicate defined only from another derived predicate with
  // no base case has the empty model: minimum predicate constraint false.
  Program p = ParseOrDie("loop(X) :- loop(X).\n");
  auto result = GenPredicateConstraints(p, {}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_TRUE(SetOf("", p, *result, "loop").is_false());
}

TEST(PredicateConstraintsTest, FibDivergesAndWidensToTrue) {
  // Theorem 3.1 territory: fib's minimum predicate constraint has no finite
  // representation; the procedure must cap and widen to `true`.
  Program p = ParseOrDie(
      "fib(0, 1).\n"
      "fib(1, 1).\n"
      "fib(N, X1 + X2) :- N > 1, fib(N - 1, X1), fib(N - 2, X2).\n");
  InferenceOptions options;
  options.max_iterations = 8;
  options.max_disjuncts = 8;
  auto result = GenPredicateConstraints(p, {}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->converged);
  EXPECT_TRUE(SetOf("", p, *result, "fib").IsTriviallyTrue());
}

TEST(PredicateConstraintsTest, PredStepIsExactWhereTheIterationConverges) {
  // The pred step widens only past kExactIterationBudget, so wherever the
  // paper's exact iteration converges it must rewrite exactly as
  // propagating GenPredicateConstraints' result does. Covers every corpus
  // program but fib (which diverges) and the first 50 generated programs.
  std::vector<std::pair<std::string, Program>> programs;
  for (const auto& entry :
       std::filesystem::directory_iterator(CQLOPT_PROGRAMS_DIR)) {
    if (entry.path().extension() != ".cql" ||
        entry.path().filename() == "fib.cql") {
      continue;
    }
    std::ifstream file(entry.path());
    std::stringstream text;
    text << file.rdbuf();
    programs.emplace_back(entry.path().filename().string(),
                          ParseOrDie(text.str()));
  }
  for (uint64_t i = 0; i < 50; ++i) {
    programs.emplace_back(
        "generated-" + std::to_string(i),
        testing::GenerateCase(testing::Rng::DeriveSeed(20240611, i), {})
            .program);
  }
  int compared = 0;
  for (const auto& [name, program] : programs) {
    auto exact = GenPredicateConstraints(program, {}, {});
    ASSERT_TRUE(exact.ok()) << name;
    if (!exact->converged) continue;
    auto expected = PropagateGivenConstraints(program, exact->constraints);
    auto actual = PropagatePredicateConstraints(program, {}, {}, nullptr);
    ASSERT_TRUE(expected.ok()) << name;
    ASSERT_TRUE(actual.ok()) << name;
    EXPECT_EQ(RenderProgram(*actual), RenderProgram(*expected)) << name;
    ++compared;
  }
  EXPECT_EQ(compared, static_cast<int>(programs.size()));
}

TEST(PredicateConstraintsTest, PropagationAddsBodyConstraints) {
  Program p = ParseOrDie(
      "r1: q(T) :- flight(T), T <= 240.\n"
      "r3: flight(T) :- singleleg(T), T > 0.\n"
      "r4: flight(T) :- flight(T1), flight(T2), T = T1 + T2 + 30.\n");
  InferenceResult inference;
  auto out = PropagatePredicateConstraints(p, {}, {}, &inference);
  ASSERT_TRUE(out.ok());
  // The recursive rule's body flight occurrences now carry T1 > 0, T2 > 0.
  bool found = false;
  for (const Rule& rule : out->rules) {
    if (rule.body.size() == 2) {
      Conjunction lower;
      ASSERT_TRUE(
          lower.AddLinear(Atom({{rule.body[0].args[0], -1}}, 0, CmpOp::kLt))
              .ok());
      // Check rule constraints imply body-arg > 0.
      found = true;
      EXPECT_TRUE(Implies(rule.constraints, lower))
          << RenderRule(rule, *p.symbols);
    }
  }
  EXPECT_TRUE(found);
}

TEST(PredicateConstraintsTest, PropagationCreatesCopiesPerDisjunct) {
  // Two-disjunct predicate constraint on a body literal doubles the rule
  // (footnote 4).
  Program p = ParseOrDie(
      "a(X) :- b(X), X <= 0.\n"
      "a(X) :- b(X), X >= 10.\n"
      "use(X) :- a(X).\n");
  auto out = PropagatePredicateConstraints(p, {}, {}, nullptr);
  ASSERT_TRUE(out.ok());
  int use_rules = 0;
  PredId use = p.symbols->LookupPredicate("use");
  for (const Rule& rule : out->rules) {
    if (rule.head.pred == use) ++use_rules;
  }
  EXPECT_EQ(use_rules, 2);
}

TEST(PredicateConstraintsTest, GivenConstraintsPropagated) {
  // The Table 2 mechanism: caller-supplied fib: $2 >= 1.
  Program p = ParseOrDie(
      "r3: fib(N, X) :- fib(N - 1, X1), fib(N - 2, X2), N > 1, "
      "X = X1 + X2.\n");
  PredId fib = p.symbols->LookupPredicate("fib");
  std::map<PredId, ConstraintSet> given;
  given[fib] = ConstraintSet::Of(Conj({Atom({{2, -1}}, 1, CmpOp::kLe)}));
  auto out = PropagateGivenConstraints(p, given);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->rules.size(), 1u);
  const Rule& rule = out->rules[0];
  // X1 >= 1 and X2 >= 1 must now be implied by the rule constraints.
  for (const Literal& lit : rule.body) {
    Conjunction ge1;
    ASSERT_TRUE(
        ge1.AddLinear(Atom({{lit.args[1], -1}}, 1, CmpOp::kLe)).ok());
    EXPECT_TRUE(Implies(rule.constraints, ge1));
  }
}

TEST(PredicateConstraintsTest, BodyPredicateWithFalseConstraintDropsRule) {
  Program p = ParseOrDie(
      "dead(X) :- dead(X).\n"
      "q(X) :- dead(X).\n"
      "q(X) :- e(X).\n");
  auto out = PropagatePredicateConstraints(p, {}, {}, nullptr);
  ASSERT_TRUE(out.ok());
  PredId q = p.symbols->LookupPredicate("q");
  int q_rules = 0;
  for (const Rule& rule : out->rules) {
    if (rule.head.pred == q) ++q_rules;
  }
  EXPECT_EQ(q_rules, 1);  // the dead-body rule vanished
}

}  // namespace
}  // namespace cqlopt
