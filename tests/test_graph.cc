#include "graph/dependency_graph.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "graph/scc.h"

namespace cqlopt {
namespace {

Program ParseOrDie(const std::string& text) {
  auto parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed->program;
}

TEST(DependencyGraphTest, EdgesFollowRuleBodies) {
  Program p = ParseOrDie(
      "q(X) :- a(X).\n"
      "a(X) :- b(X), c(X).\n");
  DependencyGraph g(p);
  PredId q = p.symbols->LookupPredicate("q");
  PredId a = p.symbols->LookupPredicate("a");
  PredId b = p.symbols->LookupPredicate("b");
  EXPECT_EQ(g.SuccessorsOf(q).count(a), 1u);
  EXPECT_EQ(g.SuccessorsOf(a).count(b), 1u);
  EXPECT_TRUE(g.SuccessorsOf(b).empty());
}

TEST(DependencyGraphTest, ReachableFromQuery) {
  Program p = ParseOrDie(
      "q(X) :- a(X).\n"
      "a(X) :- b(X).\n"
      "orphan(X) :- c(X).\n");
  DependencyGraph g(p);
  PredId q = p.symbols->LookupPredicate("q");
  auto reachable = g.ReachableFrom(q);
  EXPECT_EQ(reachable.count(p.symbols->LookupPredicate("b")), 1u);
  EXPECT_EQ(reachable.count(p.symbols->LookupPredicate("orphan")), 0u);
}

TEST(DependencyGraphTest, MutualRecursionDetected) {
  Program p = ParseOrDie(
      "even(X) :- odd(Y), X = Y + 1.\n"
      "odd(X) :- even(Y), X = Y + 1.\n"
      "even(Z) :- zero(Z).\n");
  DependencyGraph g(p);
  PredId even = p.symbols->LookupPredicate("even");
  PredId odd = p.symbols->LookupPredicate("odd");
  PredId zero = p.symbols->LookupPredicate("zero");
  SccDecomposition scc(g);
  EXPECT_EQ(scc.ComponentOf(even), scc.ComponentOf(odd));
  EXPECT_NE(scc.ComponentOf(even), scc.ComponentOf(zero));
}

TEST(SccTest, ComponentsReverseTopological) {
  Program p = ParseOrDie(
      "q(X) :- a(X).\n"
      "a(X) :- a(X), b(X).\n"
      "b(X) :- e(X).\n");
  DependencyGraph g(p);
  SccDecomposition scc(g);
  PredId q = p.symbols->LookupPredicate("q");
  PredId a = p.symbols->LookupPredicate("a");
  PredId b = p.symbols->LookupPredicate("b");
  // Reverse topological: dependency components come before dependents.
  EXPECT_LT(scc.ComponentOf(b), scc.ComponentOf(a));
  EXPECT_LT(scc.ComponentOf(a), scc.ComponentOf(q));
}

TEST(SccTest, RecursiveGroupIsOneComponent) {
  Program p = ParseOrDie(
      "x(A) :- y(A).\n"
      "y(A) :- x(A).\n"
      "x(A) :- base(A).\n");
  DependencyGraph g(p);
  SccDecomposition scc(g);
  EXPECT_EQ(scc.ComponentOf(p.symbols->LookupPredicate("x")),
            scc.ComponentOf(p.symbols->LookupPredicate("y")));
}

TEST(SccTest, TopDownFromStartsAtQueryScc) {
  Program p = ParseOrDie(
      "q(X) :- a(X).\n"
      "a(X) :- a(X), b(X).\n"
      "b(X) :- e(X).\n"
      "unrelated(X) :- f(X).\n");
  DependencyGraph g(p);
  SccDecomposition scc(g);
  PredId q = p.symbols->LookupPredicate("q");
  auto order = scc.TopDownFrom(q, g);
  ASSERT_FALSE(order.empty());
  EXPECT_EQ(order.front(), std::vector<PredId>{q});
  for (const auto& component : order) {
    for (PredId pred : component) {
      EXPECT_NE(pred, p.symbols->LookupPredicate("unrelated"));
    }
  }
}

TEST(SccTest, SelfLoopSingletonComponent) {
  Program p = ParseOrDie("t(X, Y) :- t(X, Z), t(Z, Y).\n t(X, Y) :- e(X, Y).");
  DependencyGraph g(p);
  SccDecomposition scc(g);
  PredId t = p.symbols->LookupPredicate("t");
  PredId e = p.symbols->LookupPredicate("e");
  EXPECT_NE(scc.ComponentOf(t), scc.ComponentOf(e));
}

TEST(SccTest, DeepChainNoStackOverflow) {
  // 2000-predicate chain exercises the iterative Tarjan.
  std::string text;
  for (int i = 0; i < 2000; ++i) {
    text += "p" + std::to_string(i) + "(X) :- p" + std::to_string(i + 1) +
            "(X).\n";
  }
  Program p = ParseOrDie(text);
  DependencyGraph g(p);
  SccDecomposition scc(g);
  EXPECT_EQ(scc.components().size(), 2001u);
}

}  // namespace
}  // namespace cqlopt
