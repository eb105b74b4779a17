#include "ast/normalize.h"

#include <gtest/gtest.h>

#include "ast/parser.h"

namespace cqlopt {
namespace {

TEST(NormalizeTest, MakeAllocatorAboveProgramVars) {
  auto parsed = ParseProgram("q(X, Y) :- e(X, Y).");
  ASSERT_TRUE(parsed.ok());
  VarAllocator alloc = MakeAllocator(parsed->program);
  VarId fresh = alloc.Fresh();
  EXPECT_GT(fresh, parsed->program.MaxVar());
}

TEST(NormalizeTest, BridgeRuleShape) {
  VarAllocator alloc(5000);
  Rule bridge = MakeBridgeRule(7, 3, 2, &alloc, "q1");
  EXPECT_EQ(bridge.head.pred, 7);
  EXPECT_EQ(bridge.head.arity(), 2);
  ASSERT_EQ(bridge.body.size(), 1u);
  EXPECT_EQ(bridge.body[0].pred, 3);
  EXPECT_EQ(bridge.head.args, bridge.body[0].args);
  EXPECT_TRUE(bridge.constraints.IsSatisfiable());
  EXPECT_EQ(bridge.label, "q1");
}

TEST(NormalizeTest, RangeRestrictedSimpleRules) {
  auto parsed = ParseProgram(
      "q(X, Y) :- e(X, Y).\n"
      "p(X) :- e(X, Y), X <= 4.\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(IsRangeRestricted(parsed->program));
}

TEST(NormalizeTest, HeadVarWithoutBodyOccurrenceNotRangeRestricted) {
  auto parsed = ParseProgram("q(X, Y) :- e(X), Y >= 3.");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(IsRangeRestricted(parsed->program));
}

TEST(NormalizeTest, ArithmeticDeterminationCountsAsRestricted) {
  // T = T1 + T2 + 30 grounds T once T1, T2 are ground (paper's r4).
  auto parsed = ParseProgram(
      "f(S, D, T) :- f(S, D1, T1), f(D1, D, T2), T = T1 + T2 + 30.");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(IsRangeRestricted(parsed->program));
}

TEST(NormalizeTest, ConstantHeadArgIsGround) {
  auto parsed = ParseProgram("fib(0, 1).");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(IsRangeRestricted(parsed->program));
}

TEST(NormalizeTest, UnboundedConstraintFactNotRangeRestricted) {
  // m_fib(N, 5). leaves N free: a genuine constraint fact.
  auto parsed = ParseProgram("m_fib(N, 5).");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(IsRangeRestricted(parsed->program));
}

TEST(NormalizeTest, SymbolBoundHeadArgIsGround) {
  auto parsed = ParseProgram("hub(madison).");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(IsRangeRestricted(parsed->program));
}

TEST(NormalizeTest, RuleCanonicalKeyAlphaEquivalence) {
  auto a = ParseProgram("q(X, Y) :- e(X, Y), X <= 4.");
  auto b = ParseProgram("q(U, V) :- e(U, V), U <= 4.");
  ASSERT_TRUE(a.ok() && b.ok());
  // Different var ids and names, same structure: keys must match when the
  // predicates are interned identically.
  auto shared = ParseProgram(
      "q(X, Y) :- e(X, Y), X <= 4.\n"
      "q(U, V) :- e(U, V), U <= 4.\n");
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(RuleCanonicalKey(shared->program.rules[0]),
            RuleCanonicalKey(shared->program.rules[1]));
}

TEST(NormalizeTest, RuleCanonicalKeyDistinguishesConstraints) {
  auto shared = ParseProgram(
      "q(X, Y) :- e(X, Y), X <= 4.\n"
      "q(U, V) :- e(U, V), U <= 5.\n");
  ASSERT_TRUE(shared.ok());
  EXPECT_NE(RuleCanonicalKey(shared->program.rules[0]),
            RuleCanonicalKey(shared->program.rules[1]));
}

TEST(NormalizeTest, DeduplicateRulesRemovesCopies) {
  auto shared = ParseProgram(
      "q(X, Y) :- e(X, Y), X <= 4.\n"
      "q(U, V) :- e(U, V), U <= 4.\n"
      "q(A, B) :- f(A, B).\n");
  ASSERT_TRUE(shared.ok());
  Program program = shared->program;
  EXPECT_EQ(DeduplicateRules(&program), 1);
  EXPECT_EQ(program.rules.size(), 2u);
}

}  // namespace
}  // namespace cqlopt
