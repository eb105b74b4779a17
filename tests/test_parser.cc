#include "ast/parser.h"

#include <string>

#include <gtest/gtest.h>

#include "ast/lexer.h"
#include "ast/printer.h"

namespace cqlopt {
namespace {

TEST(LexerViaParserTest, RejectsUnknownCharacters) {
  auto result = ParseProgram("p(X) :- q(X) & r(X).");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(ParserTest, SimpleRuleAndLabel) {
  auto result = ParseProgram("r1: q(X, Y) :- e(X, Y).");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->program.rules.size(), 1u);
  const Rule& r = result->program.rules[0];
  EXPECT_EQ(r.label, "r1");
  EXPECT_EQ(r.body.size(), 1u);
  EXPECT_EQ(r.head.arity(), 2);
  EXPECT_TRUE(r.constraints.IsSatisfiable());
}

TEST(ParserTest, LabelIsOptional) {
  auto result = ParseProgram("q(X) :- e(X).");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->program.rules[0].label.empty());
}

TEST(ParserTest, ConstraintsCollectIntoConjunction) {
  auto result = ParseProgram("q(X, Y) :- e(X, Y), X <= 4, Y > 2 * X + 1.");
  ASSERT_TRUE(result.ok());
  const Rule& r = result->program.rules[0];
  EXPECT_EQ(r.body.size(), 1u);
  EXPECT_EQ(r.constraints.linear().size(), 2u);
}

TEST(ParserTest, AllComparisonOperatorsAccepted) {
  auto result = ParseProgram(
      "q(A, B, C, D, E) :- e(A, B, C, D, E), A < 1, B <= 2, C > 3, D >= 4, "
      "E = 5.");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->program.rules[0].constraints.linear().size(), 5u);
}

TEST(ParserTest, ConstantArgumentsBecomeConstraints) {
  // fib(0, 1). has numeric constants normalized into equality constraints.
  auto result = ParseProgram("fib(0, 1).");
  ASSERT_TRUE(result.ok());
  const Rule& r = result->program.rules[0];
  EXPECT_TRUE(r.IsConstraintFact());
  EXPECT_EQ(r.head.arity(), 2);
  EXPECT_EQ(r.constraints.GetNumericValue(r.head.args[0]),
            std::optional<Rational>(Rational(0)));
  EXPECT_EQ(r.constraints.GetNumericValue(r.head.args[1]),
            std::optional<Rational>(Rational(1)));
}

TEST(ParserTest, ArithmeticArgumentsFlattened) {
  // fib(N - 1, X1) introduces a fresh variable V with V = N - 1.
  auto result = ParseProgram("p(N) :- fib(N - 1, X1), N > 1.");
  ASSERT_TRUE(result.ok());
  const Rule& r = result->program.rules[0];
  const Literal& fib = r.body[0];
  EXPECT_NE(fib.args[0], r.head.args[0]);  // fresh var, not N
  // The constraint store must tie them: fresh = N - 1.
  bool found = false;
  for (const LinearConstraint& atom : r.constraints.linear()) {
    if (atom.op() == CmpOp::kEq && atom.Vars().size() == 2) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ParserTest, SymbolicConstantsBindFreshVars) {
  auto result = ParseProgram("origin(madison) :- hub(madison).");
  ASSERT_TRUE(result.ok());
  const Rule& r = result->program.rules[0];
  EXPECT_TRUE(r.constraints.GetSymbol(r.head.args[0]).has_value());
}

TEST(ParserTest, SymbolEqualityConstraint) {
  auto result = ParseProgram("q(X) :- e(X), X = madison.");
  ASSERT_TRUE(result.ok());
  const Rule& r = result->program.rules[0];
  EXPECT_TRUE(r.constraints.GetSymbol(r.head.args[0]).has_value());
}

TEST(ParserTest, SymbolInequalityRejected) {
  auto result = ParseProgram("q(X) :- e(X), X <= madison.");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, NonlinearProductRejected) {
  auto result = ParseProgram("q(X, Y) :- e(X, Y), X * Y <= 4.");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(ParserTest, ScalarMultiplicationAllowed) {
  auto result = ParseProgram("q(X) :- e(X), 2 * X <= 4, X * 3 >= 1.");
  EXPECT_TRUE(result.ok());
}

TEST(ParserTest, ArityMismatchRejected) {
  auto result = ParseProgram("q(X) :- e(X, Y).  p(Z) :- e(Z).");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParserTest, QueriesParsedSeparately) {
  auto result = ParseProgram(
      "q(X, Y) :- e(X, Y).\n"
      "?- q(madison, Y), Y <= 4.\n");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->queries.size(), 1u);
  const Query& query = result->queries[0];
  EXPECT_TRUE(query.constraints.GetSymbol(query.literal.args[0]).has_value());
}

TEST(ParserTest, QueryMustHaveOneLiteral) {
  EXPECT_FALSE(ParseProgram("?- X <= 4.").ok());
  EXPECT_FALSE(ParseProgram("e(1,2). ?- e(X, Y), e(Y, Z).").ok());
}

TEST(ParserTest, CommentsIgnored) {
  auto result = ParseProgram(
      "% a comment\n"
      "q(X) :- e(X).  // another\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->program.rules.size(), 1u);
}

TEST(ParserTest, DeepParenthesesRejectedWithLine) {
  // 100k levels would overflow the recursive descent's stack.
  std::string expr =
      std::string(100000, '(') + "1" + std::string(100000, ')');
  auto result = ParseProgram("e(1).\n?- e(X), X = " + expr + ".");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find("nested deeper than"),
            std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("at line 2"), std::string::npos)
      << result.status().message();
}

TEST(ParserTest, DeepUnaryMinusRejectedWithLine) {
  auto result = ParseProgram("e(1).\n?- e(X), X = " +
                             std::string(100000, '-') + "1.");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find("nested deeper than"),
            std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("at line 2"), std::string::npos)
      << result.status().message();
}

TEST(ParserTest, ModerateNestingAccepted) {
  auto result = ParseProgram("q(X) :- e(X), X <= " + std::string(200, '(') +
                             "-(-2)" + std::string(200, ')') + ".");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(LexerViaParserTest, OverlongNumeralRejected) {
  auto result =
      ParseProgram("q(X) :- e(X), X <= " + std::string(100000, '7') + ".");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find("exceeds the limit"),
            std::string::npos)
      << result.status().message().substr(0, 200);
  // The message names the numeral's length, not its text.
  EXPECT_LT(result.status().message().size(), 200u);
  // A numeral at the limit still parses.
  EXPECT_TRUE(ParseProgram("q(X) :- e(X), X <= " +
                           std::string(kMaxNumeralLength, '7') + ".")
                  .ok());
}

TEST(ParserTest, DecimalNumbers) {
  auto result = ParseProgram("q(X) :- e(X), X <= 2.5.");
  ASSERT_TRUE(result.ok());
}

TEST(ParserTest, PrimedPredicateNamesAllowed) {
  auto result = ParseProgram("flight'(X) :- flight(X).");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->program.symbols->PredicateName(
                result->program.rules[0].head.pred),
            "flight'");
}

TEST(ParserTest, VariablesScopedPerRule) {
  auto result = ParseProgram("a(X) :- e(X). b(X) :- f(X).");
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->program.rules[0].head.args[0],
            result->program.rules[1].head.args[0]);
}

TEST(ParserTest, RuleVariableIdsAboveArgumentPositions) {
  auto result = ParseProgram("q(X, Y) :- e(X, Y).");
  ASSERT_TRUE(result.ok());
  for (VarId v : result->program.rules[0].Vars()) EXPECT_GE(v, 1024);
}

TEST(ParserTest, ParseQueryTextChecksArity) {
  auto parsed = ParseProgram("q(X, Y) :- e(X, Y).");
  ASSERT_TRUE(parsed.ok());
  Program program = parsed->program;
  EXPECT_TRUE(ParseQueryText("?- q(1, Y).", &program).ok());
  EXPECT_FALSE(ParseQueryText("?- q(1).", &program).ok());
}

TEST(ParserTest, RoundTripThroughPrinter) {
  const char* text =
      "r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), "
      "flight(D1, D, T2, C2), T = T1 + T2 + 30, C = C1 + C2.";
  auto first = ParseProgram(text);
  ASSERT_TRUE(first.ok());
  std::string rendered = RenderProgram(first->program);
  auto second = ParseProgram(rendered);
  ASSERT_TRUE(second.ok()) << rendered;
  EXPECT_EQ(RenderProgram(second->program), rendered);
}

}  // namespace
}  // namespace cqlopt
