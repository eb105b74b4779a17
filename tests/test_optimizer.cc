// The library's documented API path (README "Minimal API use"): parse a
// program with ParseProgram, a further query with ParseQueryText, rewrite
// with ParseSteps + ApplyPipeline, evaluate with Evaluate and read the
// answers with QueryAnswers.

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "core/equivalence.h"
#include "transform/pipeline.h"

namespace cqlopt {
namespace {

const char* kProgram =
    "r1: q(X, Y) :- t(X, Y), X <= 4.\n"
    "t(X, Y) :- e(X, Y).\n"
    "t(X, Y) :- e(X, Z), t(Z, Y).\n"
    "?- q(1, Y).\n";

TEST(ApiPathTest, ParseQueryTextInternsIntoTheProgramsTable) {
  auto parsed = ParseProgram(kProgram);
  ASSERT_TRUE(parsed.ok());
  auto query = ParseQueryText("?- t(2, Y).", &parsed->program);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->literal.pred,
            parsed->program.symbols->LookupPredicate("t"));
}

TEST(ApiPathTest, RewriteEvaluateAnswerLoop) {
  auto parsed = ParseProgram(kProgram);
  ASSERT_TRUE(parsed.ok());
  Database db;
  auto add = [&](int a, int b) {
    ASSERT_TRUE(db.AddGroundFact(parsed->program.symbols.get(), "e",
                                 {Database::Value::Number(Rational(a)),
                                  Database::Value::Number(Rational(b))})
                    .ok());
  };
  add(1, 2);
  add(2, 3);
  add(7, 8);
  auto steps = ParseSteps("pred,qrp,mg");
  ASSERT_TRUE(steps.ok());
  auto rewritten =
      ApplyPipeline(parsed->program, parsed->queries[0], *steps, {});
  ASSERT_TRUE(rewritten.ok());
  auto run = Evaluate(rewritten->program, db, {});
  ASSERT_TRUE(run.ok());
  auto answers = QueryAnswers(*run, rewritten->query);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 2u);  // q(1,2), q(1,3)
}

}  // namespace
}  // namespace cqlopt
