// Tests for per-query resource governance (seminaive.h EvalOptions):
// wall-clock deadlines, cooperative cancellation, the derived-fact budget,
// and how governed aborts surface — typed Status codes, position-annotated
// messages, partial stats via abort_stats, and a query service that keeps
// serving after a governed (or injected) evaluation failure.

#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "eval/seminaive.h"
#include "service/query_service.h"
#include "util/failpoint.h"

namespace cqlopt {
namespace {

Program ParseOrDie(const std::string& text) {
  auto parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed->program;
}

/// The unbounded counter — Table 1's divergence in miniature. Evaluation
/// never reaches a fixpoint, so only a governance limit (or the iteration
/// cap) can stop it.
Program Counter() { return ParseOrDie("c(0).\nc(X + 1) :- c(X).\n"); }

EvalOptions Governed(EvalStrategy strategy = EvalStrategy::kStratified) {
  EvalOptions options;
  options.strategy = strategy;
  options.max_iterations = 1000000;
  return options;
}

TEST(GovernanceTest, FactBudgetAbortsWithResourceExhausted) {
  Program p = Counter();
  EvalOptions options = Governed();
  options.max_derived_facts = 10;
  EvalStats partial;
  options.abort_stats = &partial;
  auto result = Evaluate(p, Database(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("derived-fact budget of 10"),
            std::string::npos)
      << result.status().message();
  // The abort is position-annotated and the partial stats surfaced.
  EXPECT_NE(result.status().message().find("global iteration"),
            std::string::npos);
  EXPECT_NE(result.status().message().find("facts stored"),
            std::string::npos);
  EXPECT_TRUE(partial.aborted);
  EXPECT_FALSE(partial.abort_point.empty());
  EXPECT_GT(partial.inserted, 10);
}

TEST(GovernanceTest, FactBudgetAbortKeepsPerRuleCountsWhole) {
  // Each rule application adds its derivations to derivations_per_rule
  // once, when it ends; the partial stats of an abort still account for
  // every derivation, rule by rule.
  Program p = ParseOrDie(
      "c(0).\nc(X + 1) :- c(X).\nd(X) :- c(X).\ne(X) :- d(X), X > 2.\n");
  EvalOptions options = Governed(EvalStrategy::kSemiNaive);
  options.max_derived_facts = 10;
  EvalStats partial;
  options.abort_stats = &partial;
  auto result = Evaluate(p, Database(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(partial.aborted);
  EXPECT_GT(partial.derivations, 10);
  EXPECT_EQ(partial.derivations_per_rule.size(), 4u);
  long per_rule = 0;
  for (const auto& [rule, n] : partial.derivations_per_rule) per_rule += n;
  EXPECT_EQ(per_rule, partial.derivations);
}

TEST(GovernanceTest, DeadlineAbortsADivergingEvaluation) {
  Program p = Counter();
  EvalOptions options = Governed();
  options.deadline_ms = 5;
  auto result = Evaluate(p, Database(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("wall-clock deadline of 5ms"),
            std::string::npos)
      << result.status().message();
}

TEST(GovernanceTest, PreCancelledTokenAbortsImmediately) {
  Program p = Counter();
  EvalOptions options = Governed();
  options.cancel = CancelToken::Cancellable();
  options.cancel.RequestCancel();
  auto result = Evaluate(p, Database(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(GovernanceTest, CancelFromAnotherThreadAborts) {
  Program p = Counter();
  EvalOptions options = Governed();
  options.cancel = CancelToken::Cancellable();
  CancelToken token = options.cancel;
  std::thread killer([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    token.RequestCancel();
  });
  auto result = Evaluate(p, Database(), options);
  killer.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(GovernanceTest, LimitsOffMeansUnlimited) {
  // All limits default to off: a converging program is untouched, and its
  // stats carry no abort marker.
  Program p = ParseOrDie("t(X, Y) :- e(X, Y).\n");
  Database edb;
  ASSERT_TRUE(edb.AddGroundFact(p.symbols.get(), "e",
                                {Database::Value::Number(Rational(1)),
                                 Database::Value::Number(Rational(2))})
                  .ok());
  auto result = Evaluate(p, edb, Governed());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->stats.reached_fixpoint);
  EXPECT_FALSE(result->stats.aborted);
  EXPECT_TRUE(result->stats.abort_point.empty());
}

TEST(GovernanceTest, NegativeLimitsAreRejected) {
  Program p = Counter();
  EvalOptions bad_deadline = Governed();
  bad_deadline.deadline_ms = -1;
  EXPECT_EQ(Evaluate(p, Database(), bad_deadline).status().code(),
            StatusCode::kInvalidArgument);
  EvalOptions bad_budget = Governed();
  bad_budget.max_derived_facts = -5;
  EXPECT_EQ(Evaluate(p, Database(), bad_budget).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GovernanceTest, ResumeRefusalPinpointsTheAbort) {
  // Resuming an aborted base must fail with the abort position, not a bare
  // precondition — the message is the operator's breadcrumb.
  Program p = Counter();
  EvalOptions options = Governed();
  options.max_derived_facts = 10;
  EvalStats partial;
  options.abort_stats = &partial;
  ASSERT_FALSE(Evaluate(p, Database(), options).ok());

  // Rebuild a base EvalResult carrying the aborted stats, as a caller
  // holding the abort_stats of a failed materialization would see it.
  EvalResult base;
  base.stats = partial;
  auto resumed = ResumeEvaluate(p, std::move(base), {}, Governed());
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(resumed.status().message().find("was aborted at"),
            std::string::npos)
      << resumed.status().message();
  EXPECT_NE(resumed.status().message().find("re-evaluate from scratch"),
            std::string::npos);
}

TEST(GovernanceTest, ResumeRefusalOnCappedBaseNamesTheIteration) {
  Program p = Counter();
  EvalOptions capped = Governed();
  capped.max_iterations = 3;
  auto base = Evaluate(p, Database(), capped);
  ASSERT_TRUE(base.ok());
  ASSERT_FALSE(base->stats.reached_fixpoint);
  auto resumed = ResumeEvaluate(p, std::move(*base), {}, Governed());
  ASSERT_FALSE(resumed.ok());
  EXPECT_NE(resumed.status().message().find(
                "hit its iteration cap at global iteration 3"),
            std::string::npos)
      << resumed.status().message();
  EXPECT_NE(resumed.status().message().find("facts stored"),
            std::string::npos);
}

/// A converging counter seeded from the EDB: from s(0) the base stores
/// c(0) up to c(20) in 22 global iterations (21 that store a fact, 1 that
/// confirms the fixpoint). A resumed batch s(-k) then climbs from c(-k)
/// back to the duplicate c(0) one fact per iteration, so it takes k + 1
/// resumed iterations.
Program BoundedCounter() {
  return ParseOrDie("c(X) :- s(X).\nc(X + 1) :- c(X), X < 20.\n");
}

Fact SeedFact(const Program& p, long value) {
  Database staged;
  EXPECT_TRUE(staged
                  .AddGroundFact(p.symbols.get(), "s",
                                 {Database::Value::Number(Rational(value))})
                  .ok());
  return staged.Find(p.symbols->LookupPredicate("s"))->fact(0);
}

EvalResult BoundedCounterBase(const Program& p) {
  Database edb;
  edb.AddFact(SeedFact(p, 0));
  auto base = Evaluate(p, edb, Governed());
  EXPECT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_TRUE(base->stats.reached_fixpoint);
  EXPECT_EQ(base->stats.iterations, 22);
  EXPECT_EQ(base->stats.inserted, 21);
  return std::move(*base);
}

TEST(GovernanceTest, ResumedFactBudgetCountsOnlyResumedFacts) {
  Program p = BoundedCounter();
  EvalResult base = BoundedCounterBase(p);
  EvalOptions options = Governed();
  options.max_derived_facts = 10;  // below the base's own 21 facts
  EvalStats partial;
  options.abort_stats = &partial;
  auto resumed = ResumeEvaluate(p, std::move(base), {SeedFact(p, -50)},
                                options);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kResourceExhausted);
  // The batch is stamped 22 and resumed iterations start at 23; the 11th
  // resumed fact, stored in global iteration 33, breaks the budget.
  EXPECT_NE(resumed.status().message().find(
                "11 facts stored by this call"),
            std::string::npos)
      << resumed.status().message();
  EXPECT_NE(resumed.status().message().find("global iteration 33"),
            std::string::npos)
      << resumed.status().message();
  EXPECT_TRUE(partial.aborted);
  EXPECT_NE(partial.abort_point.find("global iteration 33"),
            std::string::npos)
      << partial.abort_point;
  EXPECT_FALSE(partial.reached_fixpoint);
  EXPECT_EQ(partial.inserted, 21 + 11);
  EXPECT_EQ(partial.iterations, 34);
}

TEST(GovernanceTest, ResumeIterationCapCountsResumedIterationsOnly) {
  Program p = BoundedCounter();
  // s(-3) takes four resumed iterations (c(-3), c(-2), c(-1), then the
  // duplicate c(0)): a cap of 8 is far below the base's 22 global
  // iterations but leaves room for all four.
  EvalOptions options = Governed();
  options.max_iterations = 8;
  auto resumed = ResumeEvaluate(p, BoundedCounterBase(p),
                                {SeedFact(p, -3)}, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->stats.reached_fixpoint);
  EXPECT_EQ(resumed->stats.iterations, 27);
  EXPECT_EQ(resumed->stats.inserted, 24);
  // The resumed run appends one entry to the base's.
  EXPECT_EQ(resumed->stats.scc_iterations, (std::vector<long>{22, 4}));

  // A cap of 2 stops the same resume short of its fixpoint.
  options.max_iterations = 2;
  auto capped = ResumeEvaluate(p, BoundedCounterBase(p),
                               {SeedFact(p, -3)}, options);
  ASSERT_TRUE(capped.ok()) << capped.status().ToString();
  EXPECT_FALSE(capped->stats.reached_fixpoint);
  EXPECT_EQ(capped->stats.iterations, 25);
}

TEST(GovernanceTest, ResumeWithMaximalIterationCapDoesNotOverflow) {
  // The absolute bound is the resume's first iteration plus the cap; with
  // INT_MAX it saturates instead of overflowing.
  Program p = BoundedCounter();
  EvalOptions options = Governed();
  options.max_iterations = std::numeric_limits<int>::max();
  auto resumed = ResumeEvaluate(p, BoundedCounterBase(p),
                                {SeedFact(p, -3)}, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->stats.reached_fixpoint);
  EXPECT_EQ(resumed->stats.iterations, 27);
}

TEST(GovernanceTest, ServiceMapsBudgetAbortToTypedErrorAndKeepsServing) {
  ServiceOptions options;
  options.eval.max_derived_facts = 2;
  options.eval.max_iterations = 1000000;
  auto service = QueryService::FromText("c(0).\nc(X + 1) :- c(X).\n", "",
                                        options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto denied = (*service)->Execute("?- c(X).", "");
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ((*service)->Stats().governed_aborts, 1);

  // The abort poisoned nothing: ingest still commits, a second attempt
  // fails identically (deterministic budget), and the error stays typed.
  ASSERT_TRUE((*service)->Ingest("seed(1).\n").ok());
  auto again = (*service)->Execute("?- c(X).", "");
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ((*service)->Stats().governed_aborts, 2);
}

TEST(GovernanceTest, ServiceRecoversAfterInjectedAllocFailure) {
  auto service = QueryService::FromText(
      "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, Z), t(Z, Y).\n",
      "e(1, 2).\ne(2, 3).\n", {});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  failpoint::Arm(failpoint::kEvalRuleAlloc);
  auto denied = (*service)->Execute("?- t(1, Y).", "");
  failpoint::DisarmAll();
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(denied.status().message().find("injected allocation failure"),
            std::string::npos)
      << denied.status().message();

  // The same query succeeds once the fault clears — the failed evaluation
  // left no half-materialized entry behind.
  auto served = (*service)->Execute("?- t(1, Y).", "");
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->answers.size(), 2u);
  EXPECT_EQ((*service)->Stats().governed_aborts, 1);
}

}  // namespace
}  // namespace cqlopt
