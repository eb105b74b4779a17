#include "transform/pipeline.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "ast/parser.h"
#include "core/equivalence.h"
#include "core/workload.h"
#include "eval/seminaive.h"

namespace cqlopt {
namespace {

struct Parsed {
  Program program;
  Query query;
};

Parsed ParseWithQuery(const std::string& text) {
  auto parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->queries.size(), 1u);
  return Parsed{parsed->program, parsed->queries[0]};
}

TEST(PipelineTest, ParseStepsRoundTrip) {
  auto steps = ParseSteps("pred,qrp,mg");
  ASSERT_TRUE(steps.ok());
  ASSERT_EQ(steps->size(), 3u);
  EXPECT_EQ(StepsName(*steps), "pred,qrp,mg");
  auto spaced = ParseSteps(" mg , qrp ");
  ASSERT_TRUE(spaced.ok());
  EXPECT_EQ(StepsName(*spaced), "mg,qrp");
  EXPECT_TRUE(ParseSteps("balbin").ok());
  EXPECT_FALSE(ParseSteps("bogus").ok());
  EXPECT_EQ(StepsName({}), "(identity)");
}

TEST(PipelineTest, FibPredQrpMgReachesFixpointWithTheAnswer) {
  // fib's exact predicate-constraint inference diverges (Theorem 3.1); the
  // pred step widens it to ($1 >= 0, $2 >= 1), which implies the constraint
  // Table 2 hand-picks, so the magic program under Table 2's left-to-right
  // SIPS terminates on its own.
  std::ifstream file(std::string(CQLOPT_PROGRAMS_DIR) + "/fib.cql");
  std::stringstream text;
  text << file.rdbuf();
  Parsed in = ParseWithQuery(text.str());
  auto steps = ParseSteps("pred,qrp,mg");
  ASSERT_TRUE(steps.ok());
  PipelineOptions options;
  options.magic.sips = SipStrategy::kFullLeftToRight;
  auto rewritten = ApplyPipeline(in.program, in.query, *steps, options);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  auto run = Evaluate(rewritten->program, Database(), {});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->stats.reached_fixpoint);
  auto answers = QueryAnswers(*run, rewritten->query);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->size(), 1u);
  EXPECT_EQ((*answers)[0].ToString(*rewritten->program.symbols), "fib(4, 5)");
}

TEST(PipelineTest, MagicTwiceRejected) {
  Parsed in = ParseWithQuery("t(X) :- e(X). ?- t(1).");
  auto steps = ParseSteps("mg,mg");
  ASSERT_TRUE(steps.ok());
  auto result = ApplyPipeline(in.program, in.query, *steps, {});
  EXPECT_FALSE(result.ok());
}

// The Example 7.1 program: qrp-then-magic beats magic-then-qrp.
const char* kExample71 =
    "r1: q(X, Y) :- a1(X, Y), X <= 4.\n"
    "r2: a1(X, Y) :- b1(X, Z), a2(Z, Y).\n"
    "r3: a2(X, Y) :- b2(X, Y).\n"
    "r4: a2(X, Y) :- b2(X, Z), a2(Z, Y).\n"
    "?- q(X, Y).\n";

// The Example 7.2 program: magic-then-qrp beats qrp-then-magic.
const char* kExample72 =
    "r1: q(X, Y) :- a1(X, Y).\n"
    "r2: a1(X, Y) :- b1(X, Z), X <= 4, a2(Z, Y).\n"
    "r3: a2(X, Y) :- b2(X, Y).\n"
    "r4: a2(X, Y) :- b2(X, Z), a2(Z, Y).\n"
    "?- q(1, Y).\n";

Database Example7Db(SymbolTable* symbols, uint64_t seed) {
  Database db;
  EXPECT_TRUE(AddBinaryRelation(symbols, "b1", 25, 12, seed, &db).ok());
  EXPECT_TRUE(AddBinaryRelation(symbols, "b2", 25, 12, seed + 1, &db).ok());
  return db;
}

TEST(PipelineTest, AllSequencesQueryEquivalent) {
  // Property: every transformation sequence preserves the query answers.
  for (const char* source : {kExample71, kExample72}) {
    Parsed in = ParseWithQuery(source);
    Database db = Example7Db(in.program.symbols.get(), 99);
    auto baseline_run = Evaluate(in.program, db, {});
    ASSERT_TRUE(baseline_run.ok());
    auto baseline = QueryAnswers(*baseline_run, in.query);
    ASSERT_TRUE(baseline.ok());
    for (const char* spec :
         {"qrp", "pred,qrp", "mg", "qrp,mg", "mg,qrp", "pred,qrp,mg",
          "balbin", "balbin,mg"}) {
      auto steps = ParseSteps(spec);
      ASSERT_TRUE(steps.ok());
      auto rewritten = ApplyPipeline(in.program, in.query, *steps, {});
      ASSERT_TRUE(rewritten.ok()) << spec;
      auto run = Evaluate(rewritten->program, db, {});
      ASSERT_TRUE(run.ok()) << spec;
      auto answers = QueryAnswers(*run, rewritten->query);
      ASSERT_TRUE(answers.ok()) << spec;
      EXPECT_TRUE(SameAnswers(*baseline, *answers))
          << source << " under " << spec;
    }
  }
}

size_t TotalFacts(const Parsed& in, const Database& db, const char* spec) {
  auto steps = ParseSteps(spec);
  EXPECT_TRUE(steps.ok());
  auto rewritten = ApplyPipeline(in.program, in.query, *steps, {});
  EXPECT_TRUE(rewritten.ok()) << spec;
  auto run = Evaluate(rewritten->program, db, {});
  EXPECT_TRUE(run.ok()) << spec;
  // Count derived facts only (exclude the EDB).
  return run->db.TotalFacts() - db.TotalFacts();
}

TEST(PipelineTest, Example71QrpFirstWins) {
  // Theorem 7.2's regime: P^{qrp,mg} computes a subset of P^{mg,qrp}.
  Parsed in = ParseWithQuery(kExample71);
  Database db = Example7Db(in.program.symbols.get(), 7);
  size_t qrp_mg = TotalFacts(in, db, "qrp,mg");
  size_t mg_qrp = TotalFacts(in, db, "mg,qrp");
  EXPECT_LE(qrp_mg, mg_qrp);
}

TEST(PipelineTest, Example72MagicFirstWins) {
  // Example 7.2: the selection sits below the query constant; applying
  // magic first lets qrp see the magic predicate's constraints.
  Parsed in = ParseWithQuery(kExample72);
  Database db = Example7Db(in.program.symbols.get(), 8);
  size_t qrp_mg = TotalFacts(in, db, "qrp,mg");
  size_t mg_qrp = TotalFacts(in, db, "mg,qrp");
  EXPECT_LE(mg_qrp, qrp_mg);
}

TEST(PipelineTest, OptimalSequenceNeverWorse) {
  // Theorem 7.10: pred,qrp,mg computes a subset of the facts of every
  // other sequence (magic applied once).
  for (const char* source : {kExample71, kExample72}) {
    Parsed in = ParseWithQuery(source);
    Database db = Example7Db(in.program.symbols.get(), 21);
    size_t best = TotalFacts(in, db, "pred,qrp,mg");
    for (const char* spec : {"mg", "qrp,mg", "mg,qrp", "mg,pred,qrp"}) {
      EXPECT_LE(best, TotalFacts(in, db, spec)) << source << " vs " << spec;
    }
  }
}

TEST(PipelineTest, GmtStepPreservesAnswers) {
  // The gmt step (Section 6.2) as a pipeline member, alone and after pred:
  // same answers as the unspecialized program on Example 6.1.
  Parsed in = ParseWithQuery(
      "p(X, Y) :- U > 10, q(X, U, V), W > V, p(W, Y).\n"
      "p(X, Y) :- u(X, Y).\n"
      "q(X, Y, Z) :- q1(X, U), q2(W, Y), q3(U, W, Z).\n"
      "?- X > 10, p(X, Y).\n");
  Database db;
  SymbolTable* symbols = in.program.symbols.get();
  EXPECT_TRUE(AddBinaryRelation(symbols, "u", 15, 30, 3, &db).ok());
  EXPECT_TRUE(AddBinaryRelation(symbols, "q1", 15, 30, 4, &db).ok());
  EXPECT_TRUE(AddBinaryRelation(symbols, "q2", 15, 30, 5, &db).ok());
  auto baseline_run = Evaluate(in.program, db, {});
  ASSERT_TRUE(baseline_run.ok());
  auto baseline = QueryAnswers(*baseline_run, in.query);
  ASSERT_TRUE(baseline.ok());
  for (const char* spec : {"gmt", "pred,gmt"}) {
    auto steps = ParseSteps(spec);
    ASSERT_TRUE(steps.ok());
    auto rewritten = ApplyPipeline(in.program, in.query, *steps, {});
    ASSERT_TRUE(rewritten.ok()) << spec;
    auto run = Evaluate(rewritten->program, db, {});
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(run->stats.all_ground) << spec;
    auto answers = QueryAnswers(*run, rewritten->query);
    ASSERT_TRUE(answers.ok());
    EXPECT_TRUE(SameAnswers(*baseline, *answers)) << spec;
  }
  // gmt counts as the single magic application.
  auto steps = ParseSteps("gmt,mg");
  ASSERT_TRUE(steps.ok());
  EXPECT_FALSE(ApplyPipeline(in.program, in.query, *steps, {}).ok());
}

TEST(PipelineTest, ExampleD1MagicRuleCarriesSelectionOnlyInQrpFirst) {
  // Example D.1's structural difference: in P^{qrp,mg} the magic rule for
  // a2 carries X <= 4 (the QRP constraint propagated into a1's rule before
  // magic); in P^{mg,qrp} it does not.
  Parsed in = ParseWithQuery(kExample71);
  auto count_magic_inequalities = [&](const char* spec) {
    auto steps = ParseSteps(spec);
    EXPECT_TRUE(steps.ok());
    auto rewritten = ApplyPipeline(in.program, in.query, *steps, {});
    EXPECT_TRUE(rewritten.ok());
    int n = 0;
    for (const Rule& rule : rewritten->program.rules) {
      const std::string& head =
          in.program.symbols->PredicateName(rule.head.pred);
      if (head.rfind("m_a2", 0) != 0) continue;
      for (const LinearConstraint& atom : rule.constraints.linear()) {
        if (atom.op() != CmpOp::kEq) ++n;
      }
    }
    return n;
  };
  EXPECT_GT(count_magic_inequalities("qrp,mg"),
            count_magic_inequalities("mg,qrp"));
}

TEST(PipelineTest, ExampleD2QrpAfterMagicConstrainsMagicRule) {
  // Example D.2's structural difference: only in P^{mg,qrp} does the rule
  // defining m_a1 carry X <= 4.
  Parsed in = ParseWithQuery(kExample72);
  auto m_a1_rule_inequalities = [&](const char* spec) {
    auto steps = ParseSteps(spec);
    EXPECT_TRUE(steps.ok());
    auto rewritten = ApplyPipeline(in.program, in.query, *steps, {});
    EXPECT_TRUE(rewritten.ok());
    int n = 0;
    for (const Rule& rule : rewritten->program.rules) {
      const std::string& head =
          in.program.symbols->PredicateName(rule.head.pred);
      if (head.rfind("m_a1", 0) != 0) continue;
      if (rule.body.empty()) continue;  // skip seeds
      for (const LinearConstraint& atom : rule.constraints.linear()) {
        if (atom.op() != CmpOp::kEq) ++n;
      }
    }
    return n;
  };
  EXPECT_GT(m_a1_rule_inequalities("mg,qrp"),
            m_a1_rule_inequalities("qrp,mg"));
}

TEST(PipelineTest, RedundantConsecutiveStepsStable) {
  // Theorems 7.4/7.5: consecutive applications of the same rewriting are
  // redundant — same computed facts.
  Parsed in = ParseWithQuery(kExample71);
  Database db = Example7Db(in.program.symbols.get(), 5);
  EXPECT_EQ(TotalFacts(in, db, "pred,pred"), TotalFacts(in, db, "pred"));
  EXPECT_EQ(TotalFacts(in, db, "qrp,qrp"), TotalFacts(in, db, "qrp"));
}

}  // namespace
}  // namespace cqlopt
