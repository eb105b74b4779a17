// End-to-end reproductions of the paper's worked examples: the evaluation
// traces of Tables 1 and 2 and the termination/answer claims around them.
// The benchmark harnesses print the same artifacts; these tests pin them.

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "core/equivalence.h"
#include "eval/seminaive.h"
#include "transform/magic.h"
#include "transform/predicate_constraints.h"

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

const char* kFib =
    "r1: fib(0, 1).\n"
    "r2: fib(1, 1).\n"
    "r3: fib(N, X1 + X2) :- N > 1, fib(N - 1, X1), fib(N - 2, X2).\n"
    "?- fib(N, 5).\n";

ConstraintSet FibSecondArgAtLeastOne() {
  // $2 >= 1, the paper's hand-picked (non-minimum) predicate constraint.
  Conjunction c;
  LinearExpr e = LinearExpr::Constant(Rational(1)) - LinearExpr::Var(2);
  EXPECT_TRUE(c.AddLinear(LinearConstraint(e, CmpOp::kLe)).ok());
  return ConstraintSet::Of(c);
}

TEST(PaperTable1, MagicFibDivergesButAnswers) {
  // Example 1.2 / Table 1: P_fib^mg computes the answer fib(4, 5) in
  // iteration 7 but never reaches a fixpoint.
  Parsed in = ParseWithQuery(kFib);
  MagicOptions options;
  options.sips = SipStrategy::kFullLeftToRight;
  auto magic = MagicTemplates(in.program, in.query, options);
  ASSERT_TRUE(magic.ok());
  EvalOptions eval;
  eval.max_iterations = 24;
  eval.record_trace = true;
  auto run = Evaluate(magic->program, Database(), eval);
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->stats.reached_fixpoint);  // diverges
  EXPECT_FALSE(run->stats.all_ground);        // m_fib constraint facts
  // The answer arrives in iteration 7.
  bool answer_at_7 = false;
  for (const Derivation& d : run->trace.at(7)) {
    if (d.fact == "fib(4, 5)" && d.outcome == InsertOutcome::kInserted) {
      answer_at_7 = true;
    }
  }
  EXPECT_TRUE(answer_at_7) << RenderTrace(run->trace);
  // And it is the unique answer.
  auto answers = QueryAnswers(*run, magic->query);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->size(), 1u);
  EXPECT_EQ((*answers)[0].ToString(*in.program.symbols), "fib(4, 5)");
}

TEST(PaperTable1, TraceMatchesFirstIterations) {
  Parsed in = ParseWithQuery(kFib);
  MagicOptions options;
  options.sips = SipStrategy::kFullLeftToRight;
  auto magic = MagicTemplates(in.program, in.query, options);
  ASSERT_TRUE(magic.ok());
  EvalOptions eval;
  eval.max_iterations = 9;
  eval.record_trace = true;
  auto run = Evaluate(magic->program, Database(), eval);
  ASSERT_TRUE(run.ok());
  // Iteration 0: the seed m_fib(N1, 5).
  ASSERT_EQ(run->trace[0].size(), 1u);
  EXPECT_EQ(run->trace[0][0].fact, "m_fib($1, 5)");
  // Iteration 1: m_fib(N1, V1; N1 > 0).
  ASSERT_EQ(run->trace[1].size(), 1u);
  EXPECT_EQ(run->trace[1][0].fact, "m_fib($1, $2; $1 > 0)");
  // Iteration 2: fib(1,1) plus a subsumed re-derivation.
  bool fib11 = false;
  for (const Derivation& d : run->trace[2]) {
    if (d.fact == "fib(1, 1)") fib11 = true;
  }
  EXPECT_TRUE(fib11);
  // Iteration 3: m_fib(0, V2) survives; m_fib(0, 4) is subsumed (bold in
  // the paper's table).
  bool general = false;
  bool specific_subsumed = false;
  for (const Derivation& d : run->trace[3]) {
    if (d.fact == "m_fib(0, $2)") {
      general = d.outcome == InsertOutcome::kInserted;
    }
    if (d.fact == "m_fib(0, 4)") {
      specific_subsumed = d.outcome == InsertOutcome::kSubsumed;
    }
  }
  EXPECT_TRUE(general) << RenderTrace(run->trace);
  EXPECT_TRUE(specific_subsumed) << RenderTrace(run->trace);
}

TEST(PaperTable2, PredicateConstraintMakesMagicTerminate) {
  // Example 4.4 / Table 2: propagating fib: $2 >= 1 makes the magic
  // evaluation terminate after iteration 8 with the same answer.
  Parsed in = ParseWithQuery(kFib);
  PredId fib = in.program.symbols->LookupPredicate("fib");
  std::map<PredId, ConstraintSet> given;
  given[fib] = FibSecondArgAtLeastOne();
  auto pfib1 = PropagateGivenConstraints(in.program, given);
  ASSERT_TRUE(pfib1.ok());
  MagicOptions options;
  options.sips = SipStrategy::kFullLeftToRight;
  auto magic = MagicTemplates(*pfib1, in.query, options);
  ASSERT_TRUE(magic.ok());
  EvalOptions eval;
  eval.max_iterations = 40;
  eval.record_trace = true;
  auto run = Evaluate(magic->program, Database(), eval);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->stats.reached_fixpoint);
  // The paper: answer in iteration 7, no new derivations in iteration 8.
  EXPECT_EQ(run->stats.iterations, 9);  // iterations 0..8
  bool answer_at_7 = false;
  for (const Derivation& d : run->trace.at(7)) {
    if (d.fact == "fib(4, 5)") answer_at_7 = true;
  }
  EXPECT_TRUE(answer_at_7) << RenderTrace(run->trace);
  auto answers = QueryAnswers(*run, magic->query);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->size(), 1u);
}

TEST(PaperTable2, BoundedMagicFactsMatchPaper) {
  // Table 2 iteration 1 computes m_fib(N1, V1; N1 > 0, V1 >= 1, V1 <= 4).
  Parsed in = ParseWithQuery(kFib);
  PredId fib = in.program.symbols->LookupPredicate("fib");
  std::map<PredId, ConstraintSet> given;
  given[fib] = FibSecondArgAtLeastOne();
  auto pfib1 = PropagateGivenConstraints(in.program, given);
  ASSERT_TRUE(pfib1.ok());
  MagicOptions options;
  options.sips = SipStrategy::kFullLeftToRight;
  auto magic = MagicTemplates(*pfib1, in.query, options);
  ASSERT_TRUE(magic.ok());
  EvalOptions eval;
  eval.max_iterations = 40;
  eval.record_trace = true;
  auto run = Evaluate(magic->program, Database(), eval);
  ASSERT_TRUE(run.ok());
  ASSERT_GE(run->trace.size(), 2u);
  ASSERT_EQ(run->trace[1].size(), 1u);
  EXPECT_EQ(run->trace[1][0].fact,
            "m_fib($1, $2; $1 > 0 & $2 <= 4 & $2 >= 1)");
}

// --- Trace-regression pins -------------------------------------------------
// The full per-iteration derivation traces of Tables 1 and 2, pinned as
// golden strings so evaluator rewrites (e.g. the SCC-stratified strategy or
// the hash-indexed join path) cannot silently reorder or lose derivations.
// Both magic fib programs are a single SCC ({m_fib, fib} are mutually
// recursive), so the stratified evaluation must reproduce the global
// semi-naive trace verbatim, not merely the same fact sets.

constexpr char kTable1GoldenTrace[] =
    "iteration 0: {seed:m_fib($1, 5)}\n"
    "iteration 1: {mr3_1:m_fib($1, $2; $1 > 0)}\n"
    "iteration 2: {r2:fib(1, 1), mr3_1:*m_fib($1, $2; $1 > 0)*}\n"
    "iteration 3: {mr3_2:*m_fib(0, 4)*, mr3_2:m_fib(0, $2)}\n"
    "iteration 4: {r1:fib(0, 1)}\n"
    "iteration 5: {r3:fib(2, 2)}\n"
    "iteration 6: {mr3_2:*m_fib(1, 3)*, mr3_2:*m_fib(1, $2)*, "
    "r3:fib(3, 3)}\n"
    "iteration 7: {mr3_2:*m_fib(2, 2)*, mr3_2:*m_fib(2, $2)*, "
    "r3:fib(4, 5), r3:*fib(4, 5)*}\n"
    "iteration 8: {mr3_2:*m_fib(3, 0)*, mr3_2:*m_fib(3, $2)*, "
    "r3:fib(5, 8)}\n";

constexpr char kTable2GoldenTrace[] =
    "iteration 0: {seed:m_fib($1, 5)}\n"
    "iteration 1: {mr3_1:m_fib($1, $2; $1 > 0 & $2 <= 4 & $2 >= 1)}\n"
    "iteration 2: {r2:fib(1, 1), "
    "mr3_1:*m_fib($1, $2; $1 > 0 & $2 <= 3 & $2 >= 1)*}\n"
    "iteration 3: {mr3_2:m_fib(0, 4), "
    "mr3_2:m_fib(0, $2; $2 <= 3 & $2 >= 1)}\n"
    "iteration 4: {r1:fib(0, 1)}\n"
    "iteration 5: {r3:fib(2, 2)}\n"
    "iteration 6: {mr3_2:*m_fib(1, 3)*, "
    "mr3_2:*m_fib(1, $2; $2 <= 2 & $2 >= 1)*, r3:fib(3, 3)}\n"
    "iteration 7: {mr3_2:*m_fib(2, 2)*, mr3_2:*m_fib(2, 1)*, "
    "r3:fib(4, 5)}\n"
    "iteration 8: {}\n";

Result<EvalResult> EvaluateTable1(const Parsed& in, EvalStrategy strategy) {
  MagicOptions options;
  options.sips = SipStrategy::kFullLeftToRight;
  auto magic = MagicTemplates(in.program, in.query, options);
  EXPECT_TRUE(magic.ok());
  EvalOptions eval;
  eval.max_iterations = 9;  // Table 1 shows iterations 0..8
  eval.record_trace = true;
  eval.strategy = strategy;
  return Evaluate(magic->program, Database(), eval);
}

Result<EvalResult> EvaluateTable2(const Parsed& in, EvalStrategy strategy) {
  PredId fib = in.program.symbols->LookupPredicate("fib");
  std::map<PredId, ConstraintSet> given;
  given[fib] = FibSecondArgAtLeastOne();
  auto pfib1 = PropagateGivenConstraints(in.program, given);
  EXPECT_TRUE(pfib1.ok());
  MagicOptions options;
  options.sips = SipStrategy::kFullLeftToRight;
  auto magic = MagicTemplates(*pfib1, in.query, options);
  EXPECT_TRUE(magic.ok());
  EvalOptions eval;
  eval.max_iterations = 40;
  eval.record_trace = true;
  eval.strategy = strategy;
  return Evaluate(magic->program, Database(), eval);
}

TEST(PaperTable1, FullTracePinned) {
  Parsed in = ParseWithQuery(kFib);
  auto run = EvaluateTable1(in, EvalStrategy::kSemiNaive);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(RenderTrace(run->trace), kTable1GoldenTrace);
}

TEST(PaperTable1, StratifiedTraceMatchesSemiNaive) {
  Parsed in = ParseWithQuery(kFib);
  auto run = EvaluateTable1(in, EvalStrategy::kStratified);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(RenderTrace(run->trace), kTable1GoldenTrace);
  EXPECT_FALSE(run->stats.reached_fixpoint);
  // Everything lives in one stratum.
  ASSERT_EQ(run->stats.scc_iterations.size(), 1u);
  EXPECT_EQ(run->stats.scc_iterations[0], 9);
}

TEST(PaperTable2, FullTracePinned) {
  Parsed in = ParseWithQuery(kFib);
  auto run = EvaluateTable2(in, EvalStrategy::kSemiNaive);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(RenderTrace(run->trace), kTable2GoldenTrace);
  EXPECT_TRUE(run->stats.reached_fixpoint);
}

TEST(PaperTable2, StratifiedTraceMatchesSemiNaive) {
  // Fresh parses per run: rewriting the same Parsed twice would intern a
  // second magic predicate (m_fib_2) into the shared symbol table.
  auto seminaive =
      EvaluateTable2(ParseWithQuery(kFib), EvalStrategy::kSemiNaive);
  auto run = EvaluateTable2(ParseWithQuery(kFib), EvalStrategy::kStratified);
  ASSERT_TRUE(seminaive.ok());
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(RenderTrace(run->trace), kTable2GoldenTrace);
  EXPECT_TRUE(run->stats.reached_fixpoint);
  // Identical final fact sets, entry by entry (keys are canonical).
  for (const auto& [pred, rel] : seminaive->db.relations()) {
    const Relation* other = run->db.Find(pred);
    ASSERT_NE(other, nullptr);
    ASSERT_EQ(rel.size(), other->size());
    for (size_t i = 0; i < rel.size(); ++i) {
      EXPECT_EQ(rel.fact(i).Key(), other->fact(i).Key());
    }
  }
  // The constant-bound m_fib literals in r1/r2/mr3_2 make the index path
  // do real work even on this tiny program.
  EXPECT_GT(run->stats.index_probes, 0);
}

TEST(PaperExample44, FibOfSixTerminatesWithNo) {
  // "a seminaive bottom-up evaluation terminates, and answers no because
  // there is no N whose Fibonacci number is 6."
  auto parsed = ParseProgram(kFib);
  ASSERT_TRUE(parsed.ok());
  Program& program = parsed->program;
  auto query6 = ParseQueryText("?- fib(N, 6).", &program);
  ASSERT_TRUE(query6.ok());
  PredId fib = program.symbols->LookupPredicate("fib");
  std::map<PredId, ConstraintSet> given;
  given[fib] = FibSecondArgAtLeastOne();
  auto pfib1 = PropagateGivenConstraints(program, given);
  ASSERT_TRUE(pfib1.ok());
  MagicOptions options;
  options.sips = SipStrategy::kFullLeftToRight;
  auto magic = MagicTemplates(*pfib1, *query6, options);
  ASSERT_TRUE(magic.ok());
  EvalOptions eval;
  eval.max_iterations = 64;
  auto run = Evaluate(magic->program, Database(), eval);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->stats.reached_fixpoint);
  auto answers = QueryAnswers(*run, magic->query);
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->empty());
  // The unoptimized magic program would NOT have terminated.
  auto plain_magic = MagicTemplates(program, *query6, options);
  ASSERT_TRUE(plain_magic.ok());
  EvalOptions capped;
  capped.max_iterations = 30;
  auto plain_run = Evaluate(plain_magic->program, Database(), capped);
  ASSERT_TRUE(plain_run.ok());
  EXPECT_FALSE(plain_run->stats.reached_fixpoint);
}

}  // namespace
}  // namespace cqlopt
