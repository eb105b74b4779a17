#include "eval/seminaive.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "core/equivalence.h"
#include "eval/loader.h"
#include "eval/rule_application.h"

namespace cqlopt {
namespace {

Program ParseOrDie(const std::string& text) {
  auto parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed->program;
}

Database EdgeDb(SymbolTable* symbols,
                std::vector<std::pair<int, int>> edges) {
  Database db;
  for (auto& [u, v] : edges) {
    EXPECT_TRUE(db.AddGroundFact(symbols, "e",
                                 {Database::Value::Number(Rational(u)),
                                  Database::Value::Number(Rational(v))})
                    .ok());
  }
  return db;
}

TEST(EvalTest, TransitiveClosure) {
  Program p = ParseOrDie(
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- e(X, Z), t(Z, Y).\n");
  Database edb = EdgeDb(p.symbols.get(), {{1, 2}, {2, 3}, {3, 4}});
  auto result = Evaluate(p, edb, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.reached_fixpoint);
  EXPECT_TRUE(result->stats.all_ground);
  PredId t = p.symbols->LookupPredicate("t");
  EXPECT_EQ(result->db.FactsFor(t), 6u);  // all pairs i < j
}

TEST(EvalTest, ConstraintSelectionPrunesJoin) {
  Program p = ParseOrDie("t(X, Y) :- e(X, Y), X <= 1.\n");
  Database edb = EdgeDb(p.symbols.get(), {{1, 2}, {2, 3}});
  auto result = Evaluate(p, edb, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->db.FactsFor(p.symbols->LookupPredicate("t")), 1u);
}

TEST(EvalTest, BodyFreeRulesFireOnceAtIterationZero) {
  Program p = ParseOrDie("fact(1, 2).\n fact(3, 4).\n");
  EvalOptions options;
  options.record_trace = true;
  auto result = Evaluate(p, Database(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->db.FactsFor(p.symbols->LookupPredicate("fact")), 2u);
  ASSERT_GE(result->trace.size(), 1u);
  EXPECT_EQ(result->trace[0].size(), 2u);
  EXPECT_TRUE(result->stats.reached_fixpoint);
  // The constraint facts must not re-derive in iteration 1.
  if (result->trace.size() > 1) {
    EXPECT_TRUE(result->trace[1].empty());
  }
}

TEST(EvalTest, ArithmeticInHeads) {
  Program p = ParseOrDie("succ(X, X + 1) :- e(X, Y).\n");
  Database edb = EdgeDb(p.symbols.get(), {{1, 2}});
  auto result = Evaluate(p, edb, {});
  ASSERT_TRUE(result.ok());
  const Relation* rel =
      result->db.Find(p.symbols->LookupPredicate("succ"));
  ASSERT_NE(rel, nullptr);
  ASSERT_EQ(rel->size(), 1u);
  EXPECT_EQ(rel->fact(0).ToString(*p.symbols), "succ(1, 2)");
}

TEST(EvalTest, JoinOnSharedVariable) {
  Program p = ParseOrDie("j(X, Z) :- e(X, Y), e(Y, Z).\n");
  Database edb = EdgeDb(p.symbols.get(), {{1, 2}, {2, 3}, {2, 5}, {7, 8}});
  auto result = Evaluate(p, edb, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->db.FactsFor(p.symbols->LookupPredicate("j")), 2u);
}

TEST(EvalTest, RepeatedVariableInLiteralIsSelfJoin) {
  Program p = ParseOrDie("loop(X) :- e(X, X).\n");
  Database edb = EdgeDb(p.symbols.get(), {{1, 1}, {1, 2}, {3, 3}});
  auto result = Evaluate(p, edb, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->db.FactsFor(p.symbols->LookupPredicate("loop")), 2u);
}

TEST(EvalTest, SymbolJoins) {
  Program p = ParseOrDie("conn(X, Z) :- leg(X, Y), leg(Y, Z).\n");
  Database db;
  auto add = [&](const char* a, const char* b) {
    ASSERT_TRUE(db.AddGroundFact(p.symbols.get(), "leg",
                                 {Database::Value::Symbol(a),
                                  Database::Value::Symbol(b)})
                    .ok());
  };
  add("msn", "ord");
  add("ord", "sea");
  add("sfo", "lax");
  auto result = Evaluate(p, db, {});
  ASSERT_TRUE(result.ok());
  const Relation* rel = result->db.Find(p.symbols->LookupPredicate("conn"));
  ASSERT_NE(rel, nullptr);
  ASSERT_EQ(rel->size(), 1u);
  EXPECT_EQ(rel->fact(0).ToString(*p.symbols), "conn(msn, sea)");
}

TEST(EvalTest, NonterminatingProgramHitsCap) {
  Program p = ParseOrDie(
      "nat(0).\n"
      "nat(X + 1) :- nat(X).\n");
  EvalOptions options;
  options.max_iterations = 12;
  auto result = Evaluate(p, Database(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->stats.reached_fixpoint);
  EXPECT_EQ(result->stats.iterations, 12);
  EXPECT_EQ(result->db.FactsFor(p.symbols->LookupPredicate("nat")), 12u);
}

TEST(EvalTest, ConstraintFactsComputedWhenUnbound) {
  // p(X; X <= 4) style derivation: head var bounded but not fixed.
  Program p = ParseOrDie("small(X) :- X <= 4, X >= 0.  q(X) :- small(X).");
  auto result = Evaluate(p, Database(), {});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->stats.all_ground);
  EXPECT_EQ(result->db.FactsFor(p.symbols->LookupPredicate("q")), 1u);
}

TEST(EvalTest, SemiNaiveNoRederivationFromOldFactsOnly) {
  Program p = ParseOrDie(
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- e(X, Z), t(Z, Y).\n");
  Database edb = EdgeDb(p.symbols.get(), {{1, 2}, {2, 3}});
  EvalOptions options;
  options.record_trace = true;
  auto result = Evaluate(p, edb, options);
  ASSERT_TRUE(result.ok());
  // Derivation counts: iteration 0 derives t(1,2), t(2,3); iteration 1
  // derives t(1,3) (plus re-derivations through delta); once stable, the
  // final iteration derives nothing.
  EXPECT_TRUE(result->trace.back().empty());
  long inserted = result->stats.inserted;
  EXPECT_EQ(inserted, 3);
}

TEST(EvalTest, SubsumptionWithinIterationPrefersGeneralFact) {
  // Both p-rules fire in the same iteration; the specific fact must be
  // discarded in favour of the more general one regardless of order
  // (Table 1 iteration 3 behaviour).
  Program p = ParseOrDie(
      "p(X) :- e(X, Y), X = 4.\n"
      "p(X) :- e(Z, Y), X >= 0.\n");
  Database edb = EdgeDb(p.symbols.get(), {{4, 1}});
  EvalOptions options;
  options.record_trace = true;
  auto result = Evaluate(p, edb, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->db.FactsFor(p.symbols->LookupPredicate("p")), 1u);
  EXPECT_EQ(result->stats.subsumed, 1);
  // The kept fact is the general one.
  const Relation* rel = result->db.Find(p.symbols->LookupPredicate("p"));
  EXPECT_FALSE(rel->ground(0));
}

TEST(EvalTest, TraceRendering) {
  Program p = ParseOrDie("r9: f(1).\n");
  EvalOptions options;
  options.record_trace = true;
  auto result = Evaluate(p, Database(), options);
  ASSERT_TRUE(result.ok());
  std::string trace = RenderTrace(result->trace);
  EXPECT_NE(trace.find("iteration 0: {r9:f(1)}"), std::string::npos) << trace;
}

// --- Buffered emit (rule_application.h) ---------------------------------

/// e(2,3), e(1,2) (in that insertion order) and t(3,4): processing e(2,3)
/// first derives t(2,4), which e(1,2) must not see within the same
/// application.
Database ChainDb(Program* p) {
  Database db;
  auto add = [&](const char* pred, int a, int b) {
    EXPECT_TRUE(db.AddGroundFact(p->symbols.get(), pred,
                                 {Database::Value::Number(Rational(a)),
                                  Database::Value::Number(Rational(b))})
                    .ok());
  };
  add("e", 2, 3);
  add("e", 1, 2);
  add("t", 3, 4);
  return db;
}

/// Both access paths run in ApplyRuleBothJoinsBufferEmits: `e` is
/// enumerated with nothing bound (the scan fallback), `t` is probed with Z
/// bound by the chosen e fact (the position index).
void ExpectScanAndIndexProbes(const EvalStats& stats) {
  EXPECT_GT(stats.scan_probes, 0);
  EXPECT_GT(stats.index_probes, 0);
}

/// The two joins of ApplyRule: the constraint join (no plan) and the
/// valuation join (the rule's GroundPlan; every relation here is ground).
std::vector<std::shared_ptr<const GroundPlan>> BothJoins(const Rule& rule) {
  std::shared_ptr<const GroundPlan> plan = CompileGroundPlan(rule);
  EXPECT_NE(plan, nullptr);
  return {nullptr, plan};
}

TEST(EvalTest, ApplyRuleBothJoinsBufferEmits) {
  // One application joins only the facts stored when it starts: t(2,4),
  // derived from e(2,3) and t(3,4), is handed to the callback and never
  // joined with e(1,2) in the same application (no t(1,4)).
  Program p = ParseOrDie("t(X, Y) :- e(X, Z), t(Z, Y).\n");
  for (const auto& plan : BothJoins(p.rules[0])) {
    SCOPED_TRACE(plan == nullptr ? "constraint join" : "valuation join");
    Database db = ChainDb(&p);
    std::vector<std::string> derived;
    auto collect = [&](CanonicalFact fact,
                       const std::vector<Relation::FactRef>&) -> Status {
      derived.push_back(fact.ToFact().ToString(*p.symbols));
      return Status::OK();
    };
    EvalStats stats;
    ASSERT_TRUE(ApplyRule(p.rules[0], plan.get(), db, /*max_birth=*/-1,
                          DeltaMode::kAll, /*interval_index=*/true,
                          /*demand=*/nullptr, collect, &stats)
                    .ok());
    ExpectScanAndIndexProbes(stats);
    EXPECT_EQ(stats.ground_applications, plan == nullptr ? 0 : 1);
    EXPECT_EQ(derived, std::vector<std::string>{"t(2, 4)"});
    EXPECT_EQ(db.TotalFacts(), 3u);
  }
}

TEST(EvalTest, RejectsNegativeMaxIterations) {
  Program p = ParseOrDie("t(X, Y) :- e(X, Y).\n");
  Database edb = EdgeDb(p.symbols.get(), {{1, 2}});
  EvalOptions options;
  options.max_iterations = -1;
  auto result = Evaluate(p, edb, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("max_iterations"),
            std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("-1"), std::string::npos);
}

TEST(EvalTest, ZeroIterationsReturnsEdbWithoutFixpoint) {
  Program p = ParseOrDie("t(X, Y) :- e(X, Y).\n");
  Database edb = EdgeDb(p.symbols.get(), {{1, 2}});
  EvalOptions options;
  options.max_iterations = 0;
  auto result = Evaluate(p, edb, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->db.TotalFacts(), 1u);
  EXPECT_FALSE(result->stats.reached_fixpoint);
}

TEST(EvalTest, UnsatisfiableRuleNeverFires) {
  Program p = ParseOrDie("q(X) :- e(X, Y), X <= 1, X >= 2.\n");
  Database edb = EdgeDb(p.symbols.get(), {{1, 2}});
  auto result = Evaluate(p, edb, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.derivations, 0);
}

// ---------------------------------------------------------------------------
// Ground tuples (DESIGN.md "Ground tuples"): one canonical form per ground
// fact, and the valuation join chosen per application. Each case asserts
// whether the valuation join ran through EvalStats::ground_applications.

/// A program, its EDB text and its query, evaluated SCC-stratified.
struct GroundRun {
  Program program;
  std::vector<Query> queries;
  Database edb;
  Result<EvalResult> run = Status::Internal("not evaluated");

  const Relation* Rel(const char* pred) const {
    return run->db.Find(program.symbols->LookupPredicate(pred));
  }
};

GroundRun EvaluateText(const std::string& rules, const std::string& edb) {
  GroundRun g;
  auto parsed = ParseProgram(rules);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  g.program = std::move(parsed->program);
  g.queries = std::move(parsed->queries);
  auto loaded = LoadDatabaseText(edb, g.program.symbols, &g.edb);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  EvalOptions options;
  options.strategy = EvalStrategy::kStratified;
  g.run = Evaluate(g.program, g.edb, options);
  return g;
}

TEST(GroundTupleTest, OnePointIsOneRowAndOneAnswer) {
  // p(1, 2) is derived twice: through `Y = X + 1` and copied from r. Both
  // derivations are the one canonical tuple, so under single-fact
  // subsumption the relation holds one row and the query one answer. The
  // second arm puts a constraint fact in q, so rule 1 runs the constraint
  // join, whose projection leaves `$1 - $2 = -1 & $1 = 1` until the
  // emitted fact is canonicalized.
  const std::string rules =
      "p(X, Y) :- q(X), Y = X + 1.\n"
      "p(X, Y) :- r(X, Y).\n"
      "?- p(X, Y).\n";
  for (bool constraint_join : {false, true}) {
    SCOPED_TRACE(constraint_join ? "constraint join" : "valuation join");
    GroundRun g = EvaluateText(
        rules, std::string("q(1).\nr(1, 2).\n") +
                   (constraint_join ? "q(X) :- X >= 100.\n" : ""));
    ASSERT_TRUE(g.run.ok()) << g.run.status().ToString();
    EXPECT_EQ(g.run->stats.ground_applications, constraint_join ? 1 : 2);
    const Relation* p = g.Rel("p");
    ASSERT_NE(p, nullptr);
    int points = 0;
    for (size_t i = 0; i < p->size(); ++i) {
      if (p->fact(i).ToString(*g.program.symbols) == "p(1, 2)") ++points;
    }
    EXPECT_EQ(points, 1);
    EXPECT_EQ(p->size(), constraint_join ? 2u : 1u);
    ASSERT_EQ(g.queries.size(), 1u);
    auto answers = QueryAnswers(*g.run, g.queries[0]);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    EXPECT_EQ(answers->size(), constraint_join ? 2u : 1u);
  }
}

TEST(GroundTupleTest, HeadPinnedOnlyByInequalitiesTakesTheConstraintJoin) {
  // X is pinned by `X >= 5, X <= 5` alone: no equality solves it, so the
  // static check fails and the constraint join runs; the derived fact is
  // still ground and stored in canonical form.
  GroundRun g = EvaluateText("h(X, Y) :- s(Y), X >= 5, X <= 5.\n", "s(1).\n");
  ASSERT_TRUE(g.run.ok()) << g.run.status().ToString();
  EXPECT_EQ(g.run->stats.ground_applications, 0);
  const Relation* h = g.Rel("h");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->size(), 1u);
  EXPECT_TRUE(h->ground(0));
  EXPECT_EQ(h->fact(0).ToString(*g.program.symbols), "h(5, 1)");
  EXPECT_EQ(h->fact(0).Key(),
            GroundFact(h->fact(0).pred,
                       {PointValue::Number(Rational(5)),
                        PointValue::Number(Rational(1))})
                .Key());
}

TEST(GroundTupleTest, ExistentialConstraintVariableTakesTheConstraintJoin) {
  // Z appears in no literal: binding the body leaves `Z > 0` unbound.
  GroundRun g = EvaluateText("e2(X) :- s(X), Z > 0.\n", "s(1).\n");
  ASSERT_TRUE(g.run.ok()) << g.run.status().ToString();
  EXPECT_EQ(g.run->stats.ground_applications, 0);
  const Relation* e2 = g.Rel("e2");
  ASSERT_NE(e2, nullptr);
  ASSERT_EQ(e2->size(), 1u);
  EXPECT_EQ(e2->fact(0).ToString(*g.program.symbols), "e2(1)");
}

TEST(GroundTupleTest, ConstraintFactInABodyRelationTakesTheConstraintJoin) {
  const std::string rules = "g(N) :- m_fib(N, V), N <= 3.\n";
  {
    SCOPED_TRACE("m_fib ground tuples only");
    GroundRun g = EvaluateText(rules, "m_fib(1, 2).\n");
    ASSERT_TRUE(g.run.ok()) << g.run.status().ToString();
    EXPECT_EQ(g.run->stats.ground_applications, 1);
    ASSERT_NE(g.Rel("g"), nullptr);
    EXPECT_EQ(g.Rel("g")->size(), 1u);
  }
  {
    SCOPED_TRACE("m_fib(N1, V1; N1 > 0) stored beside the tuple");
    GroundRun g =
        EvaluateText(rules, "m_fib(1, 2).\nm_fib(N1, V1) :- N1 > 0.\n");
    ASSERT_TRUE(g.run.ok()) << g.run.status().ToString();
    EXPECT_EQ(g.run->stats.ground_applications, 0);
    const Relation* gr = g.Rel("g");
    ASSERT_NE(gr, nullptr);
    // g(1) is subsumed within the iteration by g(N; 0 < N <= 3).
    ASSERT_EQ(gr->size(), 1u);
    EXPECT_FALSE(gr->ground(0));
    EXPECT_EQ(g.run->stats.subsumed, 1);
  }
}

/// Global semi-naive evaluation of `rules` over `edb` with the trace on:
/// each rule's derivations arrive one iteration after its body facts.
GroundRun EvaluateTraced(const std::string& rules, const std::string& edb) {
  GroundRun g;
  auto parsed = ParseProgram(rules);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  g.program = std::move(parsed->program);
  auto loaded = LoadDatabaseText(edb, g.program.symbols, &g.edb);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  EvalOptions options;
  options.strategy = EvalStrategy::kSemiNaive;
  options.record_trace = true;
  g.run = Evaluate(g.program, g.edb, options);
  return g;
}

/// The outcome the trace of `iteration` records for the derivation
/// rendered `fact` (kInserted when absent, which the callers rule out).
InsertOutcome TracedOutcome(const GroundRun& g, size_t iteration,
                            const std::string& fact) {
  EXPECT_LT(iteration, g.run->trace.size());
  if (iteration >= g.run->trace.size()) return InsertOutcome::kInserted;
  for (const Derivation& d : g.run->trace[iteration]) {
    if (d.fact == fact) return d.outcome;
  }
  ADD_FAILURE() << fact << " not derived in iteration " << iteration;
  return InsertOutcome::kInserted;
}

TEST(GroundTupleTest, StoredConstraintFactSubsumesAValuationDerivation) {
  // Reconciliation pass 2: p(3), made by the valuation join over the
  // all-ground r in iteration 1, is implied by p(X; X > 0), stored in
  // iteration 0. The tuple's point is built for that check only.
  GroundRun g = EvaluateTraced(
      "p(X) :- X > 0.\nr(X) :- q(X).\np(X) :- r(X).\n", "q(3).\n");
  ASSERT_TRUE(g.run.ok()) << g.run.status().ToString();
  EXPECT_GT(g.run->stats.ground_applications, 0);
  EXPECT_EQ(TracedOutcome(g, 1, "p(3)"), InsertOutcome::kSubsumed);
  const Relation* p = g.Rel("p");
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->size(), 1u);
  EXPECT_FALSE(p->ground(0));
  EXPECT_EQ(g.run->stats.subsumed, 1);
}

TEST(GroundTupleTest, SameIterationConstraintFactSubsumesAValuationDerivation) {
  // Reconciliation pass 3: in iteration 1 the valuation join derives p(3)
  // from r(3), and the constraint join (X is pinned by no equality) derives
  // p(X; X > 0) from u(0). The later non-ground derivation discards the
  // earlier tuple and commits.
  GroundRun g = EvaluateTraced(
      "r(X) :- q(X).\nu(Y) :- w(Y).\np(X) :- r(X).\np(X) :- u(Y), X > Y.\n",
      "q(3).\nw(0).\n");
  ASSERT_TRUE(g.run.ok()) << g.run.status().ToString();
  EXPECT_EQ(TracedOutcome(g, 1, "p(3)"), InsertOutcome::kSubsumed);
  const Relation* p = g.Rel("p");
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->size(), 1u);
  EXPECT_FALSE(p->ground(0));
  EXPECT_EQ(p->birth(0), 1);
  EXPECT_EQ(g.run->stats.subsumed, 1);
}

TEST(GroundTupleTest, SymbolInAnArithmeticSlotKeepsTheTypeError) {
  // The valuation join hands the candidate to the constraint join, which
  // fails exactly as it always has. The expected text is the constraint
  // join's own.
  GroundRun g =
      EvaluateText("a(X, Y) :- b(X), Y = X + 1.\n", "b(2).\nb(foo).\n");
  ASSERT_FALSE(g.run.ok());
  EXPECT_EQ(g.run.status().code(), StatusCode::kTypeError);
  EXPECT_EQ(g.run.status().message(),
            "binding symbol to numeric variable v1024");
}

TEST(GroundTupleTest, SymbolClashWithABoundNumberIsSkipped) {
  // Y holds a number from c when d's row offers a symbol for it: the
  // constraint join's pre-filter skips that row, and so does the hand-off.
  GroundRun g = EvaluateText("j(X) :- c(X, Y), d(Y).\n",
                             "c(1, 5).\nc(2, 6).\nd(foo).\nd(5).\n");
  ASSERT_TRUE(g.run.ok()) << g.run.status().ToString();
  EXPECT_EQ(g.run->stats.ground_applications, 1);
  ASSERT_NE(g.Rel("j"), nullptr);
  ASSERT_EQ(g.Rel("j")->size(), 1u);
  EXPECT_EQ(g.Rel("j")->fact(0).ToString(*g.program.symbols), "j(1)");
}

TEST(GroundTupleTest, ResumedRunOverGroundIngestsEqualsScratch) {
  Program p = ParseOrDie(
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- e(X, Z), t(Z, Y).\n"
      "w(X, T) :- t(X, Y), T = X + Y + 30.\n");
  Database base_edb = EdgeDb(p.symbols.get(), {{1, 2}, {2, 3}});
  Database full_edb = EdgeDb(p.symbols.get(), {{1, 2}, {2, 3}, {3, 4}, {0, 1}});
  auto base = Evaluate(p, base_edb, {});
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  std::vector<Fact> batch;
  Database delta = EdgeDb(p.symbols.get(), {{3, 4}, {0, 1}});
  const Relation* e = delta.Find(p.symbols->LookupPredicate("e"));
  for (size_t i = 0; i < e->size(); ++i) batch.push_back(e->fact(i));
  auto resumed = ResumeEvaluate(p, *base, batch, {});
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_GT(resumed->stats.ground_applications,
            base->stats.ground_applications);
  auto scratch = Evaluate(p, full_edb, {});
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  auto rendered = [&](const EvalResult& r) {
    std::map<std::string, std::vector<std::string>> out;
    for (const auto& [pred, rel] : r.db.relations()) {
      auto& facts = out[p.symbols->PredicateName(pred)];
      for (size_t i = 0; i < rel.size(); ++i) {
        EXPECT_TRUE(rel.ground(i));
        facts.push_back(rel.fact(i).ToString(*p.symbols));
      }
      std::sort(facts.begin(), facts.end());
    }
    return out;
  };
  EXPECT_EQ(rendered(*resumed), rendered(*scratch));
  EXPECT_EQ(rendered(*scratch)["w"].size(), 10u);
}

}  // namespace
}  // namespace cqlopt
