#include "eval/seminaive.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
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
  EXPECT_FALSE(rel->fact(0).IsGround());
}

TEST(EvalTest, SetImplicationSubsumptionTighter) {
  // Two overlapping interval facts plus one covered by their union: the
  // set mode stores two facts, the single mode three.
  Program p = ParseOrDie(
      "iv(X) :- lo(Y), X >= 0, X <= 6.\n"
      "iv(X) :- lo(Y), X >= 4, X <= 10.\n"
      "cover(X) :- iv(X).\n"
      "probe(X) :- lo(Y), X >= 2, X <= 8.\n"
      "iv(X) :- probe(X).\n");
  Database edb;
  ASSERT_TRUE(edb.AddGroundFact(p.symbols.get(), "lo",
                                {Database::Value::Number(Rational(0))})
                  .ok());
  EvalOptions single;
  EvalOptions set_mode;
  set_mode.subsumption = SubsumptionMode::kSetImplication;
  auto a = Evaluate(p, edb, single);
  auto b = Evaluate(p, edb, set_mode);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  PredId iv = p.symbols->LookupPredicate("iv");
  EXPECT_GT(a->db.FactsFor(iv), b->db.FactsFor(iv));
  // Ground answer sets coincide regardless of the mode.
  PredId cover = p.symbols->LookupPredicate("cover");
  EXPECT_GE(a->db.FactsFor(cover), b->db.FactsFor(cover));
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

// --- Emit-visibility contract (rule_application.h) ----------------------
//
// An emit callback may insert into the database immediately; entry storage
// is append-only, so mid-application inserts land at indexes >= the
// per-literal size snapshot AND carry birth > max_birth. Either guard alone
// keeps them out of the in-flight application, so a streaming emit derives
// exactly what a buffered emit does.

/// e(2,3), e(1,2) (in that insertion order) and t(3,4): processing e(2,3)
/// first derives t(2,4); whether e(1,2) then sees that new t fact is
/// exactly what the contract governs.
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

TEST(EvalTest, StreamingEmitInsertsInvisibleWithinApplication) {
  for (bool use_index : {false, true}) {
    SCOPED_TRACE(use_index ? "index" : "scan");
    Program p = ParseOrDie("t(X, Y) :- e(X, Z), t(Z, Y).\n");
    // Buffered oracle: collect derivations without touching the database.
    Database db = ChainDb(&p);
    std::vector<std::string> buffered;
    auto collect = [&](Fact fact,
                       const std::vector<Relation::FactRef>&) -> Status {
      buffered.push_back(fact.ToString(*p.symbols));
      return Status::OK();
    };
    ASSERT_TRUE(ApplyRule(p.rules[0], db, /*max_birth=*/-1,
                          /*require_delta=*/false, collect, use_index)
                    .ok());
    // Streaming: insert every derivation at birth 0 (> max_birth) as it is
    // emitted. The insert during e(2,3)'s t(2,4) must stay invisible when
    // e(1,2) enumerates t — no cascading t(1,4).
    Database db2 = ChainDb(&p);
    std::vector<std::string> streamed;
    auto stream = [&](Fact fact,
                      const std::vector<Relation::FactRef>& parents) -> Status {
      streamed.push_back(fact.ToString(*p.symbols));
      db2.AddFact(std::move(fact), /*birth=*/0, SubsumptionMode::kNone, "",
                  parents);
      return Status::OK();
    };
    ASSERT_TRUE(ApplyRule(p.rules[0], db2, /*max_birth=*/-1,
                          /*require_delta=*/false, stream, use_index)
                    .ok());
    EXPECT_EQ(buffered, std::vector<std::string>{"t(2, 4)"});
    EXPECT_EQ(streamed, buffered);
  }
}

TEST(EvalTest, StreamingInsertAtMaxBirthCascades) {
  // Contrast case documenting why the contract requires birth > max_birth:
  // the size snapshot is taken per literal *entry*, once per outer
  // candidate, so a fact inserted at a visible birth while processing
  // e(2,3) IS seen when e(1,2) later enumerates t — the application
  // cascades within a single ApplyRule call.
  for (bool use_index : {false, true}) {
    SCOPED_TRACE(use_index ? "index" : "scan");
    Program p = ParseOrDie("t(X, Y) :- e(X, Z), t(Z, Y).\n");
    Database db = ChainDb(&p);
    std::vector<std::string> streamed;
    auto stream = [&](Fact fact,
                      const std::vector<Relation::FactRef>& parents) -> Status {
      streamed.push_back(fact.ToString(*p.symbols));
      db.AddFact(std::move(fact), /*birth=*/-1, SubsumptionMode::kNone, "",
                 parents);
      return Status::OK();
    };
    ASSERT_TRUE(ApplyRule(p.rules[0], db, /*max_birth=*/-1,
                          /*require_delta=*/false, stream, use_index)
                    .ok());
    EXPECT_EQ(streamed,
              (std::vector<std::string>{"t(2, 4)", "t(1, 4)"}));
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

}  // namespace
}  // namespace cqlopt
