// Tests for DRed-style retraction (src/eval/retract.h) and streaming-window
// expiry (DESIGN.md §14). The scenarios pin the cases the randomized
// retract_vs_scratch property can only hit by luck: diamond derivations
// whose shared conclusion must survive losing one support, recursive
// over-deletion that re-derives through a cycle, retraction under
// constraint subsumption (where the scratch run stores a fact the original
// run subsumed away), and TTL expiry ordering interleaved with queries.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "eval/loader.h"
#include "eval/retract.h"
#include "eval/seminaive.h"
#include "service/query_service.h"

namespace cqlopt {
namespace {

/// Byte-identity comparator: relation keys and birth stamps in storage
/// order — what the retract_vs_scratch contract promises to preserve.
std::string Fingerprint(const EvalResult& r) {
  std::string out;
  for (const auto& [pred, rel] : r.db.relations()) {
    out += std::to_string(pred);
    out += '{';
    for (size_t i = 0; i < rel.size(); ++i) {
      out += rel.fact(i).Key();
      out += '@';
      out += std::to_string(rel.birth(i));
      out += ';';
    }
    out += '}';
  }
  return out;
}

/// Sorted rendered facts of one predicate in an evaluation result.
std::vector<std::string> FactStrings(const EvalResult& r,
                                     const std::string& pred_name,
                                     const SymbolTable& symbols) {
  std::vector<std::string> out;
  for (const auto& [pred, rel] : r.db.relations()) {
    if (symbols.PredicateName(pred) != pred_name) continue;
    for (size_t i = 0; i < rel.size(); ++i) {
      out.push_back(rel.fact(i).ToString(symbols));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Parses loader-syntax statements into the facts they store, in order.
std::vector<Fact> FactsFromText(const std::string& text,
                                std::shared_ptr<SymbolTable> symbols) {
  Database staged;
  auto loaded = LoadDatabaseText(text, symbols, &staged);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::vector<Fact> out;
  for (const auto& [pred, rel] : staged.relations()) {
    for (size_t i = 0; i < rel.size(); ++i) out.push_back(rel.fact(i));
  }
  return out;
}

/// Builds a Database holding `text`'s facts (the evaluation EDB shape).
Database EdbFromText(const std::string& text,
                     std::shared_ptr<SymbolTable> symbols) {
  Database db;
  auto loaded = LoadDatabaseText(text, symbols, &db);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return db;
}

EvalOptions StratifiedOptions(SubsumptionMode mode = SubsumptionMode::kNone) {
  EvalOptions opts;
  opts.strategy = EvalStrategy::kStratified;
  opts.subsumption = mode;
  return opts;
}

/// Runs the full differential: evaluate `edb_text`, retract `retract_text`'s
/// facts incrementally, and demand byte-identity with a scratch run over
/// `surviving_text`. Returns the incremental result for further probing.
EvalResult RetractAndCheck(const std::string& program_text,
                           const std::string& edb_text,
                           const std::string& retract_text,
                           const std::string& surviving_text,
                           const EvalOptions& opts,
                           std::shared_ptr<SymbolTable>* symbols_out =
                               nullptr) {
  auto parsed = ParseProgram(program_text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto symbols = parsed->program.symbols;
  if (symbols_out != nullptr) *symbols_out = symbols;

  Database full = EdbFromText(edb_text, symbols);
  auto base = Evaluate(parsed->program, full, opts);
  EXPECT_TRUE(base.ok()) << base.status().ToString();

  std::vector<Fact> batch = FactsFromText(retract_text, symbols);
  auto shrunk =
      RetractEvaluate(parsed->program, std::move(*base), batch, opts);
  EXPECT_TRUE(shrunk.ok()) << shrunk.status().ToString();

  Database surviving = EdbFromText(surviving_text, symbols);
  auto scratch = Evaluate(parsed->program, surviving, opts);
  EXPECT_TRUE(scratch.ok()) << scratch.status().ToString();
  EXPECT_EQ(Fingerprint(*shrunk), Fingerprint(*scratch))
      << "incremental retraction (path " << shrunk->stats.retract_path
      << ") diverged from the scratch run";
  return std::move(*shrunk);
}

TEST(RetractEvaluateTest, DiamondConclusionSurvivesWhileOneSupportRemains) {
  const char* program =
      "d(X) :- a(X).\n"
      "d(X) :- b(X).\n"
      "top(X) :- d(X).\n";
  // d(1) is derived two ways (a diamond through a(1) and b(1)). Killing
  // a(1) must leave d(1) and top(1) standing on the b(1) support alone.
  auto shrunk = RetractAndCheck(program, "a(1).\na(2).\nb(1).\n", "a(1).\n",
                                "a(2).\nb(1).\n", StratifiedOptions());
  EXPECT_EQ(shrunk.stats.retracted_facts, 1);
  EXPECT_EQ(shrunk.stats.retract_missing, 0);
  EXPECT_NE(shrunk.stats.retract_path, "full")
      << "a counting-resolvable deletion took the scratch fallback";
}

TEST(RetractEvaluateTest, SecondSupportRetractionKillsTheDiamond) {
  const char* program =
      "d(X) :- a(X).\n"
      "d(X) :- b(X).\n"
      "top(X) :- d(X).\n";
  auto parsed = ParseProgram(program);
  ASSERT_TRUE(parsed.ok());
  auto symbols = parsed->program.symbols;
  EvalOptions opts = StratifiedOptions();

  Database full = EdbFromText("a(1).\na(2).\nb(1).\n", symbols);
  auto base = Evaluate(parsed->program, full, opts);
  ASSERT_TRUE(base.ok());

  // Chained retractions on one materialization: first a(1), then b(1).
  auto once = RetractEvaluate(parsed->program, std::move(*base),
                              FactsFromText("a(1).\n", symbols), opts);
  ASSERT_TRUE(once.ok());
  auto twice = RetractEvaluate(parsed->program, std::move(*once),
                               FactsFromText("b(1).\n", symbols), opts);
  ASSERT_TRUE(twice.ok()) << twice.status().ToString();

  auto scratch =
      Evaluate(parsed->program, EdbFromText("a(2).\n", symbols), opts);
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(Fingerprint(*twice), Fingerprint(*scratch));
  EXPECT_EQ(FactStrings(*twice, "d", *symbols),
            std::vector<std::string>{"d(2)"});
  EXPECT_EQ(FactStrings(*twice, "top", *symbols),
            std::vector<std::string>{"top(2)"});
}

TEST(RetractEvaluateTest, RecursiveOverDeletionRederivesThroughTheCycle) {
  const char* program =
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).\n";
  // The 1<->2 cycle derives path facts many times over; deleting the only
  // road to 3 over-deletes into the cycle, and the re-derivation pass must
  // restore exactly the scratch state of the surviving graph.
  std::shared_ptr<SymbolTable> symbols;
  auto shrunk = RetractAndCheck(
      program, "edge(1, 2).\nedge(2, 1).\nedge(2, 3).\n", "edge(2, 3).\n",
      "edge(1, 2).\nedge(2, 1).\n", StratifiedOptions(), &symbols);
  std::vector<std::string> paths = FactStrings(shrunk, "path", *symbols);
  EXPECT_TRUE(std::find(paths.begin(), paths.end(), "path(1, 1)") !=
              paths.end())
      << "cycle-derived survivor was not re-derived";
  for (const std::string& fact : paths) {
    EXPECT_EQ(fact.find("3"), std::string::npos)
        << fact << " survived the retraction of the only edge into 3";
  }
  EXPECT_NE(shrunk.stats.retract_path, "full");
}

TEST(RetractEvaluateTest, RetractionOfNeverInsertedFactsIsCountedNotFatal) {
  const char* program = "d(X) :- a(X).\n";
  auto parsed = ParseProgram(program);
  ASSERT_TRUE(parsed.ok());
  auto symbols = parsed->program.symbols;
  EvalOptions opts = StratifiedOptions();
  auto base =
      Evaluate(parsed->program, EdbFromText("a(1).\n", symbols), opts);
  ASSERT_TRUE(base.ok());
  // a(9) was never inserted; d(1) is derived-only, not a base fact. Both
  // are misses; the state is untouched (the "noop" path).
  std::string before = Fingerprint(*base);
  auto batch = FactsFromText("a(9).\nd(1).\n", symbols);
  auto shrunk = RetractEvaluate(parsed->program, std::move(*base), batch, opts);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status().ToString();
  EXPECT_EQ(Fingerprint(*shrunk), before);
  EXPECT_EQ(shrunk->stats.retracted_facts, 0);
  EXPECT_EQ(shrunk->stats.retract_missing, 2);
  EXPECT_EQ(shrunk->stats.retract_path, "noop");
}

TEST(RetractSubsumptionTest, RetractingTheSubsumerResurfacesTheSubsumed) {
  const char* program = "good(X) :- cap(X).\n";
  // Under subsumption the derivation good(W <= 3) is absorbed by the wider
  // good(W <= 5) and never stored. Retracting cap(W <= 5) must leave
  // exactly what a scratch run over cap(W <= 3) stores — i.e. the
  // previously-subsumed fact has to be (re)derived, not lost.
  EvalOptions opts = StratifiedOptions(SubsumptionMode::kSingleFact);
  std::shared_ptr<SymbolTable> symbols;
  auto shrunk = RetractAndCheck(program,
                                "cap(W) :- W <= 5.\ncap(W) :- W <= 3.\n",
                                "cap(W) :- W <= 5.\n", "cap(W) :- W <= 3.\n",
                                opts, &symbols);
  EXPECT_EQ(shrunk.stats.retracted_facts, 1);
  std::vector<std::string> good = FactStrings(shrunk, "good", *symbols);
  ASSERT_EQ(good.size(), 1u) << "good should hold exactly the narrow fact";
  EXPECT_NE(good[0].find("3"), std::string::npos) << good[0];
}

/// Three nested caps derived in one iteration: good(W <= 3) is subsumed by
/// the pending good(W <= 5), which is itself subsumed by good(W <= 7). The
/// first derivation's subsumer never commits, so its blocked() count
/// follows the chain to the one stored row.
constexpr const char* kNestedCaps =
    "cap(W) :- W <= 3.\ncap(W) :- W <= 5.\ncap(W) :- W <= 7.\n";

TEST(RetractSubsumptionTest, SubsumptionChainChargesTheStoredRow) {
  auto parsed = ParseProgram("good(X) :- cap(X).\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto symbols = parsed->program.symbols;
  auto run = Evaluate(parsed->program, EdbFromText(kNestedCaps, symbols),
                      StratifiedOptions(SubsumptionMode::kSingleFact));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const Relation* good = run->db.Find(symbols->LookupPredicate("good"));
  ASSERT_NE(good, nullptr);
  ASSERT_EQ(good->size(), 1u);
  EXPECT_NE(good->fact(0).ToString(*symbols).find("7"), std::string::npos);
  EXPECT_EQ(run->stats.subsumed, 2);
  EXPECT_EQ(good->blocked(0), 2);
}

TEST(RetractSubsumptionTest, RetractingAChainLinkKeepsTheStoredRow) {
  // The stored good(W <= 7) still has its witness, and the facts the
  // retracted link subsumed stay covered: the row-level splice is exact.
  auto shrunk = RetractAndCheck(
      "good(X) :- cap(X).\n", kNestedCaps, "cap(W) :- W <= 5.\n",
      "cap(W) :- W <= 3.\ncap(W) :- W <= 7.\n",
      StratifiedOptions(SubsumptionMode::kSingleFact));
  EXPECT_EQ(shrunk.stats.retract_path, "splice");
}

TEST(RetractSubsumptionTest, RetractingTheChainEndRederives) {
  // good(W <= 7) blocked the whole chain, so deleting its witness must
  // re-derive rather than drop the row.
  std::shared_ptr<SymbolTable> symbols;
  auto shrunk = RetractAndCheck(
      "good(X) :- cap(X).\n", kNestedCaps, "cap(W) :- W <= 7.\n",
      "cap(W) :- W <= 3.\ncap(W) :- W <= 5.\n",
      StratifiedOptions(SubsumptionMode::kSingleFact), &symbols);
  EXPECT_EQ(shrunk.stats.retract_path, "prefix");
  std::vector<std::string> good = FactStrings(shrunk, "good", *symbols);
  ASSERT_EQ(good.size(), 1u);
  EXPECT_NE(good[0].find("5"), std::string::npos) << good[0];
}

// ---------------------------------------------------------------------------
// TTL windows at the service layer: expiry ordering vs queries.

TEST(TtlExpiryTest, DeadlinesExpireInOrderBetweenQueries) {
  auto service = QueryService::FromText("r(X) :- s(X).\n", "s(1).\n");
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const char* query = "?- r(V1).";

  auto warm = (*service)->Execute(query, "");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->answers.size(), 1u);

  ASSERT_TRUE((*service)->Ingest("s(2).\n", 100).ok());
  ASSERT_TRUE((*service)->Ingest("s(3).\n", 200).ok());
  auto all = (*service)->Execute(query, "");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->answers.size(), 3u);

  // One tick short of the first deadline: nothing expires, no epoch burns.
  auto early = (*service)->AdvanceClock(99);
  ASSERT_TRUE(early.ok()) << early.status().ToString();
  EXPECT_EQ(early->now_ms, 99);
  EXPECT_EQ(early->expired, 0);
  auto still = (*service)->Execute(query, "");
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->answers.size(), 3u);

  // Reaching a deadline exactly expires it (windows are half-open at the
  // tail: a fact with TTL t dies once now >= ingest + t).
  auto first = (*service)->AdvanceClock(1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->now_ms, 100);
  EXPECT_EQ(first->expired, 1);
  auto two = (*service)->Execute(query, "");
  ASSERT_TRUE(two.ok());
  ASSERT_EQ(two->answers.size(), 2u);
  for (const std::string& answer : two->answers) {
    EXPECT_EQ(answer.find("r(2)"), std::string::npos) << answer;
  }

  // A big jump sweeps every elapsed deadline in one tick.
  auto rest = (*service)->AdvanceClock(1000);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->now_ms, 1100);
  EXPECT_EQ(rest->expired, 1);
  auto last = (*service)->Execute(query, "");
  ASSERT_TRUE(last.ok());
  ASSERT_EQ(last->answers.size(), 1u);
  EXPECT_NE(last->answers[0].find("r(1)"), std::string::npos)
      << last->answers[0];

  ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.ttl_ingests, 2);
  EXPECT_EQ(stats.expired_facts, 2);
  EXPECT_EQ(stats.clock_ms, 1100);
  EXPECT_EQ(stats.ttl_pending, 0u);
}

TEST(TtlExpiryTest, DuplicatePermanentIngestDoesNotRefreshTheDeadline) {
  auto service = QueryService::FromText("r(X) :- s(X).\n", "");
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Ingest("s(9).\n", 100).ok());
  // Re-ingesting the same fact without a TTL dedups against the stored row
  // — it neither refreshes nor cancels the deadline, so the fact still
  // expires on schedule (the documented EDB-set semantics).
  auto dup = (*service)->Ingest("s(9).\n");
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->accepted, 0);
  EXPECT_EQ(dup->duplicates, 1);
  auto tick = (*service)->AdvanceClock(100);
  ASSERT_TRUE(tick.ok());
  EXPECT_EQ(tick->expired, 1);
  auto gone = (*service)->Execute("?- r(V1).", "");
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone->answers.empty());
}

TEST(TtlExpiryTest, RetractedTtlFactLeavesOnlyAStaleDeadlineBehind) {
  auto service = QueryService::FromText("r(X) :- s(X).\n", "");
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Ingest("s(4).\n", 100).ok());
  auto removed = (*service)->Retract("s(4).\n");
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed->removed, 1);
  // The sweep must skip the stale entry: nothing expires, no epoch burns.
  int64_t epoch_before = (*service)->epoch();
  auto tick = (*service)->AdvanceClock(200);
  ASSERT_TRUE(tick.ok());
  EXPECT_EQ(tick->expired, 0);
  EXPECT_EQ(tick->epoch, epoch_before);
  EXPECT_EQ((*service)->Stats().ttl_pending, 0u);
}

TEST(TtlExpiryTest, ClockOnlyMovesForward) {
  auto service = QueryService::FromText("r(X) :- s(X).\n", "");
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->AdvanceClock(10).ok());
  auto back = (*service)->AdvanceClock(-5);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
  // A zero-delta advance is a clock read, not a tick.
  auto read = (*service)->AdvanceClock(0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->now_ms, 10);
  EXPECT_EQ(read->expired, 0);
}

}  // namespace
}  // namespace cqlopt
