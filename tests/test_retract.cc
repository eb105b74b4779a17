// Tests for retraction (DESIGN.md §14) and streaming-window expiry at the
// service layer. The scenarios pin the cases the randomized
// retract_vs_scratch property can only hit by luck: diamond derivations
// whose shared conclusion must survive losing one support, recursive
// derivations through a cycle that must lose exactly what the retracted
// fact supported, retraction under constraint subsumption (where the
// surviving EDB yields a fact the original run subsumed away), and TTL
// expiry ordering interleaved with queries. Each retraction scenario
// compares a service that materialized the query before the retraction
// against a fresh service loaded with the surviving EDB.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "eval/loader.h"
#include "eval/seminaive.h"
#include "service/query_service.h"

namespace cqlopt {
namespace {

std::unique_ptr<QueryService> Service(const std::string& program,
                                      const std::string& edb) {
  auto service = QueryService::FromText(program, edb);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return service.ok() ? std::move(*service) : nullptr;
}

/// The answers of `query` (no rewrite steps) on `service`.
std::vector<std::string> Answers(QueryService& service,
                                 const std::string& query) {
  auto outcome = service.Execute(query, "");
  EXPECT_TRUE(outcome.ok()) << query << ": " << outcome.status().ToString();
  return outcome.ok() ? outcome->answers : std::vector<std::string>{};
}

/// Retracts `facts` from `warm` and expects one removed fact per line.
void RetractAll(QueryService& warm, const std::string& facts) {
  auto removed = warm.Retract(facts);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed->removed,
            static_cast<int>(std::count(facts.begin(), facts.end(), '\n')));
  EXPECT_EQ(removed->missing, 0);
}

/// Expects every query in `queries` to answer on `warm` exactly as on a
/// fresh service over `surviving`.
void ExpectMatchesFresh(QueryService& warm, const std::string& program,
                        const std::string& surviving,
                        const std::vector<std::string>& queries) {
  auto fresh = Service(program, surviving);
  ASSERT_NE(fresh, nullptr);
  for (const std::string& query : queries) {
    EXPECT_EQ(Answers(warm, query), Answers(*fresh, query)) << query;
  }
}

constexpr const char* kDiamond =
    "d(X) :- a(X).\n"
    "d(X) :- b(X).\n"
    "top(X) :- d(X).\n";

TEST(RetractServiceTest, DiamondConclusionSurvivesWhileOneSupportRemains) {
  // d(1) is derived two ways (a diamond through a(1) and b(1)). Killing
  // a(1) must leave d(1) and top(1) standing on the b(1) support alone.
  auto warm = Service(kDiamond, "a(1).\na(2).\nb(1).\n");
  ASSERT_NE(warm, nullptr);
  ASSERT_EQ(Answers(*warm, "?- top(X)."),
            (std::vector<std::string>{"top(1)", "top(2)"}));
  RetractAll(*warm, "a(1).\n");
  auto caught_up = warm->Execute("?- top(X).", "");
  ASSERT_TRUE(caught_up.ok()) << caught_up.status().ToString();
  EXPECT_EQ(caught_up->answers,
            (std::vector<std::string>{"top(1)", "top(2)"}));
  // A catch-up across a retraction evaluates the head EDB from scratch.
  EXPECT_EQ(caught_up->path, ServePath::kPreparedEval);
  EXPECT_EQ(warm->Stats().retract_resumes, 1);
  ExpectMatchesFresh(*warm, kDiamond, "a(2).\nb(1).\n",
                     {"?- d(X).", "?- top(X)."});
}

TEST(RetractServiceTest, SecondSupportRetractionKillsTheDiamond) {
  // Two retraction epochs, each caught up by a query: first a(1), then
  // b(1).
  auto warm = Service(kDiamond, "a(1).\na(2).\nb(1).\n");
  ASSERT_NE(warm, nullptr);
  ASSERT_EQ(Answers(*warm, "?- top(X).").size(), 2u);
  RetractAll(*warm, "a(1).\n");
  ASSERT_EQ(Answers(*warm, "?- top(X).").size(), 2u);
  RetractAll(*warm, "b(1).\n");
  EXPECT_EQ(Answers(*warm, "?- d(X)."), std::vector<std::string>{"d(2)"});
  EXPECT_EQ(Answers(*warm, "?- top(X)."),
            std::vector<std::string>{"top(2)"});
  ExpectMatchesFresh(*warm, kDiamond, "a(2).\n", {"?- d(X).", "?- top(X)."});
}

TEST(RetractServiceTest, RecursiveOverDeletionRederivesThroughTheCycle) {
  const char* program =
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).\n";
  // The 1<->2 cycle derives path facts many times over; deleting the only
  // road to 3 must remove every path into 3 and keep the cycle's paths.
  auto warm = Service(program, "edge(1, 2).\nedge(2, 1).\nedge(2, 3).\n");
  ASSERT_NE(warm, nullptr);
  ASSERT_EQ(Answers(*warm, "?- path(X, Y).").size(), 6u);
  RetractAll(*warm, "edge(2, 3).\n");
  std::vector<std::string> paths = Answers(*warm, "?- path(X, Y).");
  EXPECT_TRUE(std::find(paths.begin(), paths.end(), "path(1, 1)") !=
              paths.end())
      << "cycle-derived survivor was lost";
  for (const std::string& fact : paths) {
    EXPECT_EQ(fact.find("3"), std::string::npos)
        << fact << " survived the retraction of the only edge into 3";
  }
  ExpectMatchesFresh(*warm, program, "edge(1, 2).\nedge(2, 1).\n",
                     {"?- path(X, Y)."});
}

TEST(RetractServiceTest, RetractionOfNeverInsertedFactsIsCountedNotFatal) {
  const char* program = "d(X) :- a(X).\n";
  auto warm = Service(program, "a(1).\n");
  ASSERT_NE(warm, nullptr);
  ASSERT_EQ(Answers(*warm, "?- d(X)."), std::vector<std::string>{"d(1)"});
  // a(9) was never inserted; d(1) is derived-only, not a base fact. Both
  // are misses: nothing changes and no epoch burns.
  auto missed = warm->Retract("a(9).\nd(1).\n");
  ASSERT_TRUE(missed.ok()) << missed.status().ToString();
  EXPECT_EQ(missed->removed, 0);
  EXPECT_EQ(missed->missing, 2);
  EXPECT_EQ(missed->epoch, 0);
  auto again = warm->Execute("?- d(X).", "");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->path, ServePath::kEpochHit);
  EXPECT_EQ(again->answers, std::vector<std::string>{"d(1)"});
}

TEST(RetractSubsumptionTest, RetractingTheSubsumerResurfacesTheSubsumed) {
  const char* program = "good(X) :- cap(X).\n";
  // Under subsumption (the service's default) the derivation
  // good(W <= 3) is absorbed by the wider good(W <= 5) and never stored.
  // Retracting cap(W <= 5) must leave exactly what a fresh service over
  // cap(W <= 3) answers — the previously-subsumed fact has to be derived,
  // not lost.
  auto warm = Service(program, "cap(W) :- W <= 5.\ncap(W) :- W <= 3.\n");
  ASSERT_NE(warm, nullptr);
  ASSERT_EQ(Answers(*warm, "?- good(X).").size(), 1u);
  RetractAll(*warm, "cap(W) :- W <= 5.\n");
  std::vector<std::string> good = Answers(*warm, "?- good(X).");
  ASSERT_EQ(good.size(), 1u) << "good should hold exactly the narrow fact";
  EXPECT_NE(good[0].find("3"), std::string::npos) << good[0];
  ExpectMatchesFresh(*warm, program, "cap(W) :- W <= 3.\n",
                     {"?- good(X)."});
}

/// Three nested caps derived in one iteration: good(W <= 3) is subsumed by
/// the pending good(W <= 5), which is itself subsumed by good(W <= 7).
constexpr const char* kNestedCaps =
    "cap(W) :- W <= 3.\ncap(W) :- W <= 5.\ncap(W) :- W <= 7.\n";

TEST(RetractSubsumptionTest, SubsumptionChainStoresOnlyTheWidestRow) {
  auto parsed = ParseProgram("good(X) :- cap(X).\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto symbols = parsed->program.symbols;
  Database edb;
  ASSERT_TRUE(LoadDatabaseText(kNestedCaps, symbols, &edb).ok());
  EvalOptions opts;
  opts.strategy = EvalStrategy::kStratified;
  auto run = Evaluate(parsed->program, edb, opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const Relation* good = run->db.Find(symbols->LookupPredicate("good"));
  ASSERT_NE(good, nullptr);
  ASSERT_EQ(good->size(), 1u);
  EXPECT_NE(good->fact(0).ToString(*symbols).find("7"), std::string::npos);
  EXPECT_EQ(run->stats.subsumed, 2);
}

TEST(RetractSubsumptionTest, RetractingAChainLinkKeepsTheStoredRow) {
  // The stored good(W <= 7) still has its witness, and the facts the
  // retracted link subsumed stay covered.
  const char* program = "good(X) :- cap(X).\n";
  auto warm = Service(program, kNestedCaps);
  ASSERT_NE(warm, nullptr);
  ASSERT_EQ(Answers(*warm, "?- good(X).").size(), 1u);
  RetractAll(*warm, "cap(W) :- W <= 5.\n");
  std::vector<std::string> good = Answers(*warm, "?- good(X).");
  ASSERT_EQ(good.size(), 1u);
  EXPECT_NE(good[0].find("7"), std::string::npos) << good[0];
  ExpectMatchesFresh(*warm, program, "cap(W) :- W <= 3.\ncap(W) :- W <= 7.\n",
                     {"?- good(X)."});
}

TEST(RetractSubsumptionTest, RetractingTheChainEndRederives) {
  // good(W <= 7) subsumed the whole chain, so deleting its witness must
  // surface the next widest cap rather than drop good altogether.
  const char* program = "good(X) :- cap(X).\n";
  auto warm = Service(program, kNestedCaps);
  ASSERT_NE(warm, nullptr);
  ASSERT_EQ(Answers(*warm, "?- good(X).").size(), 1u);
  RetractAll(*warm, "cap(W) :- W <= 7.\n");
  std::vector<std::string> good = Answers(*warm, "?- good(X).");
  ASSERT_EQ(good.size(), 1u);
  EXPECT_NE(good[0].find("5"), std::string::npos) << good[0];
  ExpectMatchesFresh(*warm, program, "cap(W) :- W <= 3.\ncap(W) :- W <= 5.\n",
                     {"?- good(X)."});
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
