// Tests for the query-serving subsystem (src/service): the prepared-program
// cache, snapshot epochs, incremental ingestion, and the cqld line
// protocol. The core guarantee is differential: resuming a materialized
// fixpoint with ingested EDB deltas (ResumeEvaluate) must agree with a
// from-scratch kStratified evaluation of the grown database — across the
// program corpus and both subsumption modes.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <fstream>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "core/equivalence.h"
#include "core/workload.h"
#include "eval/loader.h"
#include "eval/seminaive.h"
#include "generated_flights.h"
#include "service/protocol.h"
#include "service/server.h"
#include "synthetic_edb.h"
#include "testing/generator.h"
#include "testing/properties.h"
#include "util/failpoint.h"

namespace cqlopt {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

std::string ProgramPath(const std::string& name) {
  return std::string(CQLOPT_PROGRAMS_DIR) + "/" + name;
}

std::vector<Fact> AllFacts(const Database& db) {
  std::vector<Fact> out;
  for (const auto& [pred, rel] : db.relations()) {
    for (size_t i = 0; i < rel.size(); ++i) {
      out.push_back(rel.fact(i));
    }
  }
  return out;
}

std::set<std::string> KeysOf(const Database& db, PredId pred) {
  std::set<std::string> out;
  const Relation* rel = db.Find(pred);
  if (rel == nullptr) return out;
  for (size_t i = 0; i < rel->size(); ++i) {
    out.insert(rel->fact(i).Key());
  }
  return out;
}

std::vector<Fact> FactsOf(const Database& db, PredId pred) {
  std::vector<Fact> out;
  const Relation* rel = db.Find(pred);
  if (rel == nullptr) return out;
  for (size_t i = 0; i < rel->size(); ++i) {
    out.push_back(rel->fact(i));
  }
  return out;
}

/// Structural key equality per predicate, with a semantic SameAnswers
/// fallback: subsumption may keep different but equivalent representatives
/// depending on the order facts arrived (resume order differs from
/// from-scratch order).
::testing::AssertionResult DatabasesAgree(const Database& a,
                                          const Database& b,
                                          const SymbolTable& symbols,
                                          bool exact) {
  std::set<PredId> preds;
  for (const auto& [pred, rel] : a.relations()) preds.insert(pred);
  for (const auto& [pred, rel] : b.relations()) preds.insert(pred);
  for (PredId pred : preds) {
    if (KeysOf(a, pred) == KeysOf(b, pred)) continue;
    if (exact) {
      return ::testing::AssertionFailure()
             << "key sets differ on " << symbols.PredicateName(pred);
    }
    std::vector<Fact> fa = FactsOf(a, pred);
    std::vector<Fact> fb = FactsOf(b, pred);
    if (fa.empty() != fb.empty() || !SameAnswers(fa, fb)) {
      return ::testing::AssertionFailure()
             << "databases differ on " << symbols.PredicateName(pred) << " ("
             << fa.size() << " vs " << fb.size() << " facts)";
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Differential: resume-after-ingest == from-scratch stratified evaluation.

struct ModeParam {
  const char* name;
  SubsumptionMode mode;
};

using ResumeParam = std::tuple<const char*, ModeParam>;

class ResumeDifferentialTest : public ::testing::TestWithParam<ResumeParam> {};

TEST_P(ResumeDifferentialTest, ResumedEqualsFromScratch) {
  const auto& [program_name, mode] = GetParam();
  auto parsed = ParseProgram(ReadFile(ProgramPath(program_name)));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Program& program = parsed->program;

  Database base;
  std::vector<Fact> delta;
  if (std::string(program_name) == "flights.cql") {
    auto loaded = LoadDatabaseText(ReadFile(ProgramPath("flights_edb.cql")),
                                   program.symbols, &base);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    // New legs keep the network acyclic (the raw program composes flights
    // unboundedly around a cycle; topological order msn, den, ord, jfk,
    // sea is preserved).
    Database extra;
    auto extra_loaded = LoadDatabaseText(
        "singleleg(msn, jfk, 210, 140).\n"
        "singleleg(den, jfk, 90, 55).\n"
        "singleleg(den, ord, 45, 35).\n",
        program.symbols, &extra);
    ASSERT_TRUE(extra_loaded.ok()) << extra_loaded.status().ToString();
    delta = AllFacts(extra);
  } else {
    base = SyntheticEdb(program, 1234, 12);
    delta = AllFacts(SyntheticEdb(program, 7777, 3));
  }

  EvalOptions options;
  options.strategy = EvalStrategy::kStratified;
  options.subsumption = mode.mode;
  options.max_iterations = std::string(program_name) == "fib.cql" ? 14 : 48;

  auto base_run = Evaluate(program, base, options);
  ASSERT_TRUE(base_run.ok()) << base_run.status().ToString();

  if (!base_run->stats.reached_fixpoint) {
    // Divergent program (fib.cql): resuming a capped base would silently
    // drop its unexplored frontier, so it must be rejected.
    auto resumed = ResumeEvaluate(program, std::move(*base_run), delta,
                                  options);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
    return;
  }

  auto resumed = ResumeEvaluate(program, std::move(*base_run), delta,
                                options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  Database full = base;
  full.AddFacts(delta);
  auto scratch = Evaluate(program, full, options);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();

  EXPECT_EQ(resumed->stats.reached_fixpoint, scratch->stats.reached_fixpoint);
  // Under kNone nothing is ever pruned, so the runs must agree exactly;
  // with subsumption on, equivalence is semantic.
  EXPECT_TRUE(DatabasesAgree(resumed->db, scratch->db, *program.symbols,
                             /*exact=*/mode.mode == SubsumptionMode::kNone));
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ResumeDifferentialTest,
    ::testing::Combine(
        ::testing::Values("flights.cql", "fib.cql", "example41.cql",
                          "example42.cql", "example61.cql", "example71.cql",
                          "example72.cql"),
        ::testing::Values(ModeParam{"none", SubsumptionMode::kNone},
                          ModeParam{"single_fact",
                                    SubsumptionMode::kSingleFact})),
    [](const ::testing::TestParamInfo<ResumeParam>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name + "_" + std::get<1>(info.param).name;
    });

// ---------------------------------------------------------------------------
// Differential: retract_vs_scratch replayed under both subsumption modes.
// The property itself (testing/properties.cc) checks RETRACT over the
// protocol against direct evaluation of the surviving EDB, and that a
// repeated RETRACT changes nothing; here it must hold at every point of the
// configuration lattice, not just the fuzzer's defaults.

class RetractDifferentialTest : public ::testing::TestWithParam<ModeParam> {};

TEST_P(RetractDifferentialTest, RetractVsScratchHoldsAcrossSeeds) {
  const ModeParam& mode = GetParam();
  const cqlopt::testing::PropertyInfo* property =
      cqlopt::testing::FindProperty("retract_vs_scratch");
  ASSERT_NE(property, nullptr);
  cqlopt::testing::FuzzOptions fo;
  fo.subsumption = mode.mode;
  int checked = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    cqlopt::testing::FuzzCase c =
        cqlopt::testing::GenerateCase(seed * 7919, {});
    cqlopt::testing::PropertyOutcome outcome = property->fn(c, fo);
    EXPECT_TRUE(outcome.ok)
        << "seed " << seed * 7919 << ": " << outcome.message;
    if (!outcome.skipped) ++checked;
  }
  // The sweep must actually exercise the property, not skip its way green.
  EXPECT_GT(checked, 6);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RetractDifferentialTest,
    ::testing::Values(ModeParam{"none", SubsumptionMode::kNone},
                      ModeParam{"single_fact", SubsumptionMode::kSingleFact}),
    [](const ::testing::TestParamInfo<ModeParam>& info) {
      return std::string(info.param.name);
    });

TEST(ResumeEvaluateTest, EmptyDeltaReturnsBaseUnchanged) {
  auto parsed = ParseProgram("t(X, Y) :- e(X, Y).\n");
  ASSERT_TRUE(parsed.ok());
  Database db;
  ASSERT_TRUE(
      LoadDatabaseText("e(1, 2).\ne(2, 3).\n", parsed->program.symbols, &db)
          .ok());
  auto base = Evaluate(parsed->program, db, EvalOptions{});
  ASSERT_TRUE(base.ok());
  size_t facts = base->db.TotalFacts();
  int iterations = base->stats.iterations;
  auto resumed =
      ResumeEvaluate(parsed->program, std::move(*base), {}, EvalOptions{});
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->db.TotalFacts(), facts);
  EXPECT_EQ(resumed->stats.iterations, iterations);
  EXPECT_TRUE(resumed->stats.reached_fixpoint);
}

// ---------------------------------------------------------------------------
// QueryService: serving paths, prepared cache, epochs.

const char kFlightsQuery[] = "?- cheaporshort(msn, sea, Time, Cost).";

std::unique_ptr<QueryService> FlightsService(ServiceOptions options = {}) {
  auto service =
      QueryService::FromText(ReadFile(ProgramPath("flights.cql")),
                             ReadFile(ProgramPath("flights_edb.cql")),
                             options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(*service);
}

TEST(QueryServiceTest, ColdThenEpochHitThenResumed) {
  auto service = FlightsService();

  auto first = service->Execute(kFlightsQuery, "pred,qrp,mg");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->path, ServePath::kCold);
  EXPECT_FALSE(first->prepared_hit);
  EXPECT_EQ(first->epoch, 0);
  EXPECT_TRUE(first->reached_fixpoint);
  EXPECT_FALSE(first->answers.empty());

  auto second = service->Execute(kFlightsQuery, "pred,qrp,mg");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->path, ServePath::kEpochHit);
  EXPECT_TRUE(second->prepared_hit);
  EXPECT_EQ(second->iterations_run, 0);
  EXPECT_EQ(second->answers, first->answers);

  auto ingest = service->Ingest("singleleg(msn, sea, 150, 80).\n");
  ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
  EXPECT_EQ(ingest->accepted, 1);
  EXPECT_EQ(ingest->epoch, 1);

  auto third = service->Execute(kFlightsQuery, "pred,qrp,mg");
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->path, ServePath::kResumed);
  EXPECT_EQ(third->epoch, 1);
  // The new direct leg is cheap and short: it must show up as an answer.
  EXPECT_GT(third->answers.size(), first->answers.size());

  ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.queries, 3);
  EXPECT_EQ(stats.cold_evals, 1);
  EXPECT_EQ(stats.epoch_hits, 1);
  EXPECT_EQ(stats.resumes, 1);
  EXPECT_EQ(stats.epoch, 1);
}

// The head EDB is published with every position indexed, so a cold
// evaluation over it builds no EDB index (DESIGN.md §12). The program is the
// constrained join of EXPERIMENTS.md E1, scaled down: its only probes are
// range probes of singleleg, one per budget. Evaluated directly over the
// unindexed EDB, the second of them indexes singleleg's time position.
TEST(QueryServiceTest, ColdExecuteBuildsNoEdbIndex) {
  auto parsed = ParseProgram(
      "s1: withinbudget(S, D, T, C) :- budget(B), singleleg(S, D, T, C), "
      "T <= B.\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Program& program = parsed->program;
  FlightNetworkSpec spec;
  spec.airports = 40;
  spec.legs = 2000;
  spec.seed = 42;
  Database edb;
  ASSERT_TRUE(AddFlightNetwork(program.symbols.get(), spec, &edb).ok());
  for (int budget : {35, 40, 45, 50, 55}) {
    ASSERT_TRUE(edb.AddGroundFact(program.symbols.get(), "budget",
                                  {Database::Value::Number(Rational(budget))})
                    .ok());
  }
  EvalOptions options;
  options.strategy = EvalStrategy::kStratified;
  auto direct = Evaluate(program, edb, options);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(direct->stats.index_builds, 1);
  const PredId withinbudget =
      program.symbols->LookupPredicate("withinbudget");

  auto service = QueryService::FromParts(program, edb);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto cold = (*service)->Execute("?- withinbudget(S, D, T, C).", "");
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->path, ServePath::kCold);
  EXPECT_EQ(cold->index_builds, 0);
  EXPECT_EQ(cold->answers.size(), direct->db.FactsFor(withinbudget));
  EXPECT_GT(cold->answers.size(), 0u);
}

TEST(QueryServiceTest, ResumedMatchesFreshServiceAfterIngest) {
  const std::string batch =
      "singleleg(sea, msn, 210, 140).\nsingleleg(den, jfk, 240, 160).\n";
  auto incremental = FlightsService();
  ASSERT_TRUE(incremental->Execute(kFlightsQuery, "pred,qrp,mg").ok());
  ASSERT_TRUE(incremental->Ingest(batch).ok());
  auto resumed = incremental->Execute(kFlightsQuery, "pred,qrp,mg");
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->path, ServePath::kResumed);

  auto fresh = QueryService::FromText(
      ReadFile(ProgramPath("flights.cql")),
      ReadFile(ProgramPath("flights_edb.cql")) + batch, {});
  ASSERT_TRUE(fresh.ok());
  auto scratch = (*fresh)->Execute(kFlightsQuery, "pred,qrp,mg");
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(scratch->path, ServePath::kCold);
  EXPECT_EQ(resumed->answers, scratch->answers);
}

// The retract gate (DESIGN.md §14) on the generated flights workload: ingest
// one batch, materialize, retract ONE leg of it (a typical feed
// correction), and serve the query again, catching up across the
// retraction. A
// fresh service that applies the same ingest and retract before its first
// query is the scratch reference, so the two EDBs are identical even if
// the batch collided with a base leg.
TEST(QueryServiceTest, RetractResumeMatchesScratchOnGeneratedFlights) {
  const std::string batch = GeneratedLegBatch(500);
  const std::string victim = batch.substr(0, batch.find('\n') + 1);

  auto warm = GeneratedFlightsService();
  ASSERT_TRUE(warm->Ingest(batch).ok());
  ASSERT_TRUE(
      warm->Execute(kGeneratedFlightsQuery, kGeneratedFlightsSteps).ok());
  auto removed = warm->Retract(victim);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  auto incremental =
      warm->Execute(kGeneratedFlightsQuery, kGeneratedFlightsSteps);
  ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();

  auto scratch = GeneratedFlightsService();
  ASSERT_TRUE(scratch->Ingest(batch).ok());
  ASSERT_TRUE(scratch->Retract(victim).ok());
  auto cold =
      scratch->Execute(kGeneratedFlightsQuery, kGeneratedFlightsSteps);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  EXPECT_EQ(incremental->answers, cold->answers);
  EXPECT_GE(removed->removed, 1);
  EXPECT_LE(removed->missing, 0);
  // The re-query caught up across the retraction epoch.
  EXPECT_GE(warm->Stats().retract_resumes, 1);
}

TEST(QueryServiceTest, FingerprintIgnoresVariableNames) {
  auto service = FlightsService();
  auto a = service->Prepare("?- cheaporshort(msn, sea, T, C).", "pred,qrp");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  bool cached = false;
  auto b = service->Prepare("?- cheaporshort(msn, sea, Time, Cost).",
                            "pred,qrp", &cached);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_TRUE(cached);

  auto other_steps = service->Prepare("?- cheaporshort(msn, sea, T, C).",
                                      "pred,qrp,mg", &cached);
  ASSERT_TRUE(other_steps.ok());
  EXPECT_NE(*a, *other_steps);
  EXPECT_FALSE(cached);

  auto other_query = service->Prepare("?- cheaporshort(msn, den, T, C).",
                                      "pred,qrp", &cached);
  ASSERT_TRUE(other_query.ok());
  EXPECT_NE(*a, *other_query);
  EXPECT_FALSE(cached);
}

TEST(QueryServiceTest, PreparedCacheEvictsAtCapacity) {
  ServiceOptions options;
  options.prepared_capacity = 1;
  auto service = FlightsService(options);
  ASSERT_TRUE(service->Prepare(kFlightsQuery, "pred,qrp").ok());
  ASSERT_TRUE(service->Prepare(kFlightsQuery, "pred,qrp,mg").ok());
  EXPECT_EQ(service->Stats().prepared_entries, 1u);
  // The survivor is the most recently used; re-preparing it hits.
  bool cached = false;
  ASSERT_TRUE(service->Prepare(kFlightsQuery, "pred,qrp,mg", &cached).ok());
  EXPECT_TRUE(cached);
}

TEST(QueryServiceTest, DuplicateIngestBurnsNoEpoch) {
  auto service = FlightsService();
  // Exactly the first row of flights_edb.cql.
  auto outcome = service->Ingest("singleleg(msn, ord, 50, 80).\n");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->accepted, 0);
  EXPECT_EQ(outcome->duplicates, 1);
  EXPECT_EQ(outcome->epoch, 0);
  EXPECT_EQ(service->epoch(), 0);
}

TEST(QueryServiceTest, IngestErrorsArePositional) {
  auto service = FlightsService();
  auto outcome = service->Ingest("singleleg(msn, ord, 55, 75).\nbad(X) :- q(X).\n");
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.status().message().find("line 2"), std::string::npos)
      << outcome.status().message();
  EXPECT_EQ(service->epoch(), 0);  // nothing committed
}

TEST(PreparedCacheTest, CollisionDegradesToMiss) {
  PreparedCache cache(4);
  auto entry = std::make_shared<PreparedEntry>();
  entry->fingerprint = 42;
  entry->canonical = "alpha";
  cache.Insert(entry);
  EXPECT_EQ(cache.Find(42, "alpha"), entry);
  // Same fingerprint, different canonical text: must not serve `alpha`.
  EXPECT_EQ(cache.Find(42, "beta"), nullptr);
}

// ---------------------------------------------------------------------------
// Epoch isolation: a reader never observes a half-ingested batch.

TEST(QueryServiceTest, ReadersSeeWholeBatchesOnly) {
  // path == edge, so the answer count equals the edge count: epoch k holds
  // exactly 5 * (k + 1) edges, and any other count means a reader saw a
  // torn batch.
  constexpr int kBatch = 5;
  constexpr int kBatches = 8;
  std::string edb;
  for (int i = 0; i < kBatch; ++i) {
    edb += "edge(" + std::to_string(i) + ", " + std::to_string(i + 100) +
           ").\n";
  }
  auto built =
      QueryService::FromText("path(X, Y) :- edge(X, Y).\n", edb, {});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  QueryService& service = **built;

  std::atomic<bool> failed{false};
  std::thread writer([&] {
    for (int b = 1; b <= kBatches; ++b) {
      std::string batch;
      for (int i = 0; i < kBatch; ++i) {
        int id = b * 1000 + i;
        batch += "edge(" + std::to_string(id) + ", " +
                 std::to_string(id + 100) + ").\n";
      }
      if (!service.Ingest(batch).ok()) {
        failed.store(true);
        return;
      }
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      int64_t seen = -1;
      while (seen < kBatches && !failed.load()) {
        auto outcome = service.Execute("?- path(X, Y).", "");
        if (!outcome.ok()) {
          ADD_FAILURE() << outcome.status().ToString();
          failed.store(true);
          return;
        }
        EXPECT_EQ(outcome->answers.size(),
                  static_cast<size_t>(kBatch) * (outcome->epoch + 1))
            << "torn read at epoch " << outcome->epoch;
        seen = outcome->epoch;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load());

  auto final_outcome = service.Execute("?- path(X, Y).", "");
  ASSERT_TRUE(final_outcome.ok());
  EXPECT_EQ(final_outcome->epoch, kBatches);
  EXPECT_EQ(final_outcome->answers.size(),
            static_cast<size_t>(kBatch) * (kBatches + 1));
}

// ---------------------------------------------------------------------------
// Line protocol.

TEST(ProtocolTest, QueryResponseIsFramed) {
  auto service = FlightsService();
  std::vector<std::string> out;
  EXPECT_EQ(HandleLine(*service, "QUERY pred,qrp,mg " + std::string(kFlightsQuery),
                       &out),
            ProtocolAction::kContinue);
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out.front().rfind("OK path=cold epoch=0 answers=", 0), 0u)
      << out.front();
  EXPECT_EQ(out.back(), "END");
  // Answers between header and END, one per line (the magic rewrite adorns
  // the query predicate, e.g. cheaporshort_bbff).
  for (size_t i = 1; i + 1 < out.size(); ++i) {
    EXPECT_EQ(out[i].rfind("cheaporshort", 0), 0u) << out[i];
  }
}

TEST(ProtocolTest, IdentityStepsDash) {
  auto service = FlightsService();
  std::vector<std::string> out;
  HandleLine(*service, "QUERY - " + std::string(kFlightsQuery), &out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().rfind("OK path=", 0), 0u) << out.front();
}

TEST(ProtocolTest, OneGroundPointIsOneAnswer) {
  // p(1, 2) is derived twice — through `Y = X + 1` and copied from r — and
  // is one point: QUERY must list it once under single-fact subsumption.
  auto built = QueryService::FromText(
      "p(X, Y) :- q(X), Y = X + 1.\np(X, Y) :- r(X, Y).\n",
      "q(1).\nr(1, 2).\n", {});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::vector<std::string> out;
  HandleLine(**built, "QUERY - ?- p(X, Y).", &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_NE(out.front().find(" answers=1"), std::string::npos) << out.front();
  EXPECT_EQ(out[1], "p(1, 2)");
  EXPECT_EQ(out.back(), "END");
}

TEST(ProtocolTest, IngestThenQueryResumes) {
  auto service = FlightsService();
  std::vector<std::string> out;
  HandleLine(*service, "QUERY pred,qrp,mg " + std::string(kFlightsQuery),
             &out);
  out.clear();
  HandleLine(*service, "INGEST singleleg(msn, sea, 150, 80).", &out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front(), "OK accepted=1 duplicates=0 epoch=1");
  out.clear();
  HandleLine(*service, "QUERY pred,qrp,mg " + std::string(kFlightsQuery),
             &out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().rfind("OK path=resumed epoch=1", 0), 0u)
      << out.front();
}

TEST(ProtocolTest, ErrorsKeepConnectionAlive) {
  auto service = FlightsService();
  std::vector<std::string> out;
  EXPECT_EQ(HandleLine(*service, "BOGUS", &out), ProtocolAction::kContinue);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rfind("ERR INVALID_ARGUMENT unknown command 'BOGUS'", 0),
            0u)
      << out[0];
  EXPECT_EQ(out[1], "END");

  out.clear();
  HandleLine(*service, "QUERY - ?- broken(", &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rfind("ERR ", 0), 0u) << out[0];
  EXPECT_EQ(out[1], "END");
}

TEST(ProtocolTest, HostileExpressionsGetErrAndServingContinues) {
  // Unbounded nesting would overflow the recursive-descent parser's stack,
  // and a 100k-digit numeral would hold the server for minutes in exact
  // arithmetic. Each line must get a typed error quickly, and the service
  // must keep serving.
  auto service = FlightsService();
  const std::string prefix = "QUERY pred ?- cheaporshort(msn, sea, T, C), X = ";
  const std::string lines[] = {
      prefix + std::string(100000, '(') + "1" + std::string(100000, ')') +
          ".",
      prefix + std::string(100000, '-') + "1.",
      prefix + std::string(100000, '7') + ".",
  };
  for (const std::string& line : lines) {
    std::vector<std::string> out;
    auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(HandleLine(*service, line, &out), ProtocolAction::kContinue);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].rfind("ERR PARSE_ERROR ", 0), 0u)
        << out[0].substr(0, 200);
    EXPECT_NE(out[0].find("line 1"), std::string::npos) << out[0];
    EXPECT_EQ(out[1], "END");

    out.clear();
    HandleLine(*service, "QUERY pred " + std::string(kFlightsQuery), &out);
    ASSERT_GE(out.size(), 2u);
    EXPECT_EQ(out.front().rfind("OK ", 0), 0u) << out.front();
    EXPECT_EQ(out.back(), "END");
  }
}

TEST(ProtocolTest, StatsAndShutdown) {
  auto service = FlightsService();
  std::vector<std::string> out;
  HandleLine(*service, "PREPARE pred,qrp,mg " + std::string(kFlightsQuery),
             &out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().rfind("OK fingerprint=", 0), 0u) << out.front();
  EXPECT_NE(out.front().find("cached=0"), std::string::npos);

  out.clear();
  HandleLine(*service, "STATS", &out);
  ASSERT_GE(out.size(), 3u);
  EXPECT_EQ(out.front(), "OK");
  EXPECT_EQ(out.back(), "END");
  bool saw_entries = false;
  for (const std::string& line : out) {
    if (line == "prepared_entries=1") saw_entries = true;
  }
  EXPECT_TRUE(saw_entries);

  out.clear();
  EXPECT_EQ(HandleLine(*service, "SHUTDOWN", &out),
            ProtocolAction::kShutdown);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "OK bye");
}

// ---------------------------------------------------------------------------
// WAL-backed durability: the epoch lifecycle across crash/recover edges.

/// mkdtemp'd WAL directory, removed with its known files on scope exit.
struct TempWalDir {
  std::string path;
  TempWalDir() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                       "/cqlopt-svc-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) != nullptr) path.assign(buf.data());
  }
  ~TempWalDir() {
    if (path.empty()) return;
    for (const char* name : {"/wal.log", "/snapshot.cql", "/snapshot.tmp"}) {
      ::unlink((path + name).c_str());
    }
    ::rmdir(path.c_str());
  }
};

std::unique_ptr<QueryService> DurableFlights(const std::string& wal_dir,
                                             long compact_bytes = 0) {
  ServiceOptions options;
  options.wal_dir = wal_dir;
  options.wal_compact_bytes = compact_bytes;
  return FlightsService(options);
}

TEST(WalRecoveryTest, EmptyWalRecoversToEpochZero) {
  TempWalDir dir;
  ASSERT_FALSE(dir.path.empty());
  auto service = DurableFlights(dir.path);
  RecoverOutcome outcome;
  ASSERT_TRUE(service->Recover(&outcome).ok());
  EXPECT_EQ(outcome.epoch, 0);
  EXPECT_EQ(outcome.batches_replayed, 0);
  EXPECT_FALSE(outcome.snapshot_loaded);
  EXPECT_EQ(outcome.truncated_bytes, 0);
  EXPECT_TRUE(outcome.warning.empty());
  // A freshly recovered empty log serves exactly the constructor EDB.
  auto served = service->Execute(kFlightsQuery, "pred,qrp,mg");
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->epoch, 0);
}

TEST(WalRecoveryTest, ReplayReproducesTheEpochSequence) {
  TempWalDir dir;
  ASSERT_FALSE(dir.path.empty());
  std::string pre_crash;
  {
    auto service = DurableFlights(dir.path);
    ASSERT_TRUE(service->Ingest("singleleg(msn, sea, 150, 80).\n").ok());
    ASSERT_TRUE(service->Ingest("singleleg(sea, msn, 210, 140).\n"
                                "singleleg(den, jfk, 240, 160).\n")
                    .ok());
    EXPECT_EQ(service->epoch(), 2);
    pre_crash = service->RenderStateText();
  }  // "crash": only the WAL directory survives
  auto revived = DurableFlights(dir.path);
  RecoverOutcome outcome;
  ASSERT_TRUE(revived->Recover(&outcome).ok());
  EXPECT_EQ(outcome.epoch, 2);
  EXPECT_EQ(outcome.batches_replayed, 2);
  EXPECT_EQ(revived->RenderStateText(), pre_crash);
  ServiceStats stats = revived->Stats();
  EXPECT_TRUE(stats.wal_enabled);
  EXPECT_EQ(stats.wal_replayed_batches, 2);
}

TEST(WalRecoveryTest, RecoversSnapshotPlusTailBatches) {
  TempWalDir dir;
  ASSERT_FALSE(dir.path.empty());
  std::string pre_crash;
  {
    auto service = DurableFlights(dir.path);
    ASSERT_TRUE(service->Ingest("singleleg(msn, sea, 150, 80).\n").ok());
    ASSERT_TRUE(service->Compact().ok());
    // Tail batches after the compaction land in the (reset) log.
    ASSERT_TRUE(service->Ingest("singleleg(sea, msn, 210, 140).\n").ok());
    ASSERT_TRUE(service->Ingest("singleleg(den, jfk, 240, 160).\n").ok());
    EXPECT_EQ(service->epoch(), 3);
    EXPECT_EQ(service->Stats().wal_compactions, 1);
    pre_crash = service->RenderStateText();
  }
  auto revived = DurableFlights(dir.path);
  RecoverOutcome outcome;
  ASSERT_TRUE(revived->Recover(&outcome).ok());
  EXPECT_TRUE(outcome.snapshot_loaded);
  EXPECT_EQ(outcome.snapshot_epoch, 1);
  EXPECT_EQ(outcome.batches_replayed, 2);
  EXPECT_EQ(outcome.epoch, 3);
  EXPECT_EQ(revived->RenderStateText(), pre_crash);
}

TEST(WalRecoveryTest, AutoCompactionTriggersPastTheThreshold) {
  TempWalDir dir;
  ASSERT_FALSE(dir.path.empty());
  // Any commit pushing wal.log past ~1 byte compacts, so every batch does.
  auto service = DurableFlights(dir.path, /*compact_bytes=*/1);
  ASSERT_TRUE(service->Ingest("singleleg(msn, sea, 150, 80).\n").ok());
  ASSERT_TRUE(service->Ingest("singleleg(sea, msn, 210, 140).\n").ok());
  EXPECT_EQ(service->Stats().wal_compactions, 2);
  std::string pre_crash = service->RenderStateText();
  service.reset();

  auto revived = DurableFlights(dir.path, /*compact_bytes=*/1);
  RecoverOutcome outcome;
  ASSERT_TRUE(revived->Recover(&outcome).ok());
  EXPECT_TRUE(outcome.snapshot_loaded);
  EXPECT_EQ(outcome.snapshot_epoch, 2);
  EXPECT_EQ(outcome.batches_replayed, 0);
  EXPECT_EQ(revived->RenderStateText(), pre_crash);
}

TEST(WalRecoveryTest, AutoCompactionFollowsAnExpiringTick) {
  TempWalDir dir;
  ASSERT_FALSE(dir.path.empty());
  // A 100-byte threshold: the TTL insert's record leaves wal.log under it,
  // the expiry sweep's record (which renders the expired fact) crosses it.
  auto service = DurableFlights(dir.path, /*compact_bytes=*/100);
  ASSERT_TRUE(service->Ingest("singleleg(den, jfk, 240, 160).\n", 100).ok());
  ASSERT_EQ(service->Stats().wal_compactions, 0);
  auto ticked = service->AdvanceClock(150);
  ASSERT_TRUE(ticked.ok());
  EXPECT_EQ(ticked->expired, 1);
  ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.wal_compactions, 1);
  EXPECT_LE(stats.wal_bytes, 100);
  std::string pre_crash = service->RenderStateText();
  service.reset();

  auto revived = DurableFlights(dir.path, /*compact_bytes=*/100);
  RecoverOutcome outcome;
  ASSERT_TRUE(revived->Recover(&outcome).ok());
  EXPECT_TRUE(outcome.snapshot_loaded);
  EXPECT_EQ(revived->RenderStateText(), pre_crash);
}

TEST(WalRecoveryTest, DoubleRecoverIsIdempotent) {
  TempWalDir dir;
  ASSERT_FALSE(dir.path.empty());
  {
    auto service = DurableFlights(dir.path);
    ASSERT_TRUE(service->Ingest("singleleg(msn, sea, 150, 80).\n").ok());
  }
  auto revived = DurableFlights(dir.path);
  RecoverOutcome first;
  ASSERT_TRUE(revived->Recover(&first).ok());
  EXPECT_EQ(first.epoch, 1);
  EXPECT_EQ(first.batches_replayed, 1);
  std::string state = revived->RenderStateText();

  // A second Recover must not replay again (no duplicate epochs burned).
  RecoverOutcome second;
  ASSERT_TRUE(revived->Recover(&second).ok());
  EXPECT_EQ(second.epoch, 1);
  EXPECT_EQ(second.batches_replayed, 0);
  EXPECT_EQ(revived->RenderStateText(), state);
  EXPECT_EQ(revived->epoch(), 1);
}

TEST(WalRecoveryTest, RecoverIsANoOpWithoutAWal) {
  auto service = FlightsService();
  RecoverOutcome outcome;
  ASSERT_TRUE(service->Recover(&outcome).ok());
  EXPECT_EQ(outcome.epoch, 0);
  EXPECT_EQ(outcome.batches_replayed, 0);
  EXPECT_FALSE(service->Stats().wal_enabled);
  EXPECT_EQ(service->Compact().code(), StatusCode::kInvalidArgument);
}

TEST(WalRecoveryTest, IngestsAfterRecoveryAppendToTheLog) {
  TempWalDir dir;
  ASSERT_FALSE(dir.path.empty());
  {
    auto service = DurableFlights(dir.path);
    ASSERT_TRUE(service->Ingest("singleleg(msn, sea, 150, 80).\n").ok());
  }
  {
    auto revived = DurableFlights(dir.path);
    ASSERT_TRUE(revived->Recover(nullptr).ok());
    // Replayed batches must not have been re-logged: the next recovery
    // sees exactly two records, not three.
    ASSERT_TRUE(revived->Ingest("singleleg(sea, msn, 210, 140).\n").ok());
    EXPECT_EQ(revived->epoch(), 2);
  }
  auto third = DurableFlights(dir.path);
  RecoverOutcome outcome;
  ASSERT_TRUE(third->Recover(&outcome).ok());
  EXPECT_EQ(outcome.batches_replayed, 2);
  EXPECT_EQ(outcome.epoch, 2);
}

// ---------------------------------------------------------------------------
// Replication at the protocol boundary: ASOF reads, follower write
// rejection, the REPLICATE feed framing, HEALTH, and PROMOTE (DESIGN.md
// §15). The Replicator end of these verbs is exercised in test_replica.cc;
// here the contract under test is the line framing itself.

TEST(ProtocolTest, AsOfQueryGatesOnTheEpoch) {
  auto service = FlightsService();
  std::vector<std::string> out;
  HandleLine(*service,
             std::string("QUERY pred,qrp,mg ") + kFlightsQuery + " ASOF 0",
             &out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().rfind("OK path=", 0), 0u) << out.front();

  // A floor past the head is a typed UNAVAILABLE — the client retries or
  // redirects, never silently reads stale state.
  out.clear();
  HandleLine(*service,
             std::string("QUERY pred,qrp,mg ") + kFlightsQuery + " ASOF 3",
             &out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().rfind("ERR UNAVAILABLE", 0), 0u) << out.front();

  // Once the head catches up, the identical line is serveable and the
  // response names the epoch that answered.
  for (int i = 0; i < 3; ++i) {
    out.clear();
    HandleLine(*service,
               "INGEST singleleg(asof" + std::to_string(i) + ", q, 90, 40).",
               &out);
    ASSERT_EQ(out.front().rfind("OK accepted=", 0), 0u) << out.front();
  }
  out.clear();
  HandleLine(*service,
             std::string("QUERY pred,qrp,mg ") + kFlightsQuery + " ASOF 3",
             &out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().rfind("OK path=", 0), 0u) << out.front();
  EXPECT_NE(out.front().find(" epoch=3 "), std::string::npos) << out.front();
}

TEST(ProtocolTest, FollowerRefusesWritesUntilPromoted) {
  auto service = FlightsService();
  service->SetRole(NodeRole::kFollower);
  const char* writes[] = {
      "INGEST singleleg(x, y, 100, 50).",
      "RETRACT singleleg(msn, sea, 150, 80).",
      "TICK 25",
  };
  for (const char* line : writes) {
    std::vector<std::string> out;
    HandleLine(*service, line, &out);
    ASSERT_EQ(out.size(), 2u) << line;
    EXPECT_EQ(out.front().rfind("ERR FAILED_PRECONDITION", 0), 0u)
        << line << " -> " << out.front();
    EXPECT_NE(out.front().find("read-only follower"), std::string::npos)
        << out.front();
  }
  // Reads are never role-gated, and a bare TICK only reads the clock.
  std::vector<std::string> read;
  HandleLine(*service, std::string("QUERY pred,qrp,mg ") + kFlightsQuery,
             &read);
  ASSERT_FALSE(read.empty());
  EXPECT_EQ(read.front().rfind("OK path=", 0), 0u) << read.front();
  read.clear();
  HandleLine(*service, "TICK", &read);
  ASSERT_FALSE(read.empty());
  EXPECT_EQ(read.front().rfind("OK now_ms=", 0), 0u) << read.front();

  // PROMOTE flips the role and the same write is accepted.
  std::vector<std::string> promote;
  HandleLine(*service, "PROMOTE", &promote);
  ASSERT_FALSE(promote.empty());
  EXPECT_EQ(promote.front(), "OK role=primary epoch=0");
  std::vector<std::string> write;
  HandleLine(*service, "INGEST singleleg(x, y, 100, 50).", &write);
  ASSERT_FALSE(write.empty());
  EXPECT_EQ(write.front().rfind("OK accepted=", 0), 0u) << write.front();
}

TEST(ProtocolTest, ReplicateShipsTheFeedAndHealthReportsTheRole) {
  TempWalDir dir;
  ASSERT_FALSE(dir.path.empty());
  auto service = DurableFlights(dir.path);

  // Bootstrap probe: base -1 can never match a generation, so the reply is
  // a full snapshot cut at the head.
  std::vector<std::string> out;
  HandleLine(*service, "REPLICATE -1 0", &out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().rfind("OK base=0", 0), 0u) << out.front();
  EXPECT_NE(out.front().find(" snapshot=1"), std::string::npos) << out.front();

  // A committed batch ships as an R line — the hex of its WAL record frame —
  // which the WAL's frame decoder accepts whole, yielding a well-formed
  // record.
  ASSERT_TRUE(service->Ingest("singleleg(rep, wire, 100, 50).\n").ok());
  out.clear();
  HandleLine(*service, "REPLICATE 0 0 8", &out);
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out.front().rfind("OK base=0 next=1 feed=1 epoch=1", 0), 0u)
      << out.front();
  ASSERT_EQ(out[1].rfind("R ", 0), 0u) << out[1];
  std::string frame;
  ASSERT_TRUE(HexDecode(out[1].substr(2), &frame));
  size_t offset = 0;
  std::string_view payload;
  Status framed = DecodeWalFrame(frame, &offset, &payload);
  ASSERT_TRUE(framed.ok()) << framed.ToString();
  EXPECT_EQ(offset, frame.size());
  Result<WalRecord> record = DecodeWalRecord(std::string(payload));
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->kind, WalRecord::Kind::kInsert);

  // Malformed coordinates are a typed INVALID_ARGUMENT naming the shape.
  out.clear();
  HandleLine(*service, "REPLICATE zero 0", &out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().rfind("ERR INVALID_ARGUMENT", 0), 0u) << out.front();

  // HEALTH on a healthy primary: role/epoch/clock, no quarantine, no lag
  // fields (-1: no replicator attached).
  out.clear();
  HandleLine(*service, "HEALTH", &out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().rfind("OK role=primary epoch=1", 0), 0u)
      << out.front();
  EXPECT_NE(out.front().find(" quarantined=0"), std::string::npos);
  EXPECT_NE(out.front().find(" lag=-1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Socket I/O: WriteFull against short writes and injected faults.

TEST(ServerIoTest, WriteFullSurvivesInjectedShortWrites) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = "OK answers=2\na(1).\na(2).\nEND\n";
  // Force 1-byte transfers for the whole message: the loop must keep
  // pushing until every byte is out.
  failpoint::Arm(failpoint::kServerShortWrite, /*skip=*/0, /*times=*/0);
  std::thread writer([&] {
    EXPECT_TRUE(WriteFull(fds[0], payload));
    ::close(fds[0]);
  });
  std::string received;
  char chunk[64];
  ssize_t n;
  while ((n = ::read(fds[1], chunk, sizeof(chunk))) > 0) {
    received.append(chunk, static_cast<size_t>(n));
  }
  writer.join();
  failpoint::DisarmAll();
  ::close(fds[1]);
  EXPECT_EQ(received, payload);
}

TEST(ServerIoTest, WriteFullReportsAClosedPeerInsteadOfSignalling) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  // Writing into a closed peer raises EPIPE, not SIGPIPE (MSG_NOSIGNAL):
  // surviving this call IS the assertion; the false return is the protocol
  // loop's signal to drop the session.
  std::string big(1 << 20, 'x');
  EXPECT_FALSE(WriteFull(fds[0], big));
  ::close(fds[0]);
}

TEST(ProtocolTest, ParseInt64RejectsJunkAndOverflow) {
  int64_t value = 0;
  EXPECT_TRUE(ParseInt64("9223372036854775807", &value));
  EXPECT_EQ(value, std::numeric_limits<int64_t>::max());
  EXPECT_TRUE(ParseInt64("-9223372036854775808", &value));
  EXPECT_EQ(value, std::numeric_limits<int64_t>::min());
  EXPECT_FALSE(ParseInt64("9223372036854775808", &value));
  EXPECT_FALSE(ParseInt64("-9223372036854775809", &value));
  EXPECT_FALSE(ParseInt64("18446744073709551617", &value));
  EXPECT_FALSE(ParseInt64("12kb", &value));
  EXPECT_FALSE(ParseInt64("-", &value));
  EXPECT_FALSE(ParseInt64("", &value));
}

TEST(ProtocolTest, OutOfRangeTickIsInvalidArgument) {
  auto service = FlightsService();
  std::vector<std::string> out;
  // 2^64 + 1: used to wrap to 1 and advance the clock.
  HandleLine(*service, "TICK 18446744073709551617", &out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].rfind("ERR INVALID_ARGUMENT", 0), 0u) << out[0];
  EXPECT_EQ(service->now_ms(), 0);
}

TEST(ProtocolTest, ClockAndTtlOverflowCommitNothing) {
  TempWalDir dir;
  ASSERT_FALSE(dir.path.empty());
  auto service = DurableFlights(dir.path);
  std::vector<std::string> out;
  HandleLine(*service, "TICK 9223372036854775807", &out);
  ASSERT_EQ(out[0], "OK now_ms=9223372036854775807 expired=0 epoch=0");
  const long appends = service->Stats().wal_appends;

  // now + ttl would pass INT64_MAX: refused, no epoch, no WAL record.
  out.clear();
  HandleLine(*service, "INGEST TTL 5 singleleg(msn, sea, 100, 50).", &out);
  EXPECT_EQ(out[0].rfind("ERR INVALID_ARGUMENT", 0), 0u) << out[0];
  // now + delta would pass INT64_MAX: refused rather than a silent no-op.
  out.clear();
  HandleLine(*service, "TICK 1", &out);
  EXPECT_EQ(out[0].rfind("ERR INVALID_ARGUMENT", 0), 0u) << out[0];

  EXPECT_EQ(service->epoch(), 0);
  EXPECT_EQ(service->now_ms(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(service->Stats().wal_appends, appends);
  EXPECT_EQ(service->Stats().ttl_pending, 0u);
}

TEST(ProtocolTest, ServeStreamsRunsASession) {
  auto service = FlightsService();
  std::istringstream in(
      "PREPARE pred,qrp,mg " + std::string(kFlightsQuery) + "\n" +
      "QUERY pred,qrp,mg " + std::string(kFlightsQuery) + "\n" +
      "INGEST singleleg(msn, sea, 150, 80).\n" +
      "QUERY pred,qrp,mg " + std::string(kFlightsQuery) + "\n" +
      "SHUTDOWN\n" + "QUERY after shutdown must not be served\n");
  std::ostringstream out;
  ASSERT_TRUE(ServeStreams(*service, in, out).ok());
  std::string transcript = out.str();
  EXPECT_NE(transcript.find("OK fingerprint="), std::string::npos);
  EXPECT_NE(transcript.find("OK path=prepared epoch=0"), std::string::npos);
  EXPECT_NE(transcript.find("OK accepted=1"), std::string::npos);
  EXPECT_NE(transcript.find("OK path=resumed epoch=1"), std::string::npos);
  EXPECT_NE(transcript.find("OK bye"), std::string::npos);
  EXPECT_EQ(transcript.find("after shutdown"), std::string::npos);
}

TEST(ProtocolTest, PriorityVerbReportsTheClassChange) {
  auto service = FlightsService();
  std::vector<std::string> lines;
  LineOutcome outcome;
  HandleLine(*service, "PRIORITY batch", &lines, &outcome);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "OK priority=batch");
  EXPECT_EQ(lines[1], "END");
  EXPECT_TRUE(outcome.priority_changed);
  EXPECT_EQ(outcome.priority, PriorityClass::kBatch);

  lines.clear();
  outcome = {};
  HandleLine(*service, "PRIORITY urgent", &lines, &outcome);
  EXPECT_EQ(lines[0].rfind("ERR INVALID_ARGUMENT", 0), 0u) << lines[0];
  EXPECT_FALSE(outcome.priority_changed);
}

// ---------------------------------------------------------------------------
// The epoll serve loop: accept churn, TCP, pipelining, overload shedding,
// and concurrent clients against a serial replay.

/// Runs ServeLoop on a background thread and blocks until the listeners
/// are bound (so tests know the socket path / ephemeral TCP port is live).
struct TestServer {
  TestServer(QueryService& service, ServerOptions opts)
      : options(std::move(opts)) {
    std::promise<ServerEndpoints> promise;
    std::future<ServerEndpoints> future = promise.get_future();
    options.on_ready = [&promise](const ServerEndpoints& endpoints) {
      promise.set_value(endpoints);
    };
    thread = std::thread([this, &service] {
      status = ServeLoop(service, options);
    });
    ready = future.wait_for(std::chrono::seconds(20)) ==
            std::future_status::ready;
    if (ready) endpoints = future.get();
  }

  ~TestServer() {
    if (thread.joinable()) thread.join();
  }

  ServerOptions options;
  ServerEndpoints endpoints;
  bool ready = false;
  Status status = Status::OK();
  std::thread thread;
};

int ConnectUnix(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int ConnectTcp(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Reads one END-framed response (its lines, END excluded). `buffer`
/// carries partial reads between calls on the same connection. Empty on
/// transport failure.
std::vector<std::string> ReadResponse(int fd, std::string* buffer) {
  std::vector<std::string> lines;
  char chunk[4096];
  for (;;) {
    size_t newline = buffer->find('\n');
    if (newline == std::string::npos) {
      ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return {};
      buffer->append(chunk, static_cast<size_t>(n));
      continue;
    }
    std::string line = buffer->substr(0, newline);
    buffer->erase(0, newline + 1);
    if (line == "END") return lines;
    lines.push_back(line);
  }
}

struct ServerFixtureDirs {
  TempWalDir dir;  // reused as a scratch directory for socket files
  std::string SocketPath() const { return dir.path + "/cqld.sock"; }
};

TEST(ServeLoopTest, ConnectionChurnDoesNotAccumulateState) {
  ServerFixtureDirs scratch;
  auto service = FlightsService();
  ServerOptions options;
  options.socket_path = scratch.SocketPath();
  TestServer server(*service, options);
  ASSERT_TRUE(server.ready);

  // The old thread-per-connection loop kept one dead thread per finished
  // connection until shutdown; the epoll loop must serve an arbitrary
  // churn of short-lived connections off one thread + the worker pool.
  const std::string query =
      std::string("QUERY pred,qrp,mg ") + kFlightsQuery + "\n";
  for (int i = 0; i < 50; ++i) {
    int fd = ConnectUnix(scratch.SocketPath());
    ASSERT_GE(fd, 0) << "connection " << i;
    ASSERT_TRUE(SendAll(fd, query));
    std::string buffer;
    std::vector<std::string> response = ReadResponse(fd, &buffer);
    ASSERT_FALSE(response.empty()) << "connection " << i;
    EXPECT_EQ(response.front().rfind("OK path=", 0), 0u) << response.front();
    ::close(fd);
  }

  int fd = ConnectUnix(scratch.SocketPath());
  ASSERT_GE(fd, 0);
  std::string buffer;
  ASSERT_TRUE(SendAll(fd, "STATS\n"));
  std::vector<std::string> stats = ReadResponse(fd, &buffer);
  bool saw_queries = false;
  for (const std::string& line : stats) {
    if (line == "queries=50") saw_queries = true;
  }
  EXPECT_TRUE(saw_queries);
  ASSERT_TRUE(SendAll(fd, "SHUTDOWN\n"));
  std::vector<std::string> bye = ReadResponse(fd, &buffer);
  ASSERT_FALSE(bye.empty());
  EXPECT_EQ(bye.front(), "OK bye");
  ::close(fd);
  server.thread.join();
  EXPECT_TRUE(server.status.ok()) << server.status.ToString();
}

TEST(ServeLoopTest, TcpListenerServesOnAnEphemeralPort) {
  auto service = FlightsService();
  ServerOptions options;
  options.tcp_port = 0;  // kernel-assigned; reported through on_ready
  options.listen_backlog = 8;
  TestServer server(*service, options);
  ASSERT_TRUE(server.ready);
  ASSERT_GT(server.endpoints.tcp_port, 0);

  int fd = ConnectTcp(server.endpoints.tcp_port);
  ASSERT_GE(fd, 0);
  std::string buffer;
  ASSERT_TRUE(SendAll(fd, std::string("QUERY pred,qrp,mg ") + kFlightsQuery +
                              "\nSHUTDOWN\n"));
  std::vector<std::string> response = ReadResponse(fd, &buffer);
  ASSERT_FALSE(response.empty());
  EXPECT_EQ(response.front().rfind("OK path=", 0), 0u);
  std::vector<std::string> bye = ReadResponse(fd, &buffer);
  ASSERT_FALSE(bye.empty());
  EXPECT_EQ(bye.front(), "OK bye");
  ::close(fd);
  server.thread.join();
  EXPECT_TRUE(server.status.ok()) << server.status.ToString();
}

TEST(ServeLoopTest, PipelinedRequestsFlushInRequestOrder) {
  ServerFixtureDirs scratch;
  auto service = FlightsService();
  ServerOptions options;
  options.socket_path = scratch.SocketPath();
  options.scheduler.workers = 4;
  TestServer server(*service, options);
  ASSERT_TRUE(server.ready);

  int fd = ConnectUnix(scratch.SocketPath());
  ASSERT_GE(fd, 0);
  // One write, five requests: however the worker pool interleaves them,
  // responses must come back in request order.
  ASSERT_TRUE(SendAll(
      fd, std::string("QUERY pred,qrp,mg ") + kFlightsQuery + "\n" +
              "PRIORITY interactive\n" +
              "INGEST singleleg(pipea, pipeb, 100, 50).\n" +
              "QUERY pred,qrp,mg " + kFlightsQuery + "\nSHUTDOWN\n"));
  std::string buffer;
  std::vector<std::string> first = ReadResponse(fd, &buffer);
  std::vector<std::string> second = ReadResponse(fd, &buffer);
  std::vector<std::string> third = ReadResponse(fd, &buffer);
  std::vector<std::string> fourth = ReadResponse(fd, &buffer);
  std::vector<std::string> fifth = ReadResponse(fd, &buffer);
  ASSERT_FALSE(fifth.empty());
  EXPECT_EQ(first.front().rfind("OK path=", 0), 0u) << first.front();
  EXPECT_EQ(second.front(), "OK priority=interactive");
  EXPECT_EQ(third.front().rfind("OK accepted=1", 0), 0u) << third.front();
  // Pipelined requests are admitted concurrently (so a burst can shed),
  // and the pool may interleave their execution — the guarantee is that
  // *responses* flush in request order, not that execution is serial, so
  // the second query may see epoch 0 or 1.
  EXPECT_EQ(fourth.front().rfind("OK path=", 0), 0u) << fourth.front();
  EXPECT_EQ(fifth.front(), "OK bye");
  ::close(fd);
  server.thread.join();
  EXPECT_TRUE(server.status.ok()) << server.status.ToString();
}

TEST(ServeLoopTest, OverloadShedsTypedErrorsWithoutStallingAccept) {
  failpoint::DisarmAll();
  ServerFixtureDirs scratch;
  auto service = FlightsService();
  ServerOptions options;
  options.socket_path = scratch.SocketPath();
  options.scheduler.workers = 2;
  options.scheduler.queue_depth = 4;
  TestServer server(*service, options);
  ASSERT_TRUE(server.ready);

  int a = ConnectUnix(scratch.SocketPath());
  ASSERT_GE(a, 0);
  // Freeze the workers, then burst past the admission bound: 4 requests
  // queue, the rest must shed synchronously with a typed error.
  failpoint::Arm(failpoint::kSchedulerWorkerHold, 0, 0);
  std::string burst;
  for (int i = 0; i < 10; ++i) {
    burst += std::string("QUERY pred,qrp,mg ") + kFlightsQuery + "\n";
  }
  ASSERT_TRUE(SendAll(a, burst));
  // Give the loop time to frame and submit the whole burst.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // The accept loop must stay responsive while the pool is saturated: a
  // new client's request is refused *immediately* with RESOURCE_EXHAUSTED
  // (its response cannot be stuck behind the frozen ones).
  int b = ConnectUnix(scratch.SocketPath());
  ASSERT_GE(b, 0);
  std::string buffer_b;
  ASSERT_TRUE(
      SendAll(b, std::string("QUERY pred,qrp,mg ") + kFlightsQuery + "\n"));
  std::vector<std::string> refused = ReadResponse(b, &buffer_b);
  ASSERT_FALSE(refused.empty());
  EXPECT_EQ(refused.front().rfind("ERR RESOURCE_EXHAUSTED", 0), 0u)
      << refused.front();

  failpoint::DisarmAll();
  // Every burst request gets exactly one response, in order: the admitted
  // prefix answers OK, the overflow is typed shed — zero stalled requests.
  std::string buffer_a;
  int ok = 0;
  int shed = 0;
  for (int i = 0; i < 10; ++i) {
    std::vector<std::string> response = ReadResponse(a, &buffer_a);
    ASSERT_FALSE(response.empty()) << "request " << i << " unanswered";
    if (response.front().rfind("OK path=", 0) == 0) {
      EXPECT_EQ(shed, 0) << "OK after a shed: responses out of order";
      ++ok;
    } else {
      EXPECT_EQ(response.front().rfind("ERR RESOURCE_EXHAUSTED", 0), 0u)
          << response.front();
      ++shed;
    }
  }
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(shed, 6);

  ASSERT_TRUE(SendAll(b, "SHUTDOWN\n"));
  std::vector<std::string> bye = ReadResponse(b, &buffer_b);
  ASSERT_FALSE(bye.empty());
  EXPECT_EQ(bye.front(), "OK bye");
  ::close(a);
  ::close(b);
  server.thread.join();
  EXPECT_TRUE(server.status.ok()) << server.status.ToString();
}

TEST(ServeLoopTest, DrainMidPipelineFinishesInFlightRefusesNewAndExitsOk) {
  ServerFixtureDirs scratch;
  auto service = FlightsService();
  // The SIGTERM self-pipe exactly as cqld wires it (tools/cqld.cc).
  int drain_pipe[2] = {-1, -1};
  ASSERT_EQ(::pipe2(drain_pipe, O_NONBLOCK | O_CLOEXEC), 0);
  ServerOptions options;
  options.socket_path = scratch.SocketPath();
  options.scheduler.workers = 1;
  options.scheduler.queue_depth = 256;  // the whole pipeline must admit
  options.drain_fd = drain_pipe[0];
  options.drain_timeout_ms = 30000;
  TestServer server(*service, options);
  ASSERT_TRUE(server.ready);

  // A deep pipeline of alternating unique ingests and resumed queries: one
  // worker chews through it for long enough that the drain below lands
  // squarely mid-flight.
  constexpr int kPairs = 40;
  std::string pipeline;
  for (int i = 0; i < kPairs; ++i) {
    pipeline += "INGEST singleleg(drain" + std::to_string(i) +
                ", sea, 150, 80).\n";
    pipeline += std::string("QUERY pred,qrp,mg ") + kFlightsQuery + "\n";
  }
  int fd = ConnectUnix(scratch.SocketPath());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, pipeline));
  std::string buffer;
  std::vector<std::string> first = ReadResponse(fd, &buffer);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first.front().rfind("OK accepted=", 0), 0u) << first.front();

  // Fire the drain. Its observable leading edge is the listener closing.
  char byte = 1;
  ASSERT_EQ(::write(drain_pipe[1], &byte, 1), 1);
  bool listener_closed = false;
  for (int i = 0; i < 1500; ++i) {
    int probe = ConnectUnix(scratch.SocketPath());
    if (probe < 0) {
      listener_closed = true;
      break;
    }
    ::close(probe);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(listener_closed);

  // A line arriving during the drain is refused with a typed UNAVAILABLE,
  // delivered after every response admitted before it — never interleaved.
  ASSERT_TRUE(
      SendAll(fd, std::string("QUERY pred,qrp,mg ") + kFlightsQuery + "\n"));
  int ok_responses = 1;  // the first, read above
  std::string refused;
  for (int i = 0; i < 2 * kPairs + 1 && refused.empty(); ++i) {
    std::vector<std::string> response = ReadResponse(fd, &buffer);
    ASSERT_FALSE(response.empty()) << "response " << i;
    if (response.front().rfind("OK ", 0) == 0u) {
      ++ok_responses;
      continue;
    }
    refused = response.front();
  }
  EXPECT_EQ(ok_responses, 2 * kPairs);
  EXPECT_EQ(refused, "ERR UNAVAILABLE server draining: request refused");

  // With everything owed flushed, the loop exits 0 on its own — the drain
  // path never needs a SHUTDOWN verb.
  ::close(fd);
  server.thread.join();
  EXPECT_TRUE(server.status.ok()) << server.status.ToString();
  ::close(drain_pipe[0]);
  ::close(drain_pipe[1]);
}

TEST(ServeLoopTest, ConcurrentClientsMatchSerialReplay) {
  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  ServerFixtureDirs scratch;
  auto service = FlightsService();
  ServerOptions options;
  options.socket_path = scratch.SocketPath();
  options.scheduler.workers = 8;
  TestServer server(*service, options);
  ASSERT_TRUE(server.ready);

  auto ingest_line = [](int client, int round) {
    std::string tag = std::to_string(client) + std::to_string(round);
    return "INGEST singleleg(sv" + tag + "a, sv" + tag + "b, " +
           std::to_string(110 + client * 10 + round) + ", " +
           std::to_string(60 + client) + ").";
  };

  std::atomic<int> errors{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      int fd = ConnectUnix(scratch.SocketPath());
      if (fd < 0) {
        errors.fetch_add(1);
        return;
      }
      std::string buffer;
      for (int r = 0; r < kRounds; ++r) {
        for (const std::string& request :
             {ingest_line(c, r),
              std::string("QUERY pred,qrp,mg ") + kFlightsQuery}) {
          if (!SendAll(fd, request + "\n")) {
            errors.fetch_add(1);
            break;
          }
          std::vector<std::string> response = ReadResponse(fd, &buffer);
          if (response.empty() || response.front().rfind("OK", 0) != 0) {
            errors.fetch_add(1);
          }
        }
      }
      ::close(fd);
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(errors.load(), 0);

  // Serial replay of the same (disjoint) batches in a fixed order.
  auto serial = FlightsService();
  for (int c = 0; c < kClients; ++c) {
    for (int r = 0; r < kRounds; ++r) {
      std::vector<std::string> lines;
      HandleLine(*serial, ingest_line(c, r), &lines);
      ASSERT_EQ(lines.front().rfind("OK", 0), 0u) << lines.front();
    }
  }
  auto concurrent_final = service->Execute(kFlightsQuery, "pred,qrp,mg");
  auto serial_final = serial->Execute(kFlightsQuery, "pred,qrp,mg");
  ASSERT_TRUE(concurrent_final.ok());
  ASSERT_TRUE(serial_final.ok());
  EXPECT_EQ(concurrent_final->answers, serial_final->answers);
  EXPECT_EQ(service->epoch(), kClients * kRounds);
  EXPECT_EQ(serial->epoch(), kClients * kRounds);

  int fd = ConnectUnix(scratch.SocketPath());
  ASSERT_GE(fd, 0);
  std::string buffer;
  ASSERT_TRUE(SendAll(fd, "SHUTDOWN\n"));
  (void)ReadResponse(fd, &buffer);
  ::close(fd);
  server.thread.join();
  EXPECT_TRUE(server.status.ok()) << server.status.ToString();
}

}  // namespace
}  // namespace cqlopt
