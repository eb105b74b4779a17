// Differential-testing suite over the evaluator: for every program in
// programs/*.cql and for workloads built from the core/workload.h
// generators, the global semi-naive and SCC-stratified strategies must
// agree — same fixpoint verdict and, when a fixpoint is reached, databases
// equal under mutual subsumption — across all three SubsumptionModes, and
// both must denote what the independent naive oracle (testing/oracle.h)
// derives. This is the exact-vs-exact analogue of the exact-vs-approximate
// checking in Campagna et al.'s differential setup: the naive oracle is the
// reference; the two plans the semi-naive engine can run are the systems
// under test.

#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "core/equivalence.h"
#include "core/workload.h"
#include "eval/loader.h"
#include "eval/seminaive.h"
#include "testing/oracle.h"
#include "testing/properties.h"

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

/// Corpus-style EDB: 12 numeric tuples per database predicate (matches
/// test_corpus.cc so divergence behaviour is the same there and here).
Database SyntheticEdb(const Program& program, uint64_t seed) {
  Database db;
  for (PredId pred : program.DatabasePredicates()) {
    const std::string& name = program.symbols->PredicateName(pred);
    int arity = program.Arity(pred);
    std::mt19937_64 rng(seed + static_cast<uint64_t>(pred));
    for (int i = 0; i < 12; ++i) {
      std::vector<Database::Value> values;
      for (int a = 0; a < arity; ++a) {
        values.push_back(Database::Value::Number(
            Rational(static_cast<int64_t>(rng() % 30))));
      }
      (void)db.AddGroundFact(program.symbols.get(), name, values);
    }
  }
  return db;
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

std::set<std::string> KeysOf(const Database& db, PredId pred) {
  std::set<std::string> out;
  const Relation* rel = db.Find(pred);
  if (rel == nullptr) return out;
  for (size_t i = 0; i < rel->size(); ++i) {
    out.insert(rel->fact(i).Key());
  }
  return out;
}

/// Database equality under mutual subsumption, per predicate: identical
/// canonical key sets count immediately (structural identity is the common
/// case — both strategies enumerate candidates in the same order); key-set
/// mismatches fall back to the semantic check, since reconciliation may
/// keep different but equivalent representatives of the same fact set.
::testing::AssertionResult DatabasesAgree(const Database& a,
                                          const Database& b,
                                          const SymbolTable& symbols) {
  std::set<PredId> preds;
  for (const auto& [pred, rel] : a.relations()) preds.insert(pred);
  for (const auto& [pred, rel] : b.relations()) preds.insert(pred);
  for (PredId pred : preds) {
    if (KeysOf(a, pred) == KeysOf(b, pred)) continue;
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

struct StrategyRun {
  const char* name;
  EvalResult result;
};

std::vector<StrategyRun> RunAllStrategies(const Program& program,
                                          const Database& db,
                                          SubsumptionMode mode,
                                          int max_iterations) {
  std::vector<StrategyRun> runs;
  for (auto [name, strategy] :
       {std::pair<const char*, EvalStrategy>{"semi-naive",
                                             EvalStrategy::kSemiNaive},
        {"stratified", EvalStrategy::kStratified}}) {
    EvalOptions options;
    options.strategy = strategy;
    options.subsumption = mode;
    options.max_iterations = max_iterations;
    auto run = Evaluate(program, db, options);
    EXPECT_TRUE(run.ok()) << name << ": " << run.status().ToString();
    runs.push_back(StrategyRun{name, std::move(*run)});
  }
  return runs;
}

void ExpectStrategiesAgree(const Program& program, const Database& db,
                           const std::string& label,
                           int max_iterations = 48) {
  // Full matrix: strategies × subsumption modes.
  //
  // The naive oracle never subsumes, so it is run once and compared by
  // denotation with every run that reached a fixpoint. It also never stops
  // inside a round on a program whose structural fixpoint is infinite, so
  // it only runs when the subsumption-free semi-naive engine converged.
  std::optional<testing::OracleResult> naive;
  EvalOptions no_subsumption;
  no_subsumption.subsumption = SubsumptionMode::kNone;
  no_subsumption.max_iterations = max_iterations;
  auto converged = Evaluate(program, db, no_subsumption);
  ASSERT_TRUE(converged.ok()) << converged.status().ToString();
  if (converged->stats.reached_fixpoint) {
    std::vector<Fact> edb_facts;
    for (const auto& [pred, rel] : db.relations()) {
      for (size_t i = 0; i < rel.size(); ++i) edb_facts.push_back(rel.fact(i));
    }
    auto reference = testing::OracleEvaluate(program, edb_facts);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_TRUE(reference->reached_fixpoint);
    naive = std::move(*reference);
  }
  for (auto [mode_name, mode] :
       {std::pair<const char*, SubsumptionMode>{"none",
                                                SubsumptionMode::kNone},
        {"single-fact", SubsumptionMode::kSingleFact},
        {"set-implication", SubsumptionMode::kSetImplication}}) {
    SCOPED_TRACE(label + " / subsumption=" + mode_name);
    auto runs = RunAllStrategies(program, db, mode, max_iterations);
    const EvalResult& oracle = runs[0].result;  // global semi-naive
    for (const StrategyRun& run : runs) {
      EXPECT_EQ(run.result.stats.reached_fixpoint,
                oracle.stats.reached_fixpoint)
          << run.name;
    }
    if (!oracle.stats.reached_fixpoint) continue;  // capped: frontiers
                                                   // differ
    for (const StrategyRun& run : runs) {
      SCOPED_TRACE(run.name);
      EXPECT_TRUE(
          DatabasesAgree(run.result.db, oracle.db, *program.symbols));
      EXPECT_EQ(run.result.stats.all_ground, oracle.stats.all_ground);
      if (naive) {
        EXPECT_TRUE(testing::SameDenotation(
            naive->facts, testing::EvalToMap(run.result)))
            << "denotation differs from the naive oracle";
      }
    }
    // Stratified bookkeeping must be coherent: per-stratum iterations sum
    // to the global count, and every derivation is attributed to a rule.
    const EvalStats& stratified = runs[1].result.stats;
    long scc_sum = 0;
    for (long n : stratified.scc_iterations) scc_sum += n;
    EXPECT_EQ(scc_sum, stratified.iterations);
    long per_rule = 0;
    for (const auto& [rule, n] : stratified.derivations_per_rule) {
      per_rule += n;
    }
    EXPECT_EQ(per_rule, stratified.derivations);
  }
}

class CorpusDifferentialTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CorpusDifferentialTest, StrategiesAgree) {
  std::string text = ReadFile(ProgramPath(GetParam()));
  auto parsed = ParseProgram(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Program& program = parsed->program;
  Database db;
  if (std::string(GetParam()) == "flights.cql") {
    auto loaded = LoadDatabaseText(ReadFile(ProgramPath("flights_edb.cql")),
                                   program.symbols, &db);
    ASSERT_TRUE(loaded.ok());
  } else {
    db = SyntheticEdb(program, 1234);
  }
  // fib.cql diverges bottom-up under every strategy; a low cap keeps the
  // capped runs short while still observing the shared divergence verdict.
  int cap = std::string(GetParam()) == "fib.cql" ? 14 : 48;
  ExpectStrategiesAgree(program, db, GetParam(), cap);
}

INSTANTIATE_TEST_SUITE_P(Programs, CorpusDifferentialTest,
                         ::testing::Values("flights.cql", "fib.cql",
                                           "example41.cql", "example42.cql",
                                           "example61.cql", "example71.cql",
                                           "example72.cql"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

Program ParseOrDie(const std::string& text) {
  auto parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed->program;
}

TEST(WorkloadDifferentialTest, TransitiveClosureOnLayeredGraph) {
  Program p = ParseOrDie(
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- e(X, Z), t(Z, Y).\n");
  Database db;
  ASSERT_TRUE(AddLayeredGraph(p.symbols.get(), "e", 5, 4, 2, 7, &db).ok());
  ExpectStrategiesAgree(p, db, "tc/layered-graph");
}

TEST(WorkloadDifferentialTest, MultiStratumSelectionOverClosure) {
  // Three strata above the EDB: t (recursive), then s, then top — exercises
  // the freeze-lower-strata discipline, not just single-SCC equivalence.
  Program p = ParseOrDie(
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- e(X, Z), t(Z, Y).\n"
      "s(X, Y) :- t(X, Y), X <= 5.\n"
      "top(X) :- s(X, Y), t(Y, Z).\n");
  Database db;
  ASSERT_TRUE(AddLayeredGraph(p.symbols.get(), "e", 4, 3, 2, 11, &db).ok());
  ExpectStrategiesAgree(p, db, "multi-stratum/layered-graph");
}

TEST(WorkloadDifferentialTest, FlightNetworkSymbolJoins) {
  Program p = ParseOrDie(
      "cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.\n"
      "cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.\n"
      "flight(S, D, T, C) :- singleleg(S, D, T, C), C > 0, T > 0.\n"
      "flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2), "
      "T = T1 + T2 + 30, C = C1 + C2.\n");
  Database db;
  FlightNetworkSpec spec;
  spec.airports = 8;
  spec.legs = 16;
  spec.seed = 5;
  ASSERT_TRUE(AddFlightNetwork(p.symbols.get(), spec, &db).ok());
  ExpectStrategiesAgree(p, db, "flights/generated-network");

  // The recursive flight join binds the connecting airport to a symbol, so
  // the stratified strategy must actually exercise the hash index here.
  EvalOptions options;
  options.strategy = EvalStrategy::kStratified;
  auto run = Evaluate(p, db, options);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->stats.index_probes, 0);
  EXPECT_LT(run->stats.index_candidates, run->stats.indexed_scan_equivalent);
}

TEST(WorkloadDifferentialTest, BinaryRelationJoin) {
  Program p = ParseOrDie(
      "j(X, Z) :- b1(X, Y), b2(Y, Z), X <= 20.\n"
      "k(X) :- j(X, Y), j(Y, Z).\n");
  Database db;
  ASSERT_TRUE(AddBinaryRelation(p.symbols.get(), "b1", 40, 12, 3, &db).ok());
  ASSERT_TRUE(AddBinaryRelation(p.symbols.get(), "b2", 40, 12, 4, &db).ok());
  ExpectStrategiesAgree(p, db, "binary-join");
}

TEST(WorkloadDifferentialTest, UnaryConstraintFactsAcrossStrata) {
  // Constraint facts (body-free rules with non-ground heads) must fire in
  // the first iteration of their own stratum, and subsumption must behave
  // identically in all strategies.
  Program p = ParseOrDie(
      "base(X) :- X >= 0, X <= 10.\n"
      "base(X) :- X >= 3, X <= 5.\n"
      "lifted(X) :- base(X), u(X).\n");
  Database db;
  ASSERT_TRUE(AddUnaryRelation(p.symbols.get(), "u", 20, 15, 9, &db).ok());
  ExpectStrategiesAgree(p, db, "constraint-facts");
}

// The strategy only decides the plan's components, and with them the
// iteration numbering. On a two-stratum chain over one `a` fact the
// global plan re-runs every rule each round (b, then c, then an empty
// confirming round), while the SCC plan runs each non-recursive stratum
// once.
TEST(PlanTest, StrategyDecidesIterationNumbering) {
  Program p = ParseOrDie("b(X) :- a(X).\nc(X) :- b(X).\n");
  Database db;
  ASSERT_TRUE(db.AddGroundFact(p.symbols.get(), "a",
                               {Database::Value::Number(Rational(1))})
                  .ok());
  auto preds_of = [&](const std::vector<Derivation>& row) {
    std::vector<std::string> preds;
    for (const Derivation& d : row) preds.push_back(d.fact.substr(0, 1));
    return preds;
  };
  EvalOptions options;
  options.record_trace = true;

  options.strategy = EvalStrategy::kSemiNaive;
  auto global = Evaluate(p, db, options);
  ASSERT_TRUE(global.ok()) << global.status().ToString();
  EXPECT_TRUE(global->stats.reached_fixpoint);
  EXPECT_EQ(global->stats.iterations, 3);
  ASSERT_EQ(global->trace.size(), 3u);
  EXPECT_EQ(preds_of(global->trace[0]), std::vector<std::string>{"b"});
  EXPECT_EQ(preds_of(global->trace[1]), std::vector<std::string>{"c"});
  EXPECT_TRUE(global->trace[2].empty());
  EXPECT_EQ(global->stats.scc_iterations, std::vector<long>{3});

  options.strategy = EvalStrategy::kStratified;
  auto stratified = Evaluate(p, db, options);
  ASSERT_TRUE(stratified.ok()) << stratified.status().ToString();
  EXPECT_TRUE(stratified->stats.reached_fixpoint);
  EXPECT_EQ(stratified->stats.iterations, 2);
  EXPECT_EQ(stratified->stats.scc_iterations, (std::vector<long>{1, 1}));
}

}  // namespace
}  // namespace cqlopt
