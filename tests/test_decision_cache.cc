// Tests for the constraint fingerprints, the process-wide decision cache
// and the per-call DecisionScope: fingerprint determinism and
// order-insensitivity, hit/miss/evict accounting, turning the cache off in
// a scope, per-evaluation counters and switches under concurrent
// evaluations, and — the property everything rests on — that evaluation
// with the cache is observably identical to evaluation without it.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ast/parser.h"
#include "constraint/decision_cache.h"
#include "constraint/decision_scope.h"
#include "constraint/fingerprint.h"
#include "constraint/fourier_motzkin.h"
#include "constraint/implication.h"
#include "core/workload.h"
#include "eval/loader.h"
#include "eval/seminaive.h"
#include "testing/generator.h"
#include "testing/oracle.h"
#include "testing/properties.h"

namespace cqlopt {
namespace {

LinearConstraint Atom(std::vector<std::pair<VarId, int>> terms, int constant,
                      CmpOp op) {
  LinearExpr e;
  for (auto& [v, c] : terms) e.Add(v, Rational(c));
  e.AddConstant(Rational(constant));
  return LinearConstraint(e, op);
}

TEST(FingerprintTest, DeterministicPerAtom) {
  LinearConstraint a = Atom({{1, 1}, {2, -1}}, 3, CmpOp::kLe);
  LinearConstraint b = Atom({{1, 1}, {2, -1}}, 3, CmpOp::kLe);
  EXPECT_EQ(fp::FingerprintOf(a), fp::FingerprintOf(b));
}

TEST(FingerprintTest, DistinguishesCloseAtoms) {
  LinearConstraint base = Atom({{1, 1}}, 3, CmpOp::kLe);
  // One field off in each direction must change the fingerprint.
  EXPECT_NE(fp::FingerprintOf(base),
            fp::FingerprintOf(Atom({{1, 1}}, 4, CmpOp::kLe)));
  EXPECT_NE(fp::FingerprintOf(base),
            fp::FingerprintOf(Atom({{1, 2}}, 3, CmpOp::kLe)));
  EXPECT_NE(fp::FingerprintOf(base),
            fp::FingerprintOf(Atom({{2, 1}}, 3, CmpOp::kLe)));
  EXPECT_NE(fp::FingerprintOf(base),
            fp::FingerprintOf(Atom({{1, 1}}, 3, CmpOp::kLt)));
}

TEST(FingerprintTest, VectorOrderInsensitive) {
  LinearConstraint a = Atom({{1, 1}}, -4, CmpOp::kLe);
  LinearConstraint b = Atom({{2, 1}, {1, -1}}, 0, CmpOp::kLt);
  LinearConstraint c = Atom({{3, 2}}, 7, CmpOp::kEq);
  uint64_t fwd = fp::FingerprintOf(std::vector<LinearConstraint>{a, b, c});
  uint64_t rev = fp::FingerprintOf(std::vector<LinearConstraint>{c, b, a});
  uint64_t mid = fp::FingerprintOf(std::vector<LinearConstraint>{b, a, c});
  EXPECT_EQ(fwd, rev);
  EXPECT_EQ(fwd, mid);
  // ...but not content-insensitive.
  EXPECT_NE(fwd, fp::FingerprintOf(std::vector<LinearConstraint>{a, b}));
  EXPECT_NE(fwd, fp::FingerprintOf(std::vector<LinearConstraint>{a, b, b}));
}

TEST(FingerprintTest, ConjunctionCoversAllStores) {
  Conjunction base;
  ASSERT_TRUE(base.AddLinear(Atom({{1, 1}}, -4, CmpOp::kLe)).ok());
  uint64_t h = fp::FingerprintOf(base);

  Conjunction with_eq = base;
  ASSERT_TRUE(with_eq.AddEquality(2, 3).ok());
  EXPECT_NE(h, fp::FingerprintOf(with_eq));

  Conjunction with_sym = base;
  ASSERT_TRUE(with_sym.BindSymbol(2, 7).ok());
  EXPECT_NE(h, fp::FingerprintOf(with_sym));

  // Same content built in a different insertion order fingerprints equally
  // (both stores are kept canonical).
  Conjunction x;
  ASSERT_TRUE(x.AddLinear(Atom({{1, 1}}, -4, CmpOp::kLe)).ok());
  ASSERT_TRUE(x.AddLinear(Atom({{2, 1}}, -9, CmpOp::kLe)).ok());
  Conjunction y;
  ASSERT_TRUE(y.AddLinear(Atom({{2, 1}}, -9, CmpOp::kLe)).ok());
  ASSERT_TRUE(y.AddLinear(Atom({{1, 1}}, -4, CmpOp::kLe)).ok());
  EXPECT_EQ(fp::FingerprintOf(x), fp::FingerprintOf(y));
}

TEST(DecisionCacheTest, StoreLookupAndCounters) {
  DecisionCache& cache = DecisionCache::Instance();
  cache.Clear();
  DecisionCache::Counters before = cache.Snapshot();
  // A key no fingerprint will produce in this test binary's other cases.
  uint64_t key = fp::Mix(0x1234567890abcdefull, 42);
  EXPECT_FALSE(cache.Lookup(key).has_value());
  cache.Store(key, true);
  auto hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit);
  DecisionCache::Counters after = cache.Snapshot();
  EXPECT_EQ(after.misses - before.misses, 1);
  EXPECT_EQ(after.hits - before.hits, 1);
  EXPECT_GE(after.entries, 1);
  cache.Clear();
  EXPECT_FALSE(cache.Lookup(key).has_value());
}

TEST(DecisionCacheTest, ScopeTurnsLookupsOff) {
  // Inside a cache-off scope the deciders neither look up nor fill the
  // cache, so nothing is counted and no entry appears.
  std::vector<LinearConstraint> divergent = {
      Atom({{1, 1}, {2, -1}}, 1, CmpOp::kLe),
      Atom({{2, 1}, {1, -1}}, 1, CmpOp::kLe),
  };
  LinearConstraint goal = Atom({{1, 1}}, -10, CmpOp::kLe);
  Conjunction a;
  ASSERT_TRUE(a.AddLinear(divergent[0]).ok());
  ASSERT_TRUE(a.AddLinear(divergent[1]).ok());
  Conjunction b;
  ASSERT_TRUE(b.AddLinear(goal).ok());
  DecisionCache& cache = DecisionCache::Instance();
  cache.Clear();
  DecisionCache::Counters before = cache.Snapshot();
  {
    DecisionScope off({.cache = false});
    EXPECT_FALSE(DecisionScope::cache_on());
    EXPECT_FALSE(fm::IsSatisfiable(divergent));
    EXPECT_TRUE(fm::ImpliesAtom(divergent, goal));
    EXPECT_TRUE(Implies(a, b));
    {
      // A nested scope cannot turn the cache back on.
      DecisionScope on({.cache = true});
      EXPECT_FALSE(DecisionScope::cache_on());
      EXPECT_FALSE(fm::IsSatisfiable(divergent));
    }
    DecisionScope::Counts counts;
    off.AddTo(&counts);
    EXPECT_EQ(counts.cache_hits + counts.cache_misses, 0);
  }
  EXPECT_TRUE(DecisionScope::cache_on());
  DecisionCache::Counters after = cache.Snapshot();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.entries, 0);
  // Back outside the scope the same decision fills the cache.
  EXPECT_FALSE(fm::IsSatisfiable(divergent));
  EXPECT_GT(cache.Snapshot().entries, 0);
  cache.Clear();
}

TEST(DecisionCacheTest, FullShardEvictsWholesale) {
  DecisionCache& cache = DecisionCache::Instance();
  cache.Clear();
  DecisionCache::Counters before = cache.Snapshot();
  // Overfill every shard: distinct well-mixed keys, > capacity in total.
  size_t total = static_cast<size_t>(DecisionCache::kShardCount) *
                     DecisionCache::kMaxEntriesPerShard +
                 DecisionCache::kMaxEntriesPerShard;
  uint64_t key = 0x9e3779b97f4a7c15ull;
  for (size_t i = 0; i < total; ++i) {
    key = fp::Mix(key, i);
    cache.Store(key, (i & 1) != 0);
  }
  DecisionCache::Counters after = cache.Snapshot();
  EXPECT_GT(after.evictions - before.evictions, 0);
  EXPECT_LE(after.entries, static_cast<long>(
                               static_cast<size_t>(DecisionCache::kShardCount) *
                               DecisionCache::kMaxEntriesPerShard));
  cache.Clear();
}

TEST(DecisionCacheTest, MemoizedDecisionsMatchFreshOnes) {
  // Decide once with the cache cold, once with it warm, once with it
  // disabled: all three must agree, for satisfiable and unsatisfiable
  // inputs of each entry point.
  std::vector<LinearConstraint> sat = {Atom({{1, 1}}, -4, CmpOp::kLe),
                                       Atom({{1, -1}}, 0, CmpOp::kLe)};
  std::vector<LinearConstraint> unsat = {Atom({{1, 1}}, -4, CmpOp::kLe),
                                         Atom({{1, -1}}, 5, CmpOp::kLe)};
  LinearConstraint goal = Atom({{1, 1}}, -10, CmpOp::kLe);
  Conjunction narrow;
  ASSERT_TRUE(narrow.AddLinear(Atom({{1, 1}}, -2, CmpOp::kLe)).ok());
  ASSERT_TRUE(narrow.AddLinear(Atom({{1, -1}}, 0, CmpOp::kLe)).ok());
  Conjunction wide;
  ASSERT_TRUE(wide.AddLinear(Atom({{1, 1}}, -10, CmpOp::kLe)).ok());

  DecisionCache::Instance().Clear();
  for (int round = 0; round < 2; ++round) {
    EXPECT_TRUE(fm::IsSatisfiable(sat));
    EXPECT_FALSE(fm::IsSatisfiable(unsat));
    EXPECT_TRUE(fm::ImpliesAtom(sat, goal));
    EXPECT_TRUE(Implies(narrow, wide));
    EXPECT_FALSE(Implies(wide, narrow));
  }
  {
    DecisionScope off({.cache = false});
    EXPECT_TRUE(fm::IsSatisfiable(sat));
    EXPECT_FALSE(fm::IsSatisfiable(unsat));
    EXPECT_TRUE(fm::ImpliesAtom(sat, goal));
    EXPECT_TRUE(Implies(narrow, wide));
    EXPECT_FALSE(Implies(wide, narrow));
  }
}

/// The end-to-end equivalence the memoization must preserve: a full
/// stratified evaluation with the cache on computes byte-identical results
/// to one with the cache off, and the warm second run actually hits.
TEST(DecisionCacheTest, EvaluationUnchangedByCache) {
  auto parsed = ParseProgram(
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- e(X, Z), t(Z, Y).\n"
      "s(X) :- t(X, Y), X >= 2, Y <= 9.\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Program& program = parsed->program;
  Database db;
  ASSERT_TRUE(
      AddLayeredGraph(program.symbols.get(), "e", 4, 3, 2, 11, &db).ok());

  EvalOptions options;
  options.strategy = EvalStrategy::kStratified;
  options.subsumption = SubsumptionMode::kSingleFact;
  options.record_trace = true;

  EvalResult uncached;
  {
    DecisionScope off({.cache = false});
    auto run = Evaluate(program, db, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    uncached = std::move(*run);
    EXPECT_EQ(uncached.stats.cache_hits, 0);
    EXPECT_EQ(uncached.stats.cache_misses, 0);
  }

  DecisionCache::Instance().Clear();
  auto cold = Evaluate(program, db, options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = Evaluate(program, db, options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  for (const EvalResult* run : {&*cold, &*warm}) {
    EXPECT_EQ(RenderTrace(uncached.trace), RenderTrace(run->trace));
    EXPECT_EQ(uncached.stats.derivations, run->stats.derivations);
    EXPECT_EQ(uncached.stats.inserted, run->stats.inserted);
    EXPECT_EQ(uncached.stats.subsumed, run->stats.subsumed);
    EXPECT_EQ(uncached.stats.duplicates, run->stats.duplicates);
    EXPECT_EQ(uncached.stats.iterations, run->stats.iterations);
    for (const auto& [pred, rel] : uncached.db.relations()) {
      const Relation* other = run->db.Find(pred);
      ASSERT_NE(other, nullptr);
      ASSERT_EQ(rel.size(), other->size());
      for (size_t i = 0; i < rel.size(); ++i) {
        EXPECT_EQ(rel.fact(i).Key(), other->fact(i).Key());
        EXPECT_EQ(rel.birth(i), other->birth(i));
      }
    }
  }

  // The subsumption probes repeat identical implication queries, so even
  // the cold run must hit; the warm run re-asks everything.
  EXPECT_GT(cold->stats.cache_hits, 0);
  EXPECT_GT(warm->stats.cache_hits, cold->stats.cache_hits);
}

TEST(DecisionCacheTest, CapacityOneThrashMatchesCacheOff) {
  // Capacity 1 per shard makes nearly every Store evict the shard's only
  // entry — the pathological thrash regime. Even there the cache must stay
  // an invisible memo: the evaluation's stored facts, birth rounds, and
  // derivation stats are byte-identical to a cache-off run.
  auto parsed = ParseProgram(
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- e(X, Z), t(Z, Y).\n"
      "s(X) :- t(X, Y), X >= 2, Y <= 9.\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Program& program = parsed->program;
  Database db;
  ASSERT_TRUE(
      AddLayeredGraph(program.symbols.get(), "e", 4, 3, 2, 11, &db).ok());

  EvalOptions options;
  options.strategy = EvalStrategy::kStratified;
  options.subsumption = SubsumptionMode::kSingleFact;

  auto fingerprint = [](const EvalResult& r) {
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
  };

  EvalResult uncached;
  {
    DecisionScope off({.cache = false});
    auto run = Evaluate(program, db, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    uncached = std::move(*run);
  }

  DecisionCache::Counters before;
  EvalResult thrashed;
  {
    DecisionCacheCapacityOverride tiny(1);
    before = DecisionCache::Instance().Snapshot();
    auto run = Evaluate(program, db, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    thrashed = std::move(*run);
    // The override must actually bite: the run stores more distinct
    // decisions than one per shard, so evictions happen.
    DecisionCache::Counters after = DecisionCache::Instance().Snapshot();
    EXPECT_GT(after.evictions - before.evictions, 0);
  }

  EXPECT_EQ(fingerprint(uncached), fingerprint(thrashed));
  EXPECT_EQ(uncached.stats.derivations, thrashed.stats.derivations);
  EXPECT_EQ(uncached.stats.inserted, thrashed.stats.inserted);
  EXPECT_EQ(uncached.stats.subsumed, thrashed.stats.subsumed);
  EXPECT_EQ(uncached.stats.iterations, thrashed.stats.iterations);
}

TEST(DecisionCacheTest, FuzzPropertyHoldsUnderCapacityOneThrash) {
  // strategy_confluence checks semi-naive and stratified runs against the
  // naive oracle; executing it under a capacity-1 cache exercises that
  // guarantee while every shard evicts on virtually every insert.
  cqlopt::testing::FuzzCase c = cqlopt::testing::GenerateCase(
      cqlopt::testing::Rng::DeriveSeed(42, 7), {});
  const cqlopt::testing::PropertyInfo* confluence =
      cqlopt::testing::FindProperty("strategy_confluence");
  ASSERT_NE(confluence, nullptr);
  DecisionCache::Counters before;
  {
    DecisionCacheCapacityOverride tiny(1);
    before = DecisionCache::Instance().Snapshot();
    cqlopt::testing::PropertyOutcome outcome = confluence->fn(c, {});
    EXPECT_TRUE(outcome.ok) << outcome.message;
    EXPECT_FALSE(outcome.skipped) << outcome.message;
    DecisionCache::Counters after = DecisionCache::Instance().Snapshot();
    EXPECT_GT(after.evictions - before.evictions, 0);
  }
}

// ---------------------------------------------------------------------------
// DecisionScope under concurrent evaluations: each evaluation's switches
// and counters are its own, whatever other threads evaluate meanwhile.

std::string ReadFile(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// The flights program (Example 1.1) over its companion EDB.
struct Flights {
  Program program;
  Database edb;
};

EvalStats EvaluateFlights(const Flights& f);

/// Loads flights and evaluates it once: the first evaluation of a program
/// fills the satisfiability its rule constraints cache, so it makes a few
/// more cache lookups than every later one. The tests below compare
/// and share only warmed programs.
Flights LoadWarmFlights() {
  const std::string dir = CQLOPT_PROGRAMS_DIR;
  auto parsed = ParseProgram(ReadFile(dir + "/flights.cql"));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  Flights f{std::move(parsed->program), Database()};
  auto loaded = LoadDatabaseText(ReadFile(dir + "/flights_edb.cql"),
                                 f.program.symbols, &f.edb);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  EvaluateFlights(f);
  return f;
}

EvalStats EvaluateFlights(const Flights& f) {
  EvalOptions options;
  options.strategy = EvalStrategy::kStratified;
  auto run = Evaluate(f.program, f.edb, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return run.ok() ? run->stats : EvalStats();
}

TEST(DecisionScopeTest, ConcurrentCountersPartitionProcessTotals) {
  // Per-evaluation counters partition the process-wide totals: summed over
  // eight concurrent evaluations they equal the
  // process-wide deltas over the run, counter by counter. Cache hits
  // themselves depend on thread timing (the cache is shared), so only the
  // sums are pinned.
  const Flights f = LoadWarmFlights();
  DecisionCache::Instance().Clear();
  const DecisionCache::Counters cache_before =
      DecisionCache::Instance().Snapshot();
  constexpr int kThreads = 8;
  constexpr int kRounds = 10;
  std::vector<EvalStats> runs[kThreads];
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&f, &runs, t] {
        for (int round = 0; round < kRounds; ++round) {
          runs[t].push_back(EvaluateFlights(f));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const DecisionCache::Counters cache_after =
      DecisionCache::Instance().Snapshot();
  EvalStats sum;
  for (const std::vector<EvalStats>& per_thread : runs) {
    for (const EvalStats& s : per_thread) {
      sum.cache_hits += s.cache_hits;
      sum.cache_misses += s.cache_misses;
      sum.cache_evictions += s.cache_evictions;
    }
  }
  EXPECT_GT(sum.cache_misses, 0);
  EXPECT_EQ(sum.cache_hits, cache_after.hits - cache_before.hits);
  EXPECT_EQ(sum.cache_misses, cache_after.misses - cache_before.misses);
  EXPECT_EQ(sum.cache_evictions,
            cache_after.evictions - cache_before.evictions);
}

TEST(DecisionScopeTest, OracleDoesNotTouchConcurrentCache) {
  // The naive oracle decides with the cache off in its own scope: it
  // neither reads nor fills the shared cache, and does not turn it off for
  // an evaluation running beside it, whose cache traffic is therefore
  // exactly its solo traffic.
  const Flights f = LoadWarmFlights();
  std::vector<Fact> edb_facts;
  for (const auto& [pred, rel] : f.edb.relations()) {
    for (size_t i = 0; i < rel.size(); ++i) edb_facts.push_back(rel.fact(i));
  }
  DecisionCache::Instance().Clear();
  const EvalStats solo = EvaluateFlights(f);
  ASSERT_GT(solo.cache_misses, 0);

  DecisionCache::Instance().Clear();
  std::atomic<bool> stop{false};
  std::atomic<int> oracle_runs{0};
  std::thread oracle([&] {
    while (!stop.load()) {
      auto run = cqlopt::testing::OracleEvaluate(f.program, edb_facts);
      EXPECT_TRUE(run.ok() && run->reached_fixpoint);
      oracle_runs.fetch_add(1);
    }
  });
  while (oracle_runs.load() == 0) std::this_thread::yield();
  const EvalStats beside = EvaluateFlights(f);
  stop.store(true);
  oracle.join();
  EXPECT_EQ(beside.cache_hits, solo.cache_hits);
  EXPECT_EQ(beside.cache_misses, solo.cache_misses);
}

}  // namespace
}  // namespace cqlopt
