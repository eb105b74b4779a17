// Tests for the constraint fingerprints and the process-wide decision
// cache: fingerprint determinism and order-insensitivity, hit/miss/evict
// accounting, the disable switch, and — the property everything rests on —
// that evaluation with the cache is observably identical to evaluation
// without it.

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "constraint/decision_cache.h"
#include "constraint/fingerprint.h"
#include "constraint/fourier_motzkin.h"
#include "constraint/implication.h"
#include "constraint/interval.h"
#include "core/workload.h"
#include "eval/seminaive.h"
#include "testing/generator.h"
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

TEST(DecisionCacheTest, DisablerTurnsLookupsOff) {
  DecisionCache& cache = DecisionCache::Instance();
  cache.Clear();
  uint64_t key = fp::Mix(0xfeedfacecafebeefull, 7);
  cache.Store(key, false);
  ASSERT_TRUE(cache.Lookup(key).has_value());
  DecisionCache::Counters mid = cache.Snapshot();
  {
    DecisionCacheDisabler off;
    EXPECT_FALSE(cache.enabled());
    EXPECT_FALSE(cache.Lookup(key).has_value());
    cache.Store(fp::Mix(key, 1), true);
    EXPECT_FALSE(cache.Lookup(fp::Mix(key, 1)).has_value());
  }
  EXPECT_TRUE(cache.enabled());
  // Disabled traffic is not counted.
  DecisionCache::Counters end = cache.Snapshot();
  EXPECT_EQ(end.hits, mid.hits);
  EXPECT_EQ(end.misses, mid.misses);
  ASSERT_TRUE(cache.Lookup(key).has_value());
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
    DecisionCacheDisabler off;
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
  // This test pins pure cache accounting (hit counts across cold/warm
  // runs); the interval prepass would divert the easy decisions away from
  // the cache, so it is held off here. PrepassCacheInteractionTest covers
  // the combined regime.
  options.prepass = false;

  EvalResult uncached;
  {
    DecisionCacheDisabler off;
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
  // Pure cache-thrash accounting: keep the prepass out so every decision
  // flows through the capacity-1 cache (see EvaluationUnchangedByCache).
  options.prepass = false;

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
    DecisionCacheDisabler off;
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

TEST(PrepassCacheInteractionTest, ConclusiveDecisionsNeverTouchTheCache) {
  // A prepass-conclusive decision must not pollute the cache: no lookup
  // (no hit/miss counted) and no fill (no entry stored). x >= 1 && x <= 0
  // is conclusively UNSAT by bound propagation; x >= 2 => x >= 0 is
  // conclusively implied.
  DecisionCache::Instance().Clear();
  DecisionCache::Counters before = DecisionCache::Instance().Snapshot();
  prepass::Counters pre_before = prepass::Snapshot();

  EXPECT_FALSE(prepass::IsSatisfiable({
      Atom({{1, -1}}, 1, CmpOp::kLe),
      Atom({{1, 1}}, 0, CmpOp::kLe),
  }));
  EXPECT_TRUE(prepass::ImpliesAtom({Atom({{1, -1}}, 2, CmpOp::kLe)},
                                   Atom({{1, -1}}, 0, CmpOp::kLe)));

  DecisionCache::Counters after = DecisionCache::Instance().Snapshot();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.entries, 0);
  prepass::Counters pre_after = prepass::Snapshot();
  EXPECT_EQ(pre_after.unsat, pre_before.unsat + 1);
  EXPECT_EQ(pre_after.implied, pre_before.implied + 1);
  EXPECT_EQ(pre_after.fallback, pre_before.fallback);
}

TEST(PrepassCacheInteractionTest, InconclusiveProbesFallThroughToTheCache) {
  // x <= y - 1 && y <= x - 1 defeats interval propagation (the bounds walk
  // down forever), so the wrapper must count a fallback and let the exact
  // cached tier decide — filling the cache exactly as before the prepass
  // existed.
  std::vector<LinearConstraint> divergent = {
      Atom({{1, 1}, {2, -1}}, 1, CmpOp::kLe),
      Atom({{2, 1}, {1, -1}}, 1, CmpOp::kLe),
  };
  DecisionCache::Instance().Clear();
  DecisionCache::Counters before = DecisionCache::Instance().Snapshot();
  prepass::Counters pre_before = prepass::Snapshot();

  EXPECT_FALSE(prepass::IsSatisfiable(divergent));  // FM decides: UNSAT

  DecisionCache::Counters after = DecisionCache::Instance().Snapshot();
  prepass::Counters pre_after = prepass::Snapshot();
  EXPECT_EQ(pre_after.fallback, pre_before.fallback + 1);
  EXPECT_GT(after.misses, before.misses);
  EXPECT_GT(after.entries, 0);

  // Re-asking hits the cache (the prepass stays inconclusive, so the memo
  // serves the repeat exactly as it always did).
  EXPECT_FALSE(prepass::IsSatisfiable(divergent));
  DecisionCache::Counters again = DecisionCache::Instance().Snapshot();
  EXPECT_GT(again.hits, after.hits);
}

TEST(PrepassCacheInteractionTest, HitAccountingConsistentUnderBothArms) {
  // With the prepass short-circuiting the easy queries, the cache sees
  // only the hard remainder: the prepass-on arm must record no more
  // lookups than the prepass-off arm, while facts, births, and derivation
  // stats stay byte-identical. (Lookups = hits + misses; conclusive
  // decisions subtract from that total, never add.)
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

  DecisionCache::Instance().Clear();
  options.prepass = true;
  auto on = Evaluate(program, db, options);
  ASSERT_TRUE(on.ok()) << on.status().ToString();

  DecisionCache::Instance().Clear();
  options.prepass = false;
  auto off = Evaluate(program, db, options);
  ASSERT_TRUE(off.ok()) << off.status().ToString();

  // Byte-identical evaluation either way.
  EXPECT_EQ(RenderTrace(on->trace), RenderTrace(off->trace));
  EXPECT_EQ(on->stats.derivations, off->stats.derivations);
  EXPECT_EQ(on->stats.inserted, off->stats.inserted);
  EXPECT_EQ(on->stats.subsumed, off->stats.subsumed);
  EXPECT_EQ(on->stats.iterations, off->stats.iterations);
  for (const auto& [pred, rel] : on->db.relations()) {
    const Relation* other = off->db.Find(pred);
    ASSERT_NE(other, nullptr);
    ASSERT_EQ(rel.size(), other->size());
    for (size_t i = 0; i < rel.size(); ++i) {
      EXPECT_EQ(rel.fact(i).Key(), other->fact(i).Key());
      EXPECT_EQ(rel.birth(i), other->birth(i));
    }
  }

  // Counter semantics: the on arm took the fast tier at least once, the
  // off arm never did, and the on arm asked the cache no more often.
  EXPECT_GT(on->stats.prepass_conclusive, 0);
  EXPECT_EQ(off->stats.prepass_conclusive, 0);
  EXPECT_EQ(off->stats.prepass_fallback, 0);
  EXPECT_LE(on->stats.cache_hits + on->stats.cache_misses,
            off->stats.cache_hits + off->stats.cache_misses);
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
    // Prepass held off for the same reason as the thrash test above: the
    // assertion is that the *cache* evicts, which needs the decisions to
    // actually reach it.
    prepass::PrepassDisabler no_prepass;
    DecisionCacheCapacityOverride tiny(1);
    before = DecisionCache::Instance().Snapshot();
    cqlopt::testing::PropertyOutcome outcome = confluence->fn(c, {});
    EXPECT_TRUE(outcome.ok) << outcome.message;
    EXPECT_FALSE(outcome.skipped) << outcome.message;
    DecisionCache::Counters after = DecisionCache::Instance().Snapshot();
    EXPECT_GT(after.evictions - before.evictions, 0);
  }
}

}  // namespace
}  // namespace cqlopt
