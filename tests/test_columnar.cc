// Columnar-storage and interval-index coverage (DESIGN.md §12): the edge
// cases of the per-position interval index — open/closed/infinite query
// bounds, unconstrained and symbol-bound positions, fully point-valued
// columns with sealed runs, empty relations — plus the copy-on-write chunk
// sharing contract and the corpus-replay differential pinning byte-identity
// of evaluation with interval pruning on vs off across every subsumption
// mode.

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "eval/relation.h"
#include "eval/seminaive.h"
#include "testing/corpus.h"
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

/// $1 = n: a point-valued position (ColTag::kNumber).
Fact NumberFact(int n) {
  Conjunction c;
  EXPECT_TRUE(c.AddLinear(Atom({{1, 1}}, -n, CmpOp::kEq)).ok());
  return Fact(0, 1, c);
}

/// $1 bound to a symbol (ColTag::kSymbol).
Fact SymbolFact(SymbolId s) {
  Conjunction c;
  EXPECT_TRUE(c.BindSymbol(1, s).ok());
  return Fact(0, 1, c);
}

/// lo <= $1 <= hi: finite bounds but no point (ColTag::kInterval).
Fact RangeFact(int lo, int hi) {
  Conjunction c;
  EXPECT_TRUE(c.AddLinear(Atom({{1, -1}}, lo, CmpOp::kLe)).ok());
  EXPECT_TRUE(c.AddLinear(Atom({{1, 1}}, -hi, CmpOp::kLe)).ok());
  return Fact(0, 1, c);
}

/// $1 >= lo only: a half-line bound summary.
Fact LowerBoundFact(int lo) {
  Conjunction c;
  EXPECT_TRUE(c.AddLinear(Atom({{1, -1}}, lo, CmpOp::kLe)).ok());
  return Fact(0, 1, c);
}

/// No constraint at all on $1 (ColTag::kUnbound).
Fact UnboundFact() { return Fact(0, 1, Conjunction()); }

Interval Between(int lo, bool lo_strict, int hi, bool hi_strict) {
  Interval q;
  q.TightenLower(Rational(lo), lo_strict);
  q.TightenUpper(Rational(hi), hi_strict);
  return q;
}

Interval AtMost(int hi) {
  Interval q;
  q.TightenUpper(Rational(hi), /*strict=*/false);
  return q;
}

Interval AtLeast(int lo) {
  Interval q;
  q.TightenLower(Rational(lo), /*strict=*/false);
  return q;
}

std::vector<size_t> IntervalProbeVec(const Relation& rel, int position,
                                     const Interval& query, size_t limit,
                                     long* runs_pruned = nullptr) {
  std::vector<size_t> scratch;
  return rel.IntervalProbe(position, query, limit, &scratch, runs_pruned);
}

TEST(IntervalIndexTest, EmptyRelation) {
  Relation rel;
  EXPECT_FALSE(rel.HasIntervalIndex(1));
  EXPECT_EQ(rel.IntervalProbeCost(1, AtMost(10)), 0u);
  EXPECT_EQ(IntervalProbeVec(rel, 1, AtMost(10), 0), std::vector<size_t>{});
}

TEST(IntervalIndexTest, ClosedAndOpenQueryBounds) {
  Relation rel;
  (void)rel.Insert(NumberFact(40), 0, SubsumptionMode::kNone);  // 0
  (void)rel.Insert(NumberFact(50), 0, SubsumptionMode::kNone);  // 1
  (void)rel.Insert(NumberFact(60), 0, SubsumptionMode::kNone);  // 2
  EXPECT_TRUE(rel.HasIntervalIndex(1));
  // Closed ends include the boundary values; open ends exclude them.
  EXPECT_EQ(IntervalProbeVec(rel, 1, Between(40, false, 60, false), 3),
            std::vector<size_t>({0, 1, 2}));
  EXPECT_EQ(IntervalProbeVec(rel, 1, Between(40, true, 60, true), 3),
            std::vector<size_t>({1}));
  EXPECT_EQ(IntervalProbeVec(rel, 1, Between(40, true, 60, false), 3),
            std::vector<size_t>({1, 2}));
  // A closed point query keeps exactly the matching row.
  EXPECT_EQ(IntervalProbeVec(rel, 1, Between(50, false, 50, false), 3),
            std::vector<size_t>({1}));
}

TEST(IntervalIndexTest, InfiniteQueryEnds) {
  Relation rel;
  (void)rel.Insert(NumberFact(10), 0, SubsumptionMode::kNone);  // 0
  (void)rel.Insert(NumberFact(50), 0, SubsumptionMode::kNone);  // 1
  (void)rel.Insert(NumberFact(90), 0, SubsumptionMode::kNone);  // 2
  EXPECT_EQ(IntervalProbeVec(rel, 1, AtMost(50), 3),
            std::vector<size_t>({0, 1}));
  EXPECT_EQ(IntervalProbeVec(rel, 1, AtLeast(50), 3),
            std::vector<size_t>({1, 2}));
  // The full line excludes nothing.
  EXPECT_EQ(IntervalProbeVec(rel, 1, Interval(), 3),
            std::vector<size_t>({0, 1, 2}));
}

TEST(IntervalIndexTest, UnprunablePositionsAlwaysEnumerated) {
  Relation rel;
  (void)rel.Insert(SymbolFact(7), 0, SubsumptionMode::kNone);    // 0
  (void)rel.Insert(UnboundFact(), 0, SubsumptionMode::kNone);    // 1
  (void)rel.Insert(NumberFact(1000), 0, SubsumptionMode::kNone);  // 2
  // The query excludes every numeric value stored, but symbol-bound and
  // unconstrained rows can never be numerically excluded.
  EXPECT_EQ(IntervalProbeVec(rel, 1, Between(1, false, 2, false), 3),
            std::vector<size_t>({0, 1}));
  // A position no fact constrains has no interval index at all.
  EXPECT_FALSE(rel.HasIntervalIndex(2));
}

TEST(IntervalIndexTest, RangedRowsPrunedOnDisjointSummary) {
  Relation rel;
  (void)rel.Insert(RangeFact(10, 20), 0, SubsumptionMode::kNone);   // 0
  (void)rel.Insert(RangeFact(35, 50), 0, SubsumptionMode::kNone);   // 1
  (void)rel.Insert(LowerBoundFact(100), 0, SubsumptionMode::kNone);  // 2
  // [30, 40] intersects [35, 50] only.
  EXPECT_EQ(IntervalProbeVec(rel, 1, Between(30, false, 40, false), 3),
            std::vector<size_t>({1}));
  // (-inf, 50] misses [100, +inf) but keeps both finite ranges.
  EXPECT_EQ(IntervalProbeVec(rel, 1, AtMost(50), 3),
            std::vector<size_t>({0, 1}));
  // Touching endpoints intersect (both closed).
  EXPECT_EQ(IntervalProbeVec(rel, 1, Between(20, false, 35, false), 3),
            std::vector<size_t>({0, 1}));
}

TEST(IntervalIndexTest, AllConstrainedColumnWithSealedRuns) {
  // Enough point rows to seal several sorted runs (kRunSeal = 128) and
  // trigger at least one run merge, with values deliberately inserted out
  // of order so run sorting does real work.
  Relation rel;
  constexpr int kRows = 300;
  std::vector<int> values(kRows);
  for (int i = 0; i < kRows; ++i) values[i] = (i * 7919) % 601;
  for (int v : values) {
    (void)rel.Insert(NumberFact(v), 0, SubsumptionMode::kNone);
  }
  ASSERT_EQ(rel.size(), static_cast<size_t>(kRows));
  Interval mid = Between(100, false, 200, false);
  std::vector<size_t> expected;
  for (int i = 0; i < kRows; ++i) {
    if (values[i] >= 100 && values[i] <= 200) expected.push_back(i);
  }
  EXPECT_EQ(IntervalProbeVec(rel, 1, mid, kRows), expected);
  // The limit cuts by row index, exactly like the scan's size snapshot.
  std::vector<size_t> head;
  for (size_t r : expected) {
    if (r < 150) head.push_back(r);
  }
  EXPECT_EQ(IntervalProbeVec(rel, 1, mid, 150), head);
  // The cost bound never under-reports the enumerated rows.
  EXPECT_GE(rel.IntervalProbeCost(1, mid), expected.size());
  // A query beyond every stored value rejects whole sealed runs.
  long runs_pruned = 0;
  EXPECT_EQ(IntervalProbeVec(rel, 1, AtLeast(10000), kRows, &runs_pruned),
            std::vector<size_t>{});
  EXPECT_GE(runs_pruned, 1);
}

TEST(IntervalIndexTest, ResultsAscendingAcrossRowKinds) {
  Relation rel;
  (void)rel.Insert(SymbolFact(3), 0, SubsumptionMode::kNone);     // 0 loose
  (void)rel.Insert(NumberFact(45), 0, SubsumptionMode::kNone);    // 1 point
  (void)rel.Insert(RangeFact(40, 70), 0, SubsumptionMode::kNone);  // 2 ranged
  (void)rel.Insert(NumberFact(10), 0, SubsumptionMode::kNone);    // 3 point
  (void)rel.Insert(UnboundFact(), 0, SubsumptionMode::kNone);     // 4 loose
  std::vector<size_t> got =
      IntervalProbeVec(rel, 1, Between(40, false, 60, false), rel.size());
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_EQ(got, std::vector<size_t>({0, 1, 2, 4}));
}

TEST(ColumnarStorageTest, CopyOnWriteSharesSealedChunks) {
  Relation rel;
  for (int i = 0; i < 600; ++i) {  // several full 256-row chunks
    (void)rel.Insert(NumberFact(i), 0, SubsumptionMode::kNone);
  }
  ASSERT_EQ(rel.size(), 600u);
  EXPECT_EQ(rel.SharedBytes(), 0u);  // sole owner: nothing shared

  Relation copy = rel;
  // Every chunk is now shared between the two relations.
  EXPECT_GT(copy.SharedBytes(), 0u);
  EXPECT_LE(copy.SharedBytes(), copy.ApproxBytes());

  // Appending into the copy clones only its tail chunk; the original's
  // rows are untouched.
  (void)copy.Insert(NumberFact(9999), 1, SubsumptionMode::kNone);
  ASSERT_EQ(copy.size(), 601u);
  ASSERT_EQ(rel.size(), 600u);
  for (size_t i = 0; i < rel.size(); ++i) {
    EXPECT_EQ(rel.fact(i).Key(), copy.fact(i).Key());
    EXPECT_EQ(rel.birth(i), copy.birth(i));
  }
  EXPECT_EQ(copy.fact(600).Key(), NumberFact(9999).Key());
  // Sealed chunks stay shared after the append (only the tail was cloned).
  EXPECT_GT(copy.SharedBytes(), 0u);
}

/// Storage fingerprint of an evaluation: per-predicate fact keys, row
/// order, and birth stamps — the byte-identity bar every index access path
/// must clear.
std::string Fingerprint(const EvalResult& r) {
  std::string out;
  for (const auto& [pred, rel] : r.db.relations()) {
    out += std::to_string(pred) + "{";
    for (size_t i = 0; i < rel.size(); ++i) {
      out += rel.fact(i).Key() + "@" + std::to_string(rel.birth(i)) + ";";
    }
    out += "}";
  }
  return out;
}

TEST(IntervalIndexTest, EvaluationPrunesAndStaysByteIdentical) {
  auto parsed = ParseProgram(
      "s1: withinbudget(S, T) :- budget(B), leg(S, T), T <= B.\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Program& p = parsed->program;
  Database db;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(db.AddGroundFact(
                      p.symbols.get(), "leg",
                      {Database::Value::Symbol("s" + std::to_string(i % 40)),
                       Database::Value::Number(Rational((i * 7919) % 601))})
                    .ok());
  }
  ASSERT_TRUE(
      db.AddGroundFact(p.symbols.get(), "budget",
                       {Database::Value::Number(Rational(60))})
          .ok());
  EvalOptions opts;
  opts.max_iterations = 16;
  opts.strategy = EvalStrategy::kStratified;
  opts.interval_index = true;
  auto on = Evaluate(p, db, opts);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  opts.interval_index = false;
  auto off = Evaluate(p, db, opts);
  ASSERT_TRUE(off.ok()) << off.status().ToString();

  // The interval path actually fired and cut candidates vs the scan it
  // replaced; the off arm recorded none.
  EXPECT_GT(on->stats.interval_probes, 0);
  EXPECT_LT(on->stats.interval_candidates, on->stats.interval_scan_equivalent);
  EXPECT_GE(on->stats.interval_index_build_ns, 0);
  EXPECT_EQ(off->stats.interval_probes, 0);
  EXPECT_EQ(off->stats.interval_candidates, 0);

  // Same facts, same order, same births, same derivation counters.
  EXPECT_EQ(Fingerprint(*on), Fingerprint(*off));
  EXPECT_EQ(on->stats.derivations, off->stats.derivations);
  EXPECT_EQ(on->stats.inserted, off->stats.inserted);
  EXPECT_EQ(on->stats.iterations, off->stats.iterations);
}

/// Corpus-replay differential: every minimized repro in tests/fuzz_corpus/
/// (planted-bug self-checks excluded) is evaluated under all three
/// subsumption modes, with interval pruning on vs off, and the columnar
/// storage must be byte-identical between the two arms in every mode.
TEST(ColumnarDifferentialTest, CorpusByteIdenticalAcrossModes) {
  auto files = testing::ListCorpusFiles(CQLOPT_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  ASSERT_FALSE(files->empty());
  for (const std::string& path : *files) {
    SCOPED_TRACE(path);
    auto loaded = testing::LoadCorpusFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    if (loaded->bug != testing::PlantedBug::kNone) continue;
    Database db = testing::BuildDatabase(loaded->c);
    for (SubsumptionMode mode :
         {SubsumptionMode::kNone, SubsumptionMode::kSingleFact,
          SubsumptionMode::kSetImplication}) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)));
      EvalOptions opts;
      opts.max_iterations = 48;
      opts.strategy = EvalStrategy::kStratified;
      opts.subsumption = mode;
      opts.interval_index = true;
      auto on = Evaluate(loaded->c.program, db, opts);
      ASSERT_TRUE(on.ok()) << on.status().ToString();
      opts.interval_index = false;
      auto off = Evaluate(loaded->c.program, db, opts);
      ASSERT_TRUE(off.ok()) << off.status().ToString();
      EXPECT_EQ(Fingerprint(*on), Fingerprint(*off));
      EXPECT_EQ(on->stats.derivations, off->stats.derivations);
      EXPECT_EQ(on->stats.inserted, off->stats.inserted);
    }
  }
}

}  // namespace
}  // namespace cqlopt
