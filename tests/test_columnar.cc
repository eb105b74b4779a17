// Columnar-storage and range-probe coverage (DESIGN.md §12): the edge
// cases of the per-position index's range probe — open/closed/infinite
// query bounds, unconstrained and symbol-bound positions, fully
// point-valued columns, empty relations, each unsealed, sealed, and sealed
// then appended to — plus the copy-on-write chunk sharing contract (a
// copy's Seal leaves the original alone), the corpus-replay differential
// pinning byte-identity of evaluation with interval pruning on vs off
// under both subsumption modes, and the constrained-join candidate cut of
// EXPERIMENTS.md E1.

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "core/workload.h"
#include "eval/loader.h"
#include "eval/relation.h"
#include "eval/seminaive.h"
#include "index_states.h"
#include "testing/corpus.h"
#include "testing/properties.h"
#include "sha256.h"

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

/// Range probe into a fresh buffer, returned for comparison. Every probe
/// also checks that the rows answer it alike unindexed and sealed.
std::vector<size_t> IntervalProbeVec(const Relation& rel, int position,
                                     const Interval& query,
                                     long* runs_pruned = nullptr) {
  ExpectColumnPathMatchesIndex(rel, position, query);
  std::vector<size_t> out;
  rel.IntervalProbe(position, query, &out, runs_pruned);
  return out;
}

/// The scan the range probe replaces: the rows that `query` does not
/// exclude at position 1 — a point row whose value lies in `query`, a ranged
/// row whose constraint stays satisfiable with $1 in `query` (decided
/// exactly, not by the index's bound summary), and every other row.
std::vector<size_t> ScanNotExcluded(const Relation& rel,
                                    const Interval& query) {
  std::vector<size_t> out;
  for (size_t i = 0; i < rel.size(); ++i) {
    if (rel.tag(i, 1) == Relation::ColTag::kNumber &&
        !query.Contains(rel.number_at(i, 1))) {
      continue;
    }
    if (rel.tag(i, 1) == Relation::ColTag::kInterval) {
      // Conjoin `lower - $1 (<|<=) 0` and `$1 - upper (<|<=) 0`.
      Conjunction c = rel.constraint(i);
      auto conjoin = [&](int sign, const Rational& end, bool strict) {
        LinearExpr e;
        e.Add(1, Rational(sign));
        e.AddConstant(sign > 0 ? -end : end);
        EXPECT_TRUE(
            c.AddLinear(LinearConstraint(e, strict ? CmpOp::kLt : CmpOp::kLe))
                .ok());
      };
      if (!query.lower_infinite()) {
        conjoin(-1, query.lower(), query.lower_strict());
      }
      if (!query.upper_infinite()) {
        conjoin(1, query.upper(), query.upper_strict());
      }
      if (!c.IsSatisfiable()) continue;
    }
    out.push_back(i);
  }
  return out;
}

/// Runs the range probe on `rel` for `query` and checks it against
/// ScanNotExcluded, and IntervalProbeCost against its result (never
/// under-reporting).
void ExpectProbeMatchesScan(const Relation& rel, const Interval& query) {
  const std::vector<size_t> scanned = ScanNotExcluded(rel, query);
  EXPECT_EQ(IntervalProbeVec(rel, 1, query), scanned);
  EXPECT_GE(rel.IntervalProbeCost(1, query), scanned.size());
}

TEST(IntervalIndexTest, EmptyRelation) {
  Relation rel;
  EXPECT_FALSE(rel.CanRangePrune(1));
  EXPECT_EQ(rel.IntervalProbeCost(1, AtMost(10)), 0u);
  EXPECT_EQ(IntervalProbeVec(rel, 1, AtMost(10)), std::vector<size_t>{});
  rel.Seal();
  EXPECT_EQ(IntervalProbeVec(rel, 1, AtMost(10)), std::vector<size_t>{});
}

TEST(IntervalIndexTest, ClosedAndOpenQueryBounds) {
  for (IndexState state : kIndexStates) {
    SCOPED_TRACE(static_cast<int>(state));
    Relation rel =
        BuildIn(state, {NumberFact(40), NumberFact(50), NumberFact(60)});
    EXPECT_TRUE(rel.CanRangePrune(1));
    // Closed ends include the boundary values; open ends exclude them.
    EXPECT_EQ(IntervalProbeVec(rel, 1, Between(40, false, 60, false)),
              std::vector<size_t>({0, 1, 2}));
    EXPECT_EQ(IntervalProbeVec(rel, 1, Between(40, true, 60, true)),
              std::vector<size_t>({1}));
    EXPECT_EQ(IntervalProbeVec(rel, 1, Between(40, true, 60, false)),
              std::vector<size_t>({1, 2}));
    // A closed point query keeps exactly the matching row.
    EXPECT_EQ(IntervalProbeVec(rel, 1, Between(50, false, 50, false)),
              std::vector<size_t>({1}));
  }
}

TEST(IntervalIndexTest, InfiniteQueryEnds) {
  for (IndexState state : kIndexStates) {
    SCOPED_TRACE(static_cast<int>(state));
    Relation rel =
        BuildIn(state, {NumberFact(10), NumberFact(50), NumberFact(90)});
    EXPECT_EQ(IntervalProbeVec(rel, 1, AtMost(50)),
              std::vector<size_t>({0, 1}));
    EXPECT_EQ(IntervalProbeVec(rel, 1, AtLeast(50)),
              std::vector<size_t>({1, 2}));
    // The full line excludes nothing.
    EXPECT_EQ(IntervalProbeVec(rel, 1, Interval()),
              std::vector<size_t>({0, 1, 2}));
  }
}

TEST(IntervalIndexTest, UnprunablePositionsAlwaysEnumerated) {
  for (IndexState state : kIndexStates) {
    SCOPED_TRACE(static_cast<int>(state));
    Relation rel =
        BuildIn(state, {SymbolFact(7), UnboundFact(), NumberFact(1000)});
    // The query excludes every numeric value stored, but symbol-bound and
    // unconstrained rows can never be numerically excluded.
    EXPECT_EQ(IntervalProbeVec(rel, 1, Between(1, false, 2, false)),
              std::vector<size_t>({0, 1}));
    // A position no fact reaches has nothing a range probe can prune.
    EXPECT_FALSE(rel.CanRangePrune(2));
  }
}

TEST(IntervalIndexTest, RangedRowsPrunedOnDisjointSummary) {
  for (IndexState state : kIndexStates) {
    SCOPED_TRACE(static_cast<int>(state));
    Relation rel = BuildIn(
        state, {RangeFact(10, 20), RangeFact(35, 50), LowerBoundFact(100)});
    // [30, 40] intersects [35, 50] only.
    EXPECT_EQ(IntervalProbeVec(rel, 1, Between(30, false, 40, false)),
              std::vector<size_t>({1}));
    // (-inf, 50] misses [100, +inf) but keeps both finite ranges.
    EXPECT_EQ(IntervalProbeVec(rel, 1, AtMost(50)),
              std::vector<size_t>({0, 1}));
    // Touching endpoints intersect (both closed).
    EXPECT_EQ(IntervalProbeVec(rel, 1, Between(20, false, 35, false)),
              std::vector<size_t>({0, 1}));
  }
}

TEST(IntervalIndexTest, AllConstrainedColumnWithSealedRuns) {
  // Hundreds of point rows, inserted out of order so sealing does real
  // work, probed unsealed, sealed, and sealed with half appended after.
  constexpr int kRows = 300;
  std::vector<int> values(kRows);
  std::vector<Fact> facts;
  for (int i = 0; i < kRows; ++i) {
    values[i] = (i * 7919) % 601;
    facts.push_back(NumberFact(values[i]));
  }
  Interval mid = Between(100, false, 200, false);
  std::vector<size_t> expected;
  for (int i = 0; i < kRows; ++i) {
    if (values[i] >= 100 && values[i] <= 200) expected.push_back(i);
  }
  for (IndexState state : kIndexStates) {
    SCOPED_TRACE(static_cast<int>(state));
    Relation rel = BuildIn(state, facts);
    ASSERT_EQ(rel.size(), static_cast<size_t>(kRows));
    EXPECT_EQ(IntervalProbeVec(rel, 1, mid), expected);
    // The cost bound never under-reports the enumerated rows.
    EXPECT_GE(rel.IntervalProbeCost(1, mid), expected.size());
    // A query beyond every stored value: the binary search over the sealed
    // rows rejects them all without visiting one.
    long runs_pruned = 0;
    EXPECT_EQ(IntervalProbeVec(rel, 1, AtLeast(10000), &runs_pruned),
              std::vector<size_t>{});
    EXPECT_EQ(runs_pruned, state == IndexState::kUnsealed ? 0 : 1);
  }
}

TEST(IntervalIndexTest, ResultsAscendingAcrossRowKinds) {
  for (IndexState state : kIndexStates) {
    SCOPED_TRACE(static_cast<int>(state));
    Relation rel = BuildIn(state, {SymbolFact(3),       // 0 loose
                                   NumberFact(45),      // 1 point
                                   RangeFact(40, 70),   // 2 ranged
                                   NumberFact(10),      // 3 point
                                   UnboundFact()});     // 4 loose
    std::vector<size_t> got =
        IntervalProbeVec(rel, 1, Between(40, false, 60, false));
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    EXPECT_EQ(got, std::vector<size_t>({0, 1, 2, 4}));
  }
  // All four row kinds, point values out of order, against the exact scan.
  const std::vector<Fact> mixed = {
      NumberFact(70), RangeFact(40, 70), SymbolFact(3),     NumberFact(10),
      UnboundFact(),  NumberFact(45),    LowerBoundFact(100), SymbolFact(1),
      NumberFact(-5), RangeFact(0, 9),   NumberFact(60),    NumberFact(40)};
  for (IndexState state : kIndexStates) {
    SCOPED_TRACE(static_cast<int>(state));
    Relation rel = BuildIn(state, mixed);
    for (const Interval& query :
         {Between(40, false, 60, false), Between(40, true, 60, true),
          AtMost(9), AtLeast(70), Between(200, false, 300, false),
          Interval()}) {
      ExpectProbeMatchesScan(rel, query);
    }
  }
}

TEST(ColumnarStorageTest, CopyOnWriteLeavesTheOriginalIntact) {
  Relation rel;
  rel.IndexPosition(1);  // every row joins the index's unsorted suffix
  for (int i = 0; i < 600; ++i) {  // several full 256-row chunks
    (void)rel.Insert(NumberFact(i), 0);
  }
  ASSERT_EQ(rel.size(), 600u);
  // The original's index is left unsealed, so a copy that shared it would
  // show the copy's Seal below.
  const Relation::ArgSignature point{std::nullopt, Rational(595)};
  const std::vector<size_t> probe_before =
      IntervalProbeVec(rel, 1, AtLeast(590));
  const size_t cost_before = rel.ProbeCost(1, point);
  const size_t ival_cost_before = rel.IntervalProbeCost(1, AtLeast(590));
  const size_t bytes_before = rel.ApproxBytes();

  Relation copy = rel;
  // Appending into the copy clones only its tail chunk; the original's
  // rows are untouched.
  (void)copy.Insert(NumberFact(9999), 1);
  ASSERT_EQ(copy.size(), 601u);
  ASSERT_EQ(rel.size(), 600u);
  for (size_t i = 0; i < rel.size(); ++i) {
    EXPECT_EQ(rel.fact(i).Key(), copy.fact(i).Key());
    EXPECT_EQ(rel.birth(i), copy.birth(i));
  }
  EXPECT_EQ(copy.fact(600).Key(), NumberFact(9999).Key());

  // A published epoch is never re-indexed in place: sealing the copy (as an
  // evaluation seals its own database) leaves the original's probes, costs
  // and bytes exactly as they were.
  copy.Seal();
  EXPECT_LT(copy.IntervalProbeCost(1, AtLeast(590)), ival_cost_before);
  EXPECT_EQ(IntervalProbeVec(rel, 1, AtLeast(590)), probe_before);
  EXPECT_EQ(rel.ProbeCost(1, point), cost_before);
  EXPECT_EQ(rel.IntervalProbeCost(1, AtLeast(590)), ival_cost_before);
  EXPECT_EQ(rel.ApproxBytes(), bytes_before);
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

/// Evaluates `program` over `db` (stratified, interval index on vs off),
/// checks that the interval path fired, cut candidates vs the scan it
/// replaced, and left storage and derivation counters byte-identical, and
/// returns the interval-on run's stats.
EvalStats ExpectPrunesAndStaysByteIdentical(const Program& program,
                                            const Database& db) {
  EvalOptions opts;
  opts.max_iterations = 64;
  opts.strategy = EvalStrategy::kStratified;
  opts.interval_index = true;
  auto on = Evaluate(program, db, opts);
  EXPECT_TRUE(on.ok()) << on.status().ToString();
  opts.interval_index = false;
  auto off = Evaluate(program, db, opts);
  EXPECT_TRUE(off.ok()) << off.status().ToString();
  if (!on.ok() || !off.ok()) return {};

  // The interval path actually fired and cut candidates vs the scan it
  // replaced; the off arm recorded none.
  EXPECT_TRUE(on->stats.reached_fixpoint);
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
  return on->stats;
}

TEST(IntervalIndexTest, EvaluationPrunesAndStaysByteIdentical) {
  {
    SCOPED_TRACE("300 legs, one budget");
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
    ExpectPrunesAndStaysByteIdentical(p, db);
  }

  // The constrained-join workload of EXPERIMENTS.md E1: time-budgeted leg
  // selection over a 20000-leg flights network (200 airports, seed 42,
  // times uniform in [30, 600]) and five budgets 35..55. Each budget binds
  // B to a point, so the singleleg literal is reached with only the range
  // bound T <= B: no position is uniquely bound, the hash index admits
  // every leg, and only the interval index's sorted bound runs can skip
  // the legs whose time lies above the budget. The counters are
  // deterministic, so they are pinned exactly.
  {
    SCOPED_TRACE("flights constrained join, 20000 legs, five budgets");
    auto parsed = ParseProgram(
        "s1: withinbudget(S, D, T, C) :- budget(B), singleleg(S, D, T, C), "
        "T <= B.\n");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    Program& p = parsed->program;
    FlightNetworkSpec spec;
    spec.airports = 200;
    spec.legs = 20000;
    spec.seed = 42;
    Database db;
    ASSERT_TRUE(AddFlightNetwork(p.symbols.get(), spec, &db).ok());
    for (int budget : {35, 40, 45, 50, 55}) {
      ASSERT_TRUE(db.AddGroundFact(p.symbols.get(), "budget",
                                   {Database::Value::Number(Rational(budget))})
                      .ok());
    }
    EvalStats on = ExpectPrunesAndStaysByteIdentical(p, db);
    EXPECT_EQ(on.interval_candidates, 2834);
    EXPECT_EQ(on.interval_scan_equivalent, 100000);
    // The candidate cut: scan-equivalent candidates per candidate the
    // sorted-run binary searches actually enumerated.
    double cut = on.interval_candidates > 0
                     ? static_cast<double>(on.interval_scan_equivalent) /
                           static_cast<double>(on.interval_candidates)
                     : 0.0;
    EXPECT_GE(cut, 35.3 - 0.5);
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Every observable of a stored run in one text: per relation, each row's
/// rendering and birth; then every trace row (iteration, rule label,
/// rendered fact, outcome).
std::string RenderRun(const EvalResult& run, const SymbolTable& symbols) {
  std::string out;
  for (const auto& [pred, rel] : run.db.relations()) {
    out += symbols.PredicateName(pred) + "\n";
    for (size_t i = 0; i < rel.size(); ++i) {
      out += rel.fact(i).ToString(symbols) + " @" +
             std::to_string(rel.birth(i)) + "\n";
    }
  }
  for (size_t it = 0; it < run.trace.size(); ++it) {
    for (const Derivation& d : run.trace[it]) {
      out += std::to_string(it) + " " + d.rule_label + " " + d.fact + " " +
             std::to_string(static_cast<int>(d.outcome)) + "\n";
    }
  }
  return out;
}

/// flights-48: the original Example 1.1 program over the 12-airport,
/// 48-leg network of generator seed 42, evaluated SCC-stratified with
/// single-fact subsumption.
struct Flights48 {
  Program program;
  Database edb;
  Result<EvalResult> run = Status::Internal("not evaluated");
};

Flights48 EvaluateFlights48(bool record_trace) {
  Flights48 f;
  auto parsed = ParseProgram(
      ReadFile(std::string(CQLOPT_PROGRAMS_DIR) + "/flights.cql"));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return f;
  f.program = std::move(parsed->program);
  FlightNetworkSpec spec;
  spec.airports = 12;
  spec.legs = 48;
  spec.seed = 42;
  EXPECT_TRUE(AddFlightNetwork(f.program.symbols.get(), spec, &f.edb).ok());
  EvalOptions opts;
  opts.strategy = EvalStrategy::kStratified;
  opts.record_trace = record_trace;
  f.run = Evaluate(f.program, f.edb, opts);
  return f;
}

/// Golden pin of flights-48 with the trace on: the sha256 of its rendered
/// facts, births and trace. The digest is the
/// constraint join's: the valuation join and the canonical ground form,
/// which run on every derivation here, must leave each of these
/// observables exactly as the constraint join produced them.
TEST(ColumnarGoldenTest, Flights48StoredRunIsPinned) {
  Flights48 f = EvaluateFlights48(/*record_trace=*/true);
  const Result<EvalResult>& run = f.run;
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->stats.derivations, 1549);
  EXPECT_EQ(run->db.TotalFacts() - f.edb.TotalFacts(), 726u);
  EXPECT_EQ(testutil::Sha256Hex(RenderRun(*run, *f.program.symbols)),
            "d0a9818c42e4a747667b7785349c56f230e0a1e339f7d3811b9a9c13282e6be1");
  // The digest itself, on the FIPS 180-4 test vectors.
  EXPECT_EQ(testutil::Sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      testutil::Sha256Hex(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

/// A ground row keeps only its value columns; the Fact that fact(i) builds
/// from them is exactly the canonical ground fact of the row's tuple.
TEST(ColumnarGoldenTest, Flights48GroundRowsRebuildTheirCanonicalFact) {
  Flights48 f = EvaluateFlights48(/*record_trace=*/false);
  ASSERT_TRUE(f.run.ok()) << f.run.status().ToString();
  const SymbolTable& symbols = *f.program.symbols;
  size_t ground_rows = 0;
  for (const auto& [pred, rel] : f.run->db.relations()) {
    for (size_t i = 0; i < rel.size(); ++i) {
      if (!rel.ground(i)) continue;
      ++ground_rows;
      GroundTuple columns;
      for (int pos = 1; pos <= rel.arity(i); ++pos) {
        columns.push_back(rel.tag(i, pos) == Relation::ColTag::kSymbol
                              ? PointValue::Symbol(rel.symbol_at(i, pos))
                              : PointValue::Number(rel.number_at(i, pos)));
      }
      EXPECT_EQ(rel.tuple(i), columns);
      const Fact expected = GroundFact(pred, columns);
      const Fact built = rel.fact(i);
      EXPECT_EQ(built.pred, pred);
      EXPECT_EQ(built.arity, rel.arity(i));
      EXPECT_TRUE(built.constraint.StructurallyEquals(expected.constraint))
          << built.ToString(symbols);
      EXPECT_EQ(built.Key(), expected.Key());
      EXPECT_EQ(built.ToString(symbols), expected.ToString(symbols));
    }
  }
  EXPECT_EQ(ground_rows, f.run->db.TotalFacts());
}

/// Bytes per stored fact of flights-48 (Database::ApproxBytes, which counts
/// every per-row array, the non-ground constraints, the label tables, the
/// identity tables and both indexes). A ground row stores no Conjunction
/// and no label string.
TEST(ColumnarGoldenTest, Flights48BytesPerFact) {
  Flights48 f = EvaluateFlights48(/*record_trace=*/false);
  ASSERT_TRUE(f.run.ok()) << f.run.status().ToString();
  ASSERT_GT(f.run->db.TotalFacts(), 0u);
  EXPECT_LE(f.run->db.ApproxBytes() / f.run->db.TotalFacts(), 500u);
}

/// Index demand (DESIGN.md §12): the cold flights-48 evaluation indexes
/// only the one position its candidate selection consults more than once,
/// flight's source airport, which the recursive rule probes for every
/// joined flight. The pushed selections' range probes (`T <= 240` on
/// position 3, `C <= 150` on position 4, one selection each) and
/// singleleg's are answered from the value columns, and no other position
/// is indexed.
TEST(ColumnarGoldenTest, Flights48IndexesOnlyPositionsConsultedTwice) {
  Flights48 f = EvaluateFlights48(/*record_trace=*/false);
  ASSERT_TRUE(f.run.ok()) << f.run.status().ToString();
  EXPECT_EQ(f.run->stats.index_builds, 1);
  const SymbolTable& symbols = *f.program.symbols;
  for (const auto& [pred, rel] : f.run->db.relations()) {
    const std::string name = symbols.PredicateName(pred);
    for (int position = 1; position <= 4; ++position) {
      EXPECT_EQ(rel.indexed(position), name == "flight" && position == 1)
          << name << " position " << position;
    }
  }
  // The range probes still ran, from the columns.
  EXPECT_GT(f.run->stats.interval_probes, 0);
}

// ---------------------------------------------------------------------------
// Ground identity: one canonical form per point, hash identity with an
// exact compare.

PointValue Num(int n) { return PointValue::Number(Rational(n)); }

TEST(GroundIdentityTest, OnePointIsOneRowWhateverItsForm) {
  Relation rel;
  // p(1, 2) as `$1 - $2 = -1 & $1 = 1`: the form a projection leaves.
  Conjunction linear;
  ASSERT_TRUE(linear.AddLinear(Atom({{1, 1}, {2, -1}}, 1, CmpOp::kEq)).ok());
  ASSERT_TRUE(linear.AddLinear(Atom({{1, 1}}, -1, CmpOp::kEq)).ok());
  const Fact canonical = GroundFact(0, {Num(1), Num(2)});
  EXPECT_NE(Fact(0, 2, linear).Key(), canonical.Key());
  EXPECT_EQ(rel.Insert(Fact(0, 2, linear), 0), InsertOutcome::kInserted);
  EXPECT_EQ(rel.Insert(canonical, 1), InsertOutcome::kDuplicate);
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.ground(0));
  EXPECT_EQ(rel.fact(0).Key(), canonical.Key());
  EXPECT_EQ(rel.RowOf(Fact(0, 2, linear)), std::optional<size_t>(0));
  EXPECT_EQ(rel.RowOf(canonical), std::optional<size_t>(0));
  EXPECT_EQ(rel.RowOf(GroundFact(0, {Num(2), Num(1)})), std::nullopt);

  // p(3, 3) as `$2 = $1 & $1 = 3`: stored without the equality edge.
  Conjunction diagonal;
  ASSERT_TRUE(diagonal.AddEquality(2, 1).ok());
  ASSERT_TRUE(diagonal.AddLinear(Atom({{1, 1}}, -3, CmpOp::kEq)).ok());
  EXPECT_EQ(rel.Insert(Fact(0, 2, diagonal), 0), InsertOutcome::kInserted);
  ASSERT_EQ(rel.size(), 2u);
  EXPECT_TRUE(rel.fact(1).constraint.EqualityPairs().empty());
  EXPECT_EQ(rel.fact(1).Key(), GroundFact(0, {Num(3), Num(3)}).Key());
  EXPECT_EQ(rel.Insert(GroundFact(0, {Num(3), Num(3)}), 0),
            InsertOutcome::kDuplicate);
  EXPECT_TRUE(rel.AllGround());
  EXPECT_TRUE(rel.non_ground_rows().empty());

  // A non-ground row: identified structurally, listed as a possible
  // subsumer.
  Conjunction ranged;
  ASSERT_TRUE(ranged.AddEquality(2, 1).ok());
  ASSERT_TRUE(ranged.AddLinear(Atom({{1, -1}}, 0, CmpOp::kLe)).ok());
  EXPECT_EQ(rel.Insert(Fact(0, 2, ranged), 2), InsertOutcome::kInserted);
  EXPECT_EQ(rel.Insert(Fact(0, 2, ranged), 3), InsertOutcome::kDuplicate);
  EXPECT_FALSE(rel.ground(2));
  EXPECT_FALSE(rel.AllGround());
  EXPECT_EQ(rel.non_ground_rows(), std::vector<size_t>{2});
  EXPECT_EQ(rel.RowOf(Fact(0, 2, ranged)), std::optional<size_t>(2));

  // Splicing keeps identity: the survivors are found again.
  Relation spliced = rel.Spliced({1, 0, 0});
  ASSERT_EQ(spliced.size(), 2u);
  EXPECT_EQ(spliced.RowOf(GroundFact(0, {Num(3), Num(3)})),
            std::optional<size_t>(0));
  EXPECT_EQ(spliced.RowOf(Fact(0, 2, ranged)), std::optional<size_t>(1));
  EXPECT_EQ(spliced.RowOf(canonical), std::nullopt);
  EXPECT_EQ(spliced.non_ground_rows(), std::vector<size_t>{1});
}

TEST(GroundIdentityTest, ManyRowsGrowTheIdentityTable) {
  Relation rel;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(rel.Insert(GroundFact(0, {Num(i % 100), Num(i / 100)}), 0),
              InsertOutcome::kInserted);
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rel.RowOf(GroundFact(0, {Num(i % 100), Num(i / 100)})),
              std::optional<size_t>(static_cast<size_t>(i)));
    EXPECT_EQ(rel.Insert(GroundFact(0, {Num(i % 100), Num(i / 100)}), 1),
              InsertOutcome::kDuplicate);
  }
  EXPECT_EQ(rel.RowOf(GroundFact(0, {Num(100), Num(0)})), std::nullopt);
}

TEST(GroundIdentityTest, StructurallyEqualsIsToStringEquality) {
  // The same classes reached through different merge orders: the
  // union-find's internal links differ, its canonical form does not.
  Conjunction a;
  ASSERT_TRUE(a.AddEquality(3, 2).ok());
  ASSERT_TRUE(a.AddEquality(2, 1).ok());
  ASSERT_TRUE(a.AddLinear(Atom({{3, 1}}, -4, CmpOp::kLe)).ok());
  Conjunction b;
  ASSERT_TRUE(b.AddLinear(Atom({{1, 1}}, -4, CmpOp::kLe)).ok());
  ASSERT_TRUE(b.AddEquality(1, 3).ok());
  ASSERT_TRUE(b.AddEquality(2, 3).ok());
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_TRUE(a.StructurallyEquals(b));
  Conjunction c = b;
  ASSERT_TRUE(c.BindSymbol(4, 7).ok());
  EXPECT_NE(a.ToString(), c.ToString());
  EXPECT_FALSE(a.StructurallyEquals(c));
  EXPECT_TRUE(Conjunction::False().StructurallyEquals(Conjunction::False()));
  EXPECT_FALSE(Conjunction::False().StructurallyEquals(Conjunction()));
  // Equal canonical forms fingerprint equally, so hash identity agrees.
  EXPECT_EQ(Canonicalize(Fact(0, 3, a)).Hash(),
            Canonicalize(Fact(0, 3, b)).Hash());
}

TEST(GroundIdentityTest, LoadedAndProgrammaticFactsAreTuples) {
  auto symbols = std::make_shared<SymbolTable>();
  Database db;
  auto loaded = LoadDatabaseText(
      "pp(X, X) :- X = 3.\nq(a, 5).\nr(X) :- X > 0.\n", symbols, &db);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Relation* pp = db.Find(symbols->LookupPredicate("pp"));
  ASSERT_NE(pp, nullptr);
  ASSERT_TRUE(pp->ground(0));
  EXPECT_TRUE(pp->fact(0).constraint.EqualityPairs().empty());
  EXPECT_EQ(pp->fact(0).ToString(*symbols), "pp(3, 3)");
  ASSERT_TRUE(db.AddGroundFact(symbols.get(), "q",
                               {Database::Value::Symbol("a"),
                                Database::Value::Number(Rational(5))})
                  .ok());
  EXPECT_EQ(db.FactsFor(symbols->LookupPredicate("q")), 1u);
  EXPECT_FALSE(db.Find(symbols->LookupPredicate("r"))->ground(0));
}

TEST(GroundIdentityTest, DerivedDiagonalIsCanonical) {
  auto parsed = ParseProgram("pp(X, X) :- s(X).\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Program& p = parsed->program;
  Database db;
  ASSERT_TRUE(db.AddGroundFact(p.symbols.get(), "s",
                               {Database::Value::Number(Rational(4))})
                  .ok());
  auto run = Evaluate(p, db, {});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->stats.ground_applications, 0);
  const Relation* pp = run->db.Find(p.symbols->LookupPredicate("pp"));
  ASSERT_NE(pp, nullptr);
  ASSERT_EQ(pp->size(), 1u);
  EXPECT_EQ(pp->fact(0).Key(), GroundFact(pp->fact(0).pred,
                                          {Num(4), Num(4)})
                                   .Key());
}

/// Corpus-replay differential: every minimized repro in tests/fuzz_corpus/
/// (planted-bug self-checks excluded) is evaluated under both subsumption
/// modes, with interval pruning on vs off, and the columnar
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
         {SubsumptionMode::kNone, SubsumptionMode::kSingleFact}) {
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
