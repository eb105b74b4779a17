#include "eval/relation.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "eval/database.h"
#include "index_states.h"

namespace cqlopt {
namespace {

LinearConstraint Atom(std::vector<std::pair<VarId, int>> terms, int constant,
                      CmpOp op) {
  LinearExpr e;
  for (auto& [v, c] : terms) e.Add(v, Rational(c));
  e.AddConstant(Rational(constant));
  return LinearConstraint(e, op);
}

Fact MakeFact(int bound, CmpOp op = CmpOp::kLe) {
  Conjunction c;
  EXPECT_TRUE(c.AddLinear(Atom({{1, 1}}, -bound, op)).ok());
  return Fact(0, 1, c);
}

TEST(RelationTest, InsertAndDuplicate) {
  Relation rel;
  EXPECT_EQ(rel.Insert(MakeFact(3), 0), InsertOutcome::kInserted);
  EXPECT_EQ(rel.Insert(MakeFact(3), 1), InsertOutcome::kDuplicate);
  EXPECT_EQ(rel.size(), 1u);
}

TEST(RelationTest, NoSubsumptionModeKeepsBoth) {
  // Insert checks structure only: x <= 3 is stored beside x <= 5, which
  // implies it. Subsumption is the fixpoint's reconciliation step.
  Relation rel;
  EXPECT_EQ(rel.Insert(MakeFact(5), 0), InsertOutcome::kInserted);
  EXPECT_EQ(rel.Insert(MakeFact(3), 1), InsertOutcome::kInserted);
  EXPECT_EQ(rel.size(), 2u);
}

TEST(RelationTest, BirthRecorded) {
  Relation rel;
  (void)rel.Insert(MakeFact(3), 4);
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel.birth(0), 4);
}

TEST(RelationTest, AllGround) {
  Relation rel;
  Conjunction ground;
  ASSERT_TRUE(ground.AddLinear(Atom({{1, 1}}, -3, CmpOp::kEq)).ok());
  (void)rel.Insert(Fact(0, 1, ground), 0);
  EXPECT_TRUE(rel.AllGround());
  (void)rel.Insert(MakeFact(7), 0);
  EXPECT_FALSE(rel.AllGround());
}

// --- Per-position index: the equality probe -----------------------------
//
// The contract under test (relation.h): Probe(pos, value) visits, in
// ascending entry order, exactly the entries that a linear scan keeps after
// the ArgSignature pre-filter at that position — facts directly bound to the
// probed value, merged with facts whose position is constraint-only bound
// (unbound signature, e.g. `$1 > 0`).

/// $1 = n: direct equality, so QuickNumericValue binds the signature.
Fact NumberFact(int n) {
  Conjunction c;
  EXPECT_TRUE(c.AddLinear(Atom({{1, 1}}, -n, CmpOp::kEq)).ok());
  return Fact(0, 1, c);
}

/// $1 bound to a symbol.
Fact SymbolFact(SymbolId s) {
  Conjunction c;
  EXPECT_TRUE(c.BindSymbol(1, s).ok());
  return Fact(0, 1, c);
}

/// lo <= $1 <= hi: the position is restricted only through inequalities,
/// so its signature stays unbound (constraint-only bound).
Fact RangeFact(int lo, int hi) {
  Conjunction c;
  EXPECT_TRUE(c.AddLinear(Atom({{1, -1}}, lo, CmpOp::kLe)).ok());
  EXPECT_TRUE(c.AddLinear(Atom({{1, 1}}, -hi, CmpOp::kLe)).ok());
  return Fact(0, 1, c);
}

/// No constraint at all on $1 (unbound).
Fact UnboundFact() { return Fact(0, 1, Conjunction()); }

/// The linear scan the index replaces: the rows surviving the value column
/// pre-filter at `position`.
std::vector<size_t> ScanWithPrefilter(const Relation& rel, int position,
                                      const Relation::ArgSignature& value) {
  std::vector<size_t> out;
  for (size_t i = 0; i < rel.size(); ++i) {
    switch (rel.tag(i, position)) {
      case Relation::ColTag::kSymbol:
        if (!value.symbol.has_value() ||
            rel.symbol_at(i, position) != *value.symbol) {
          continue;
        }
        break;
      case Relation::ColTag::kNumber:
        if (!value.number.has_value() ||
            !(rel.number_at(i, position) == *value.number)) {
          continue;
        }
        break;
      default:
        break;  // absent / unbound / interval-bound: never pre-filtered
    }
    out.push_back(i);
  }
  return out;
}

/// Probe into a fresh buffer, returned for comparison. Every probe also
/// checks that the rows answer it alike unindexed and sealed.
std::vector<size_t> ProbeVec(const Relation& rel, int position,
                             const Relation::ArgSignature& value) {
  ExpectColumnPathMatchesIndex(rel, position, value);
  std::vector<size_t> out;
  rel.Probe(position, value, &out);
  return out;
}

Relation::ArgSignature NumberValue(int n) {
  return Relation::ArgSignature{std::nullopt, Rational(n)};
}

Relation::ArgSignature SymbolValue(SymbolId s) {
  return Relation::ArgSignature{s, std::nullopt};
}

TEST(RelationIndexTest, ProbeEqualsScanWithPrefilter) {
  // All four row kinds at position 1, bound values out of order and
  // repeated; $2 = row number keeps the repeats distinct rows.
  std::vector<Fact> facts;
  for (Fact fact : {NumberFact(9), RangeFact(0, 10), NumberFact(3),
                    SymbolFact(4), UnboundFact(), NumberFact(7), SymbolFact(2),
                    NumberFact(3), RangeFact(2, 5), SymbolFact(4),
                    NumberFact(-1), UnboundFact()}) {
    EXPECT_TRUE(fact.constraint
                    .AddLinear(Atom({{2, 1}},
                                    -static_cast<int>(facts.size()),
                                    CmpOp::kEq))
                    .ok());
    fact.arity = 2;
    facts.push_back(std::move(fact));
  }
  for (IndexState state : kIndexStates) {
    SCOPED_TRACE(static_cast<int>(state));
    Relation rel = BuildIn(state, facts);
    for (const auto& value :
         {NumberValue(3), NumberValue(7), NumberValue(99), NumberValue(-1),
          SymbolValue(4), SymbolValue(2), SymbolValue(5)}) {
      EXPECT_EQ(ProbeVec(rel, 1, value), ScanWithPrefilter(rel, 1, value));
      EXPECT_EQ(rel.ProbeCost(1, value),
                ScanWithPrefilter(rel, 1, value).size());
    }
  }
}

TEST(RelationIndexTest, ConstraintOnlyBoundEnumeratedForEveryValue) {
  Relation rel;
  (void)rel.Insert(RangeFact(0, 10), 0);
  // The range fact's position 1 has no direct binding: it must appear in
  // every probe, even for values outside the range — the caller's
  // constraint conjunction, not the index, decides satisfiability.
  EXPECT_EQ(ProbeVec(rel, 1, NumberValue(5)), std::vector<size_t>({0}));
  EXPECT_EQ(ProbeVec(rel, 1, NumberValue(99)), std::vector<size_t>({0}));
  EXPECT_EQ(ProbeVec(rel, 1, SymbolValue(1)), std::vector<size_t>({0}));
}

TEST(RelationIndexTest, RejectedFactsAreNeverIndexed) {
  Relation rel;
  EXPECT_EQ(rel.Insert(NumberFact(3), 0), InsertOutcome::kInserted);
  EXPECT_EQ(rel.Insert(NumberFact(3), 1), InsertOutcome::kDuplicate);
  EXPECT_EQ(rel.Insert(MakeFact(5), 1), InsertOutcome::kInserted);
  // Only the two stored entries are reachable through the index.
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(ProbeVec(rel, 1, NumberValue(3)),
            std::vector<size_t>({0, 1}));  // row 1 is interval-bound (x <= 5)
  EXPECT_EQ(rel.ProbeCost(1, NumberValue(3)), 2u);
}

TEST(RelationIndexTest, ProbeCostMatchesProbe) {
  const std::vector<Fact> facts = {NumberFact(2), NumberFact(1),
                                   RangeFact(0, 3), SymbolFact(2),
                                   UnboundFact()};
  for (IndexState state : kIndexStates) {
    SCOPED_TRACE(static_cast<int>(state));
    Relation rel = BuildIn(state, facts);
    for (const auto& value : {NumberValue(1), NumberValue(2), SymbolValue(2),
                              SymbolValue(9), NumberValue(42)}) {
      EXPECT_EQ(rel.ProbeCost(1, value), ProbeVec(rel, 1, value).size());
    }
  }
}

TEST(RelationIndexTest, SymbolAndNumberKeysNeverCollide) {
  for (IndexState state : kIndexStates) {
    SCOPED_TRACE(static_cast<int>(state));
    Relation rel = BuildIn(state, {NumberFact(7), SymbolFact(7)});
    EXPECT_EQ(ProbeVec(rel, 1, NumberValue(7)), std::vector<size_t>({0}));
    EXPECT_EQ(ProbeVec(rel, 1, SymbolValue(7)), std::vector<size_t>({1}));
  }
}

TEST(RelationIndexTest, MergedResultIsAscendingInsertionOrder) {
  for (IndexState state : kIndexStates) {
    SCOPED_TRACE(static_cast<int>(state));
    // Interleave bound and unbound entries so the merge has real work.
    Relation rel = BuildIn(state, {RangeFact(0, 1),    // 0
                                   NumberFact(5),      // 1
                                   RangeFact(0, 2),    // 2
                                   NumberFact(6),      // 3
                                   RangeFact(0, 3)});  // 4
    EXPECT_EQ(ProbeVec(rel, 1, NumberValue(5)),
              std::vector<size_t>({0, 1, 2, 4}));
    EXPECT_EQ(ProbeVec(rel, 1, NumberValue(6)),
              std::vector<size_t>({0, 2, 3, 4}));
  }
}

TEST(RelationIndexTest, ProbeBeyondSeenArityIsEmpty) {
  Relation rel;
  (void)rel.Insert(NumberFact(3), 0);
  EXPECT_EQ(ProbeVec(rel, 2, NumberValue(3)), std::vector<size_t>{});
  EXPECT_EQ(rel.ProbeCost(2, NumberValue(3)), 0u);
}

TEST(DatabaseTest, AddGroundFactBuildsConstraints) {
  SymbolTable symbols;
  Database db;
  ASSERT_TRUE(db.AddGroundFact(&symbols, "leg",
                               {Database::Value::Symbol("a"),
                                Database::Value::Number(Rational(7))})
                  .ok());
  PredId leg = symbols.LookupPredicate("leg");
  const Relation* rel = db.Find(leg);
  ASSERT_NE(rel, nullptr);
  ASSERT_EQ(rel->size(), 1u);
  EXPECT_TRUE(rel->ground(0));
  EXPECT_EQ(rel->birth(0), -1);
  EXPECT_EQ(db.TotalFacts(), 1u);
  EXPECT_EQ(db.FactsFor(leg), 1u);
  EXPECT_TRUE(rel->AllGround());
}

TEST(DatabaseTest, FindMissingRelationIsNull) {
  Database db;
  EXPECT_EQ(db.Find(99), nullptr);
  EXPECT_EQ(db.FactsFor(99), 0u);
}

}  // namespace
}  // namespace cqlopt
