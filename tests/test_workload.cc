#include "core/workload.h"

#include <gtest/gtest.h>

namespace cqlopt {
namespace {

TEST(WorkloadTest, FlightNetworkShape) {
  SymbolTable symbols;
  Database db;
  FlightNetworkSpec spec;
  spec.airports = 8;
  spec.legs = 40;
  ASSERT_TRUE(AddFlightNetwork(&symbols, spec, &db).ok());
  PredId singleleg = symbols.LookupPredicate("singleleg");
  ASSERT_NE(singleleg, SymbolTable::kNoPred);
  const Relation* rel = db.Find(singleleg);
  ASSERT_NE(rel, nullptr);
  EXPECT_LE(rel->size(), 40u);
  EXPECT_GT(rel->size(), 35u);  // duplicate draws are rare at these ranges
  for (size_t i = 0; i < rel->size(); ++i) {
    const Fact& f = rel->fact(i);
    EXPECT_TRUE(rel->ground(i));
    // No self loops; times and costs within the configured ranges.
    auto src = f.constraint.GetSymbol(1);
    auto dst = f.constraint.GetSymbol(2);
    ASSERT_TRUE(src.has_value());
    ASSERT_TRUE(dst.has_value());
    EXPECT_NE(*src, *dst);
    auto time = f.constraint.GetNumericValue(3);
    auto cost = f.constraint.GetNumericValue(4);
    ASSERT_TRUE(time.has_value());
    ASSERT_TRUE(cost.has_value());
    EXPECT_GE(*time, Rational(spec.time_min));
    EXPECT_LE(*time, Rational(spec.time_max));
    EXPECT_GE(*cost, Rational(spec.cost_min));
    EXPECT_LE(*cost, Rational(spec.cost_max));
  }
}

TEST(WorkloadTest, DeterministicInSeed) {
  SymbolTable s1, s2;
  Database d1, d2;
  FlightNetworkSpec spec;
  ASSERT_TRUE(AddFlightNetwork(&s1, spec, &d1).ok());
  ASSERT_TRUE(AddFlightNetwork(&s2, spec, &d2).ok());
  PredId leg1 = s1.LookupPredicate("singleleg");
  PredId leg2 = s2.LookupPredicate("singleleg");
  const Relation* r1 = d1.Find(leg1);
  const Relation* r2 = d2.Find(leg2);
  ASSERT_EQ(r1->size(), r2->size());
  for (size_t i = 0; i < r1->size(); ++i) {
    EXPECT_EQ(r1->fact(i).ToString(s1), r2->fact(i).ToString(s2));
  }
}

TEST(WorkloadTest, DifferentSeedsDiffer) {
  SymbolTable symbols;
  Database d1, d2;
  FlightNetworkSpec a;
  FlightNetworkSpec b;
  b.seed = a.seed + 1;
  ASSERT_TRUE(AddFlightNetwork(&symbols, a, &d1).ok());
  ASSERT_TRUE(AddFlightNetwork(&symbols, b, &d2).ok());
  PredId leg = symbols.LookupPredicate("singleleg");
  std::string s1, s2;
  const Relation* w1 = d1.Find(leg);
  const Relation* w2 = d2.Find(leg);
  for (size_t i = 0; i < w1->size(); ++i) s1 += w1->fact(i).ToString(symbols);
  for (size_t i = 0; i < w2->size(); ++i) s2 += w2->fact(i).ToString(symbols);
  EXPECT_NE(s1, s2);
}

TEST(WorkloadTest, BinaryRelationDomainRespected) {
  SymbolTable symbols;
  Database db;
  ASSERT_TRUE(AddBinaryRelation(&symbols, "b1", 50, 10, 3, &db).ok());
  const Relation* rel = db.Find(symbols.LookupPredicate("b1"));
  ASSERT_NE(rel, nullptr);
  // Duplicate draws collapse (the database stores sets of facts).
  EXPECT_LE(rel->size(), 50u);
  EXPECT_GT(rel->size(), 25u);
  for (size_t i = 0; i < rel->size(); ++i) {
    for (VarId pos : {1, 2}) {
      auto v = rel->fact(i).constraint.GetNumericValue(pos);
      ASSERT_TRUE(v.has_value());
      EXPECT_GE(*v, Rational(0));
      EXPECT_LT(*v, Rational(10));
    }
  }
}

TEST(WorkloadTest, UnaryRelation) {
  SymbolTable symbols;
  Database db;
  ASSERT_TRUE(AddUnaryRelation(&symbols, "b2", 20, 5, 4, &db).ok());
  // At most `domain` distinct unary facts survive deduplication.
  size_t stored = db.FactsFor(symbols.LookupPredicate("b2"));
  EXPECT_GT(stored, 0u);
  EXPECT_LE(stored, 5u);
}

TEST(WorkloadTest, LayeredGraphEdgesRespectLayers) {
  SymbolTable symbols;
  Database db;
  ASSERT_TRUE(AddLayeredGraph(&symbols, "e", 4, 3, 2, 5, &db).ok());
  const Relation* rel = db.Find(symbols.LookupPredicate("e"));
  ASSERT_NE(rel, nullptr);
  // (layers-1) * width * fanout draws, minus duplicate-collapsed edges.
  EXPECT_LE(rel->size(), 3u * 3u * 2u);
  EXPECT_GT(rel->size(), 0u);
  for (size_t i = 0; i < rel->size(); ++i) {
    auto u = rel->fact(i).constraint.GetNumericValue(1);
    auto v = rel->fact(i).constraint.GetNumericValue(2);
    ASSERT_TRUE(u.has_value() && v.has_value());
    // v is in the layer after u.
    int64_t ui, vi;
    ASSERT_TRUE(u->numerator().ToInt64(&ui));
    ASSERT_TRUE(v->numerator().ToInt64(&vi));
    EXPECT_EQ(vi / 3, ui / 3 + 1);
  }
}

}  // namespace
}  // namespace cqlopt
