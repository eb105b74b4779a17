#include "eval/provenance.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "eval/seminaive.h"

namespace cqlopt {
namespace {

Program ParseOrDie(const std::string& text) {
  auto parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed->program;
}

Database EdgeDb(SymbolTable* symbols, std::vector<std::pair<int, int>> edges) {
  Database db;
  for (auto& [u, v] : edges) {
    EXPECT_TRUE(db.AddGroundFact(symbols, "e",
                                 {Database::Value::Number(Rational(u)),
                                  Database::Value::Number(Rational(v))})
                    .ok());
  }
  return db;
}

TEST(ProvenanceTest, EdbFactIsLeaf) {
  Program p = ParseOrDie("t(X, Y) :- e(X, Y).");
  Database edb = EdgeDb(p.symbols.get(), {{1, 2}});
  auto run = Evaluate(p, edb, {});
  ASSERT_TRUE(run.ok());
  PredId e = p.symbols->LookupPredicate("e");
  auto ref = FindFactByText(run->db, e, "e(1, 2)", *p.symbols);
  ASSERT_TRUE(ref.has_value());
  auto tree = RenderDerivationTree(run->db, *ref, *p.symbols);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(*tree, "e(1, 2)\n");
}

TEST(ProvenanceTest, RecursiveDerivationTree) {
  Program p = ParseOrDie(
      "r1: t(X, Y) :- e(X, Y).\n"
      "r2: t(X, Y) :- e(X, Z), t(Z, Y).\n");
  Database edb = EdgeDb(p.symbols.get(), {{1, 2}, {2, 3}});
  auto run = Evaluate(p, edb, {});
  ASSERT_TRUE(run.ok());
  PredId t = p.symbols->LookupPredicate("t");
  auto ref = FindFactByText(run->db, t, "t(1, 3)", *p.symbols);
  ASSERT_TRUE(ref.has_value());
  auto tree = RenderDerivationTree(run->db, *ref, *p.symbols);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(*tree,
            "t(1, 3)  [r2]\n"
            "|- e(1, 2)\n"
            "`- t(2, 3)  [r1]\n"
            "   `- e(2, 3)\n");
}

TEST(ProvenanceTest, ConstraintFactRuleIsLeafWithLabel) {
  Program p = ParseOrDie("r6: m_fib(N, 5).");
  auto run = Evaluate(p, Database(), {});
  ASSERT_TRUE(run.ok());
  PredId m = p.symbols->LookupPredicate("m_fib");
  auto ref = FindFactByText(run->db, m, "m_fib($1, 5)", *p.symbols);
  ASSERT_TRUE(ref.has_value());
  auto tree = RenderDerivationTree(run->db, *ref, *p.symbols);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(*tree, "m_fib($1, 5)  [r6]\n");
}

TEST(ProvenanceTest, ParentsInBodyLiteralOrder) {
  Program p = ParseOrDie("r: j(X, Z) :- e(X, Y), f(Y, Z).");
  Database db = EdgeDb(p.symbols.get(), {{1, 2}});
  ASSERT_TRUE(db.AddGroundFact(p.symbols.get(), "f",
                               {Database::Value::Number(Rational(2)),
                                Database::Value::Number(Rational(3))})
                  .ok());
  auto run = Evaluate(p, db, {});
  ASSERT_TRUE(run.ok());
  PredId j = p.symbols->LookupPredicate("j");
  const Relation* rel = run->db.Find(j);
  ASSERT_NE(rel, nullptr);
  ASSERT_EQ(rel->size(), 1u);
  const auto& parents = rel->parents(0);
  ASSERT_EQ(parents.size(), 2u);
  EXPECT_EQ(parents[0].pred, p.symbols->LookupPredicate("e"));
  EXPECT_EQ(parents[1].pred, p.symbols->LookupPredicate("f"));
  EXPECT_EQ(rel->rule_label(0), "r");
}

TEST(ProvenanceTest, InvalidRefIsNotFound) {
  Database db;
  auto tree = RenderDerivationTree(db, Relation::FactRef{7, 0}, SymbolTable());
  EXPECT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kNotFound);
}

TEST(ProvenanceTest, FindFactByTextMissing) {
  Program p = ParseOrDie("t(X, Y) :- e(X, Y).");
  Database edb = EdgeDb(p.symbols.get(), {{1, 2}});
  auto run = Evaluate(p, edb, {});
  ASSERT_TRUE(run.ok());
  PredId t = p.symbols->LookupPredicate("t");
  EXPECT_FALSE(
      FindFactByText(run->db, t, "t(9, 9)", *p.symbols).has_value());
  EXPECT_FALSE(
      FindFactByText(run->db, 999, "t(1, 2)", *p.symbols).has_value());
}

}  // namespace
}  // namespace cqlopt
