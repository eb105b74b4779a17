#include "eval/loader.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "eval/seminaive.h"

namespace cqlopt {
namespace {

TEST(LoaderTest, LoadsGroundFacts) {
  auto symbols = std::make_shared<SymbolTable>();
  Database db;
  auto loaded = LoadDatabaseText(
      "singleleg(msn, ord, 50, 80).\n"
      "singleleg(ord, sea, 150, 90).\n"
      "b1(3, 7).\n",
      symbols, &db);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 3);
  EXPECT_EQ(db.TotalFacts(), 3u);
  for (const auto& [pred, rel] : db.relations()) {
    EXPECT_TRUE(rel.AllGround());
  }
  PredId singleleg = symbols->LookupPredicate("singleleg");
  ASSERT_NE(singleleg, SymbolTable::kNoPred);
  EXPECT_EQ(db.FactsFor(singleleg), 2u);
  const Relation* rel = db.Find(singleleg);
  EXPECT_EQ(rel->fact(0).ToString(*symbols),
            "singleleg(msn, ord, 50, 80)");
  EXPECT_EQ(rel->birth(0), -1);
}

TEST(LoaderTest, LoadsConstraintFacts) {
  auto symbols = std::make_shared<SymbolTable>();
  Database db;
  auto loaded = LoadDatabaseText("bound(X) :- X <= 4, X >= 0.\n", symbols, &db);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(db.TotalFacts(), 1u);
  EXPECT_FALSE(db.Find(symbols->LookupPredicate("bound"))->AllGround());
}

TEST(LoaderTest, RejectsRulesWithBodies) {
  auto symbols = std::make_shared<SymbolTable>();
  Database db;
  auto loaded = LoadDatabaseText("q(X) :- e(X).\n", symbols, &db);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(LoaderTest, RejectsQueries) {
  auto symbols = std::make_shared<SymbolTable>();
  Database db;
  auto loaded = LoadDatabaseText("e(1, 2).\n?- e(X, Y).\n", symbols, &db);
  EXPECT_FALSE(loaded.ok());
}

TEST(LoaderTest, RejectsUnsatisfiableFacts) {
  auto symbols = std::make_shared<SymbolTable>();
  Database db;
  auto loaded =
      LoadDatabaseText("bad(X) :- X <= 0, X >= 1.\n", symbols, &db);
  EXPECT_FALSE(loaded.ok());
}

TEST(LoaderTest, LoadedDatabaseEvaluates) {
  auto parsed = ParseProgram("t(X, Z) :- e(X, Y), e(Y, Z).\n");
  ASSERT_TRUE(parsed.ok());
  Program& program = parsed->program;
  Database db;
  auto loaded = LoadDatabaseText("e(1, 2).\ne(2, 3).\n", program.symbols, &db);
  ASSERT_TRUE(loaded.ok());
  auto run = Evaluate(program, db, {});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->db.FactsFor(program.symbols->LookupPredicate("t")), 1u);
}

TEST(LoaderTest, ErrorsCiteLineAndStatement) {
  auto symbols = std::make_shared<SymbolTable>();
  Database db;
  // The offending statement is on line 3 (line 2 is blank); the error must
  // cite the 1-based line and render the statement back.
  auto loaded = LoadDatabaseText("e(1, 2).\n\nq(X) :- r(X).\ne(3, 4).\n",
                                 symbols, &db);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(loaded.status().message(),
            "database text line 3: rule has a body; only facts are allowed: "
            "q(X) :- r(X).");
}

TEST(LoaderTest, UnsatisfiableFactErrorIsPositional) {
  auto symbols = std::make_shared<SymbolTable>();
  Database db;
  auto loaded = LoadDatabaseText("ok(1).\nbad(X) :- X <= 0, X >= 1.\n",
                                 symbols, &db);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("database text line 2"),
            std::string::npos)
      << loaded.status().message();
  EXPECT_NE(loaded.status().message().find("fact is unsatisfiable"),
            std::string::npos);
  // Two direct values for one argument: not a tuple, and unsatisfiable.
  auto clash = LoadDatabaseText("bad(X) :- X = 5, X = 6.\n", symbols, &db);
  ASSERT_FALSE(clash.ok());
  EXPECT_NE(clash.status().message().find("fact is unsatisfiable"),
            std::string::npos)
      << clash.status().message();
}

TEST(LoaderTest, QueryErrorIsPositional) {
  auto symbols = std::make_shared<SymbolTable>();
  Database db;
  auto loaded =
      LoadDatabaseText("e(1, 2).\n?- e(X, Y).\n", symbols, &db);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("database text line 2"),
            std::string::npos)
      << loaded.status().message();
  EXPECT_NE(loaded.status().message().find("queries are not allowed"),
            std::string::npos);
}

TEST(LoaderTest, SharedSymbolTableAlignsIds) {
  // Facts loaded after the program parse must reuse the same predicate ids.
  auto parsed = ParseProgram("q(X) :- e(X).\n");
  ASSERT_TRUE(parsed.ok());
  PredId e_before = parsed->program.symbols->LookupPredicate("e");
  Database db;
  auto loaded = LoadDatabaseText("e(5).\n", parsed->program.symbols, &db);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(db.FactsFor(e_before), 1u);
}

}  // namespace
}  // namespace cqlopt
