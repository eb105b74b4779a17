// Corpus test: every program in programs/*.cql parses, round-trips through
// the printer, rewrites under every applicable transformation sequence, and
// stays query-equivalent on a seeded EDB.

#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "ast/printer.h"
#include "core/equivalence.h"
#include "core/workload.h"
#include "eval/loader.h"
#include "synthetic_edb.h"
#include "transform/pipeline.h"

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

class CorpusTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CorpusTest, ParsesAndRoundTrips) {
  std::string text = ReadFile(ProgramPath(GetParam()));
  auto parsed = ParseProgram(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->queries.size(), 1u) << GetParam();
  // One render can reorient equality atoms (canonical orientation depends
  // on variable-id order, which the first reparse reshuffles); from the
  // second render on, the text is a fixpoint.
  std::string first = RenderProgram(parsed->program);
  auto reparsed = ParseProgram(first);
  ASSERT_TRUE(reparsed.ok()) << first;
  std::string second = RenderProgram(reparsed->program);
  auto reparsed2 = ParseProgram(second);
  ASSERT_TRUE(reparsed2.ok()) << second;
  EXPECT_EQ(RenderProgram(reparsed2->program), second);
}

TEST_P(CorpusTest, AllSequencesQueryEquivalent) {
  std::string text = ReadFile(ProgramPath(GetParam()));
  auto parsed = ParseProgram(text);
  ASSERT_TRUE(parsed.ok());
  Program& program = parsed->program;
  Query& query = parsed->queries[0];
  // flights uses symbolic airports: load its companion EDB; others get a
  // synthetic numeric EDB.
  Database db;
  if (std::string(GetParam()) == "flights.cql") {
    auto loaded = LoadDatabaseText(ReadFile(ProgramPath("flights_edb.cql")),
                                   program.symbols, &db);
    ASSERT_TRUE(loaded.ok());
  } else {
    db = SyntheticEdb(program, 1234);
  }
  EvalOptions eval;
  eval.max_iterations = 48;
  auto baseline_run = Evaluate(program, db, eval);
  ASSERT_TRUE(baseline_run.ok());
  if (!baseline_run->stats.reached_fixpoint) {
    GTEST_SKIP() << "baseline diverges on this EDB (expected for fib.cql)";
  }
  auto baseline = QueryAnswers(*baseline_run, query);
  ASSERT_TRUE(baseline.ok());
  for (const char* spec : {"pred,qrp", "pred,qrp,mg", "mg,qrp", "balbin"}) {
    auto steps = ParseSteps(spec);
    ASSERT_TRUE(steps.ok());
    auto rewritten = ApplyPipeline(program, query, *steps, {});
    ASSERT_TRUE(rewritten.ok()) << GetParam() << " " << spec << ": "
                                << rewritten.status().ToString();
    auto run = Evaluate(rewritten->program, db, eval);
    ASSERT_TRUE(run.ok());
    auto answers = QueryAnswers(*run, rewritten->query);
    ASSERT_TRUE(answers.ok());
    EXPECT_TRUE(SameAnswers(*baseline, *answers)) << GetParam() << " " << spec;
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, CorpusTest,
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

}  // namespace
}  // namespace cqlopt
