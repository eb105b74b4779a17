#include <gtest/gtest.h>

#include "ast/parser.h"
#include "constraint/disjoint.h"
#include "constraint/implication.h"
#include "core/equivalence.h"
#include "core/workload.h"
#include "testing/corpus.h"
#include "testing/generator.h"
#include "testing/properties.h"
#include "testing/shrinker.h"
#include "transform/pipeline.h"

namespace cqlopt {
namespace {

using testing::AllProperties;
using testing::ConstraintGenOptions;
using testing::FindProperty;
using testing::FuzzCase;
using testing::FuzzOptions;
using testing::GenerateCase;
using testing::PropertyInfo;
using testing::PropertyOutcome;
using testing::RandomConjunction;
using testing::RenderCorpusFile;
using testing::Rng;
using testing::ShrinkCase;
using testing::ShrinkStats;

/// The constraint-generator configuration shared by the pure-constraint
/// property suites: six variables, dense multi-variable atoms, strict and
/// equality operators all enabled.
ConstraintGenOptions DenseOptions(int atoms) {
  ConstraintGenOptions cg;
  cg.num_vars = 6;
  cg.atoms = atoms;
  cg.dense = true;
  return cg;
}

/// On failure, shrinks the case and renders a self-contained report: the
/// failure message, the minimized corpus-format repro, and the exact
/// cqlfuzz command line that replays the unshrunk case.
std::string FailureReport(const PropertyInfo& info, const FuzzCase& c,
                          const FuzzOptions& fo, const std::string& message) {
  ShrinkStats stats;
  FuzzCase shrunk = ShrinkCase(c, info, fo, {}, &stats);
  return message + "\n--- shrunk repro (" +
         std::to_string(shrunk.program.rules.size()) + " rules, " +
         std::to_string(shrunk.edb.size()) + " facts, " +
         std::to_string(stats.attempts) + " attempts) ---\n" +
         RenderCorpusFile(shrunk, info.name, fo.bug, message) +
         "--- replay: cqlfuzz --seed " + std::to_string(c.seed) +
         " --iters 1 --property " + info.name + " ---";
}

class ImplicationProperty : public ::testing::TestWithParam<int> {};

TEST_P(ImplicationProperty, ReflexiveAndMonotone) {
  Rng rng(Rng::DeriveSeed(0x1A9, static_cast<uint64_t>(GetParam())));
  for (int trial = 0; trial < 30; ++trial) {
    Conjunction a = RandomConjunction(&rng, DenseOptions(3));
    // Reflexivity.
    EXPECT_TRUE(Implies(a, a));
    // Strengthening the LHS preserves implication.
    Conjunction stronger = a;
    (void)stronger.AddConjunction(RandomConjunction(&rng, DenseOptions(1)));
    EXPECT_TRUE(Implies(stronger, a));
    // Anything implies true; false implies anything.
    EXPECT_TRUE(Implies(a, Conjunction::True()));
    EXPECT_TRUE(Implies(Conjunction::False(), a));
  }
}

TEST_P(ImplicationProperty, TransitiveOnChains) {
  Rng rng(Rng::DeriveSeed(0x2B7, static_cast<uint64_t>(GetParam())));
  for (int trial = 0; trial < 20; ++trial) {
    Conjunction a = RandomConjunction(&rng, DenseOptions(2));
    Conjunction b = a;
    (void)b.AddConjunction(RandomConjunction(&rng, DenseOptions(1)));
    Conjunction c = b;
    (void)c.AddConjunction(RandomConjunction(&rng, DenseOptions(1)));
    // c => b => a by construction; check the checker agrees transitively.
    EXPECT_TRUE(Implies(c, b));
    EXPECT_TRUE(Implies(b, a));
    EXPECT_TRUE(Implies(c, a));
  }
}

TEST_P(ImplicationProperty, ProjectionIsSound) {
  // a implies its own projection (projection only loses constraints).
  Rng rng(Rng::DeriveSeed(0x3C5, static_cast<uint64_t>(GetParam())));
  for (int trial = 0; trial < 30; ++trial) {
    Conjunction a = RandomConjunction(&rng, DenseOptions(4));
    auto projected = a.Project({1, 2});
    ASSERT_TRUE(projected.ok());
    EXPECT_TRUE(Implies(a, *projected));
    EXPECT_EQ(a.IsSatisfiable(), projected->IsSatisfiable());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImplicationProperty, ::testing::Range(1, 7));

class DisjointProperty : public ::testing::TestWithParam<int> {};

TEST_P(DisjointProperty, EquivalentAndPairwiseUnsat) {
  Rng rng(Rng::DeriveSeed(0x4D3, static_cast<uint64_t>(GetParam())));
  for (int trial = 0; trial < 10; ++trial) {
    ConstraintSet set;
    for (int d = 0; d < 3; ++d) {
      set.AddDisjunct(RandomConjunction(&rng, DenseOptions(2)));
    }
    if (set.is_false()) continue;
    auto out = MakeDisjoint(set);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out->EquivalentTo(set)) << "trial " << trial;
    const auto& ds = out->disjuncts();
    for (size_t i = 0; i < ds.size(); ++i) {
      for (size_t j = i + 1; j < ds.size(); ++j) {
        Conjunction both = ds[i];
        if (!both.AddConjunction(ds[j]).ok()) continue;
        EXPECT_FALSE(both.IsSatisfiable());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisjointProperty, ::testing::Range(1, 5));

/// The full differential suite over generated programs: every registered
/// property (engine vs oracle, strategy confluence, rewrite equivalence,
/// FM projection, resume-vs-scratch, service round-trip) on random
/// programs with disjunctive rules, recursion, constraint facts, and
/// strict/equality selections. Failures shrink themselves and print the
/// cqlfuzz replay command.
class GeneratedCaseProperty : public ::testing::TestWithParam<int> {};

TEST_P(GeneratedCaseProperty, AllPropertiesHold) {
  uint64_t seed = Rng::DeriveSeed(0xC0FFEE, static_cast<uint64_t>(GetParam()));
  FuzzCase c = GenerateCase(seed, {});
  FuzzOptions fo;
  for (const PropertyInfo& info : AllProperties()) {
    PropertyOutcome out = info.fn(c, fo);
    EXPECT_TRUE(out.ok) << info.name << ": "
                        << FailureReport(info, c, fo, out.message);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedCaseProperty,
                         ::testing::Range(0, 10));

/// `--seed N` must be a complete repro token: the same seed generates a
/// byte-identical case (program, query, and EDB) on every run and platform.
TEST(GeneratorDeterminism, SameSeedSameCase) {
  for (uint64_t seed : {1ull, 42ull, 0xDEADBEEFull}) {
    FuzzCase a = GenerateCase(seed, {});
    FuzzCase b = GenerateCase(seed, {});
    EXPECT_EQ(RenderCorpusFile(a, "x", testing::PlantedBug::kNone, ""),
              RenderCorpusFile(b, "x", testing::PlantedBug::kNone, ""));
  }
}

/// The planted-bug path: the differential harness must catch a deliberately
/// broken pipeline within a few cases, and the shrinker must cut the repro
/// down to a handful of rules (the cqlfuzz --self-check contract).
TEST(SelfCheck, PlantedBugIsCaughtAndShrunk) {
  const PropertyInfo* rewrite = FindProperty("rewrite_equiv");
  ASSERT_NE(rewrite, nullptr);
  FuzzOptions fo;
  fo.bug = testing::PlantedBug::kDropConstraintAtom;
  bool caught = false;
  for (int i = 0; i < 50 && !caught; ++i) {
    FuzzCase c = GenerateCase(
        Rng::DeriveSeed(42, static_cast<uint64_t>(i)), {});
    PropertyOutcome out = rewrite->fn(c, fo);
    if (out.ok) continue;
    caught = true;
    ShrinkStats stats;
    FuzzCase shrunk = ShrinkCase(c, *rewrite, fo, {}, &stats);
    EXPECT_LE(shrunk.program.rules.size(), 10u);
    EXPECT_GT(stats.attempts, 0);
    // The shrunk case still fails — minimization preserved the bug.
    PropertyOutcome again = rewrite->fn(shrunk, fo);
    EXPECT_FALSE(again.ok);
  }
  EXPECT_TRUE(caught)
      << "planted drop-constraint-atom bug not caught in 50 cases";
}

/// Theorem 4.4 property: rewriting never increases the computed fact count,
/// and ground evaluations stay ground.
class FactCountProperty : public ::testing::TestWithParam<int> {};

TEST_P(FactCountProperty, RewritingNeverComputesMoreFacts) {
  auto parsed = ParseProgram(
      "q(X, Y) :- t(X, Y), X <= 4.\n"
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- e(X, Z), t(Z, Y).\n"
      "?- q(X, Y).\n");
  ASSERT_TRUE(parsed.ok());
  Program& program = parsed->program;
  Query& query = parsed->queries[0];
  Database db;
  ASSERT_TRUE(AddBinaryRelation(program.symbols.get(), "e", 18, 9,
                                static_cast<uint64_t>(GetParam()) * 7, &db)
                  .ok());
  auto baseline = Evaluate(program, db, {});
  ASSERT_TRUE(baseline.ok());
  EXPECT_TRUE(baseline->stats.all_ground);
  auto steps = ParseSteps("pred,qrp");
  ASSERT_TRUE(steps.ok());
  auto rewritten = ApplyPipeline(program, query, *steps, {});
  ASSERT_TRUE(rewritten.ok());
  auto run = Evaluate(rewritten->program, db, {});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->stats.all_ground);
  EXPECT_LE(run->db.TotalFacts(), baseline->db.TotalFacts());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FactCountProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace cqlopt
