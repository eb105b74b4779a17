#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "testing/corpus.h"
#include "testing/properties.h"

namespace cqlopt {
namespace {

using testing::CorpusCase;
using testing::FindProperty;
using testing::FuzzOptions;
using testing::ListCorpusFiles;
using testing::LoadCorpusFile;
using testing::PlantedBug;
using testing::PropertyInfo;
using testing::PropertyOutcome;

/// Replays every minimized repro in tests/fuzz_corpus/. Files with a
/// `% bug:` header are harness self-checks: the named property must still
/// FAIL under the planted bug (the differential oracle keeps catching it).
/// Plain files are fixed engine bugs: the property must hold, forever.
TEST(FuzzCorpus, ReplaysEveryRepro) {
  auto files = ListCorpusFiles(CQLOPT_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  ASSERT_FALSE(files->empty())
      << "no .cql repro files in " << CQLOPT_FUZZ_CORPUS_DIR;
  for (const std::string& path : *files) {
    SCOPED_TRACE(path);
    auto loaded = LoadCorpusFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const PropertyInfo* property = FindProperty(loaded->property);
    ASSERT_NE(property, nullptr)
        << "unknown property " << loaded->property;
    FuzzOptions fuzz;
    fuzz.bug = loaded->bug;
    PropertyOutcome outcome = property->fn(loaded->c, fuzz);
    EXPECT_FALSE(outcome.skipped)
        << "repro skipped instead of checked: " << outcome.message;
    if (loaded->bug != PlantedBug::kNone) {
      EXPECT_FALSE(outcome.ok)
          << "planted-bug repro no longer fails; the self-check harness "
             "has lost its teeth";
    } else {
      EXPECT_TRUE(outcome.ok) << outcome.message;
    }
  }
}

/// Corpus round-trip: loading a file and re-rendering it reproduces the
/// same case (modulo variable-name canonicalization handled by the
/// renderer), so repros stay stable under load/save cycles.
TEST(FuzzCorpus, LoadedCasesRoundTrip) {
  auto files = ListCorpusFiles(CQLOPT_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  for (const std::string& path : *files) {
    SCOPED_TRACE(path);
    auto loaded = LoadCorpusFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    std::string rerendered = ::testing::TempDir() + "/roundtrip.cql";
    ASSERT_TRUE(testing::WriteCorpusFile(rerendered, loaded->c,
                                         loaded->property, loaded->bug,
                                         loaded->note)
                    .ok());
    auto again = LoadCorpusFile(rerendered);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->property, loaded->property);
    EXPECT_EQ(again->bug, loaded->bug);
    EXPECT_EQ(again->c.seed, loaded->c.seed);
    EXPECT_EQ(again->c.program.rules.size(), loaded->c.program.rules.size());
    EXPECT_EQ(again->c.edb.size(), loaded->c.edb.size());
  }
}

}  // namespace
}  // namespace cqlopt
