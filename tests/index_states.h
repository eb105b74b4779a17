#ifndef CQLOPT_TESTS_INDEX_STATES_H_
#define CQLOPT_TESTS_INDEX_STATES_H_

// The index states every Relation probe must answer alike in
// (test_relation, test_columnar; DESIGN.md §12), and the check that an
// unindexed position's column path answers exactly as a sealed index.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "eval/relation.h"

namespace cqlopt {

/// No position indexed (every probe walks the value columns); indexed from
/// the first row with all bound rows in the unsorted suffix; indexed and
/// all sealed; indexed, and sealed after a third and again after two thirds
/// (the second Seal merges into a sorted prefix), the last third appended
/// unsorted; and indexed only after a third of the rows (the build sorts
/// them), the rest appended unsorted.
enum class IndexState {
  kUnindexed,
  kUnsealed,
  kSealed,
  kSealedThenAppended,
  kIndexedAfterThird,
};
inline constexpr IndexState kIndexStates[] = {
    IndexState::kUnindexed, IndexState::kUnsealed, IndexState::kSealed,
    IndexState::kSealedThenAppended, IndexState::kIndexedAfterThird};

/// Indexes every position up to the largest arity in `facts`.
inline void IndexPositionsOf(const std::vector<Fact>& facts, Relation* rel) {
  for (const Fact& fact : facts) {
    for (int p = 1; p <= fact.arity; ++p) rel->IndexPosition(p);
  }
}

/// `facts` inserted in order into a relation left in `state`.
inline Relation BuildIn(IndexState state, const std::vector<Fact>& facts) {
  Relation rel;
  if (state != IndexState::kUnindexed &&
      state != IndexState::kIndexedAfterThird) {
    IndexPositionsOf(facts, &rel);
  }
  for (size_t i = 0; i < facts.size(); ++i) {
    if (state == IndexState::kSealedThenAppended &&
        (i == facts.size() / 3 || i == 2 * facts.size() / 3)) {
      rel.Seal();
    }
    if (state == IndexState::kIndexedAfterThird && i == facts.size() / 3) {
      IndexPositionsOf(facts, &rel);
    }
    (void)rel.Insert(facts[i], 0);
  }
  if (state == IndexState::kSealed) rel.Seal();
  return rel;
}

/// The rows of `rel` twice over: with no position indexed, and with every
/// position indexed and sealed.
struct ColumnAndIndex {
  explicit ColumnAndIndex(const Relation& rel)
      : columns(rel.Spliced({})), index(rel.Spliced({})) {
    index.IndexEveryPosition();
  }
  Relation columns;
  Relation index;
};

/// Asserts that `rel`'s rows answer the equality probe for `value` at
/// `position` alike from their columns and from a sealed index: the same
/// rows in the same order, and the same cost.
inline void ExpectColumnPathMatchesIndex(const Relation& rel, int position,
                                         const Relation::ArgSignature& value) {
  ColumnAndIndex both(rel);
  ASSERT_FALSE(both.columns.indexed(position));
  std::vector<size_t> from_columns;
  std::vector<size_t> from_index;
  both.columns.Probe(position, value, &from_columns);
  both.index.Probe(position, value, &from_index);
  EXPECT_EQ(from_columns, from_index);
  EXPECT_EQ(both.columns.ProbeCost(position, value),
            both.index.ProbeCost(position, value));
}

/// The same for the range probe for `query`: rows, cost, `runs_pruned`,
/// and CanRangePrune.
inline void ExpectColumnPathMatchesIndex(const Relation& rel, int position,
                                         const Interval& query) {
  ColumnAndIndex both(rel);
  ASSERT_FALSE(both.columns.indexed(position));
  std::vector<size_t> from_columns;
  std::vector<size_t> from_index;
  long pruned_columns = 0;
  long pruned_index = 0;
  both.columns.IntervalProbe(position, query, &from_columns, &pruned_columns);
  both.index.IntervalProbe(position, query, &from_index, &pruned_index);
  EXPECT_EQ(from_columns, from_index);
  EXPECT_EQ(pruned_columns, pruned_index);
  EXPECT_EQ(both.columns.IntervalProbeCost(position, query),
            both.index.IntervalProbeCost(position, query));
  EXPECT_EQ(both.columns.CanRangePrune(position),
            both.index.CanRangePrune(position));
}

}  // namespace cqlopt

#endif  // CQLOPT_TESTS_INDEX_STATES_H_
