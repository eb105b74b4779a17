#ifndef CQLOPT_TESTS_INDEX_STATES_H_
#define CQLOPT_TESTS_INDEX_STATES_H_

// The index states every Relation probe must answer alike in
// (test_relation, test_columnar; DESIGN.md §12).

#include <vector>

#include "eval/relation.h"

namespace cqlopt {

/// All bound rows in the unsorted suffix; all sealed; and sealed after a
/// third and again after two thirds (the second Seal merges into a sorted
/// prefix), the last third appended unsorted.
enum class IndexState { kUnsealed, kSealed, kSealedThenAppended };
inline constexpr IndexState kIndexStates[] = {
    IndexState::kUnsealed, IndexState::kSealed,
    IndexState::kSealedThenAppended};

/// `facts` inserted in order into a relation left in `state`.
inline Relation BuildIn(IndexState state, const std::vector<Fact>& facts) {
  Relation rel;
  for (size_t i = 0; i < facts.size(); ++i) {
    if (state == IndexState::kSealedThenAppended &&
        (i == facts.size() / 3 || i == 2 * facts.size() / 3)) {
      rel.Seal();
    }
    (void)rel.Insert(facts[i], 0);
  }
  if (state == IndexState::kSealed) rel.Seal();
  return rel;
}

}  // namespace cqlopt

#endif  // CQLOPT_TESTS_INDEX_STATES_H_
