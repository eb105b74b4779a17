#ifndef CQLOPT_GRAPH_DEPENDENCY_GRAPH_H_
#define CQLOPT_GRAPH_DEPENDENCY_GRAPH_H_

#include <map>
#include <set>
#include <vector>

#include "ast/program.h"

namespace cqlopt {

/// The predicate dependency graph of a program: an edge p -> q whenever some
/// rule defining p has q in its body. Used for reachability pruning, for
/// SCC-driven processing in the GMT grounding procedure (Section 6.2), and
/// for the top-down SCC ordering in Theorem 7.8's proofs.
class DependencyGraph {
 public:
  explicit DependencyGraph(const Program& program);

  /// All predicates occurring anywhere in the program, sorted.
  const std::vector<PredId>& nodes() const { return nodes_; }

  /// Successors of `pred` (predicates its rules depend on).
  const std::set<PredId>& SuccessorsOf(PredId pred) const;

  /// Predicates reachable from `start` (including itself).
  std::set<PredId> ReachableFrom(PredId start) const;

 private:
  std::vector<PredId> nodes_;
  std::map<PredId, std::set<PredId>> edges_;
  static const std::set<PredId> kEmpty;
};

}  // namespace cqlopt

#endif  // CQLOPT_GRAPH_DEPENDENCY_GRAPH_H_
