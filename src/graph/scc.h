#ifndef CQLOPT_GRAPH_SCC_H_
#define CQLOPT_GRAPH_SCC_H_

#include <vector>

#include "graph/dependency_graph.h"

namespace cqlopt {

/// Strongly connected components of a dependency graph, in *reverse*
/// topological order (components() front depends on nothing later; the
/// component of the query predicate comes last). The GMT grounding
/// procedure iterates them top-down, i.e. from back() to front()
/// (Section 6.2's "topological sorting of the SCCs with S1 as the SCC of
/// the query predicate").
class SccDecomposition {
 public:
  /// The empty decomposition: no components.
  SccDecomposition() = default;
  explicit SccDecomposition(const DependencyGraph& graph);

  /// Components in reverse topological order.
  const std::vector<std::vector<PredId>>& components() const {
    return components_;
  }

  /// Index of the component containing `pred` (-1 if unknown).
  int ComponentOf(PredId pred) const;

  /// Components in topological order starting from the one containing
  /// `query_pred` and walking down its dependencies (predicates not
  /// reachable from the query are omitted).
  std::vector<std::vector<PredId>> TopDownFrom(PredId query_pred,
                                               const DependencyGraph& graph)
      const;

 private:
  std::vector<std::vector<PredId>> components_;
  std::map<PredId, int> component_of_;
};

}  // namespace cqlopt

#endif  // CQLOPT_GRAPH_SCC_H_
