#include "graph/dependency_graph.h"

#include <algorithm>

#include "graph/scc.h"

namespace cqlopt {

const std::set<PredId> DependencyGraph::kEmpty;

DependencyGraph::DependencyGraph(const Program& program) {
  std::set<PredId> nodes;
  for (const Rule& rule : program.rules) {
    nodes.insert(rule.head.pred);
    for (const Literal& lit : rule.body) {
      nodes.insert(lit.pred);
      edges_[rule.head.pred].insert(lit.pred);
    }
  }
  nodes_.assign(nodes.begin(), nodes.end());
}

const std::set<PredId>& DependencyGraph::SuccessorsOf(PredId pred) const {
  auto it = edges_.find(pred);
  return it == edges_.end() ? kEmpty : it->second;
}

std::set<PredId> DependencyGraph::ReachableFrom(PredId start) const {
  std::set<PredId> seen = {start};
  std::vector<PredId> stack = {start};
  while (!stack.empty()) {
    PredId p = stack.back();
    stack.pop_back();
    for (PredId q : SuccessorsOf(p)) {
      if (seen.insert(q).second) stack.push_back(q);
    }
  }
  return seen;
}

}  // namespace cqlopt
