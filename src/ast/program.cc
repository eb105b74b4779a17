#include "ast/program.h"

#include <algorithm>

namespace cqlopt {

std::vector<PredId> Program::DerivedPredicates() const {
  std::set<PredId> preds;
  for (const Rule& r : rules) preds.insert(r.head.pred);
  return std::vector<PredId>(preds.begin(), preds.end());
}

int Program::Arity(PredId pred) const {
  auto it = arities.find(pred);
  return it == arities.end() ? -1 : it->second;
}

Status Program::DeclareArity(PredId pred, int arity) {
  auto [it, inserted] = arities.emplace(pred, arity);
  if (!inserted && it->second != arity) {
    return Status::InvalidArgument(
        "predicate " + symbols->PredicateName(pred) + " used with arity " +
        std::to_string(arity) + " and " + std::to_string(it->second));
  }
  return Status::OK();
}

int Program::RemoveUnreachable(PredId query_pred) {
  // Predicates reachable from the query via "head depends on body" edges.
  std::set<PredId> reachable = {query_pred};
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Rule& r : rules) {
      if (reachable.count(r.head.pred) == 0) continue;
      for (const Literal& lit : r.body) {
        if (reachable.insert(lit.pred).second) changed = true;
      }
    }
  }
  int removed = 0;
  std::vector<Rule> kept;
  kept.reserve(rules.size());
  for (Rule& r : rules) {
    if (reachable.count(r.head.pred) > 0) {
      kept.push_back(std::move(r));
    } else {
      ++removed;
    }
  }
  rules = std::move(kept);
  return removed;
}

VarId Program::MaxVar() const {
  VarId max_var = 1024;
  for (const Rule& r : rules) max_var = std::max(max_var, r.MaxVar());
  return max_var;
}

}  // namespace cqlopt
