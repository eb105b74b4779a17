#include "constraint/constraint_set.h"

#include "constraint/implication.h"

namespace cqlopt {

ConstraintSet ConstraintSet::True() {
  ConstraintSet set;
  set.disjuncts_.push_back(Conjunction::True());
  return set;
}

ConstraintSet ConstraintSet::Of(Conjunction disjunct) {
  ConstraintSet set;
  if (disjunct.IsSatisfiable()) set.disjuncts_.push_back(std::move(disjunct));
  return set;
}

bool ConstraintSet::IsTriviallyTrue() const {
  for (const Conjunction& d : disjuncts_) {
    if (d.ToString() == "true") return true;
  }
  return false;
}

bool ConstraintSet::AddDisjunct(const Conjunction& disjunct) {
  // The satisfiability / implication decisions below are exact cached FM
  // decisions (DESIGN.md §11), via Conjunction::IsSatisfiable, Implies,
  // and ImpliesDisjunction.
  if (!disjunct.IsSatisfiable()) return false;
  if (ImpliesDisjunction(disjunct, disjuncts_)) return false;
  // Drop existing disjuncts the new one subsumes.
  std::vector<Conjunction> kept;
  kept.reserve(disjuncts_.size() + 1);
  for (Conjunction& d : disjuncts_) {
    if (!cqlopt::Implies(d, disjunct)) kept.push_back(std::move(d));
  }
  kept.push_back(disjunct);
  disjuncts_ = std::move(kept);
  return true;
}

bool ConstraintSet::UnionWith(const ConstraintSet& other) {
  bool changed = false;
  for (const Conjunction& d : other.disjuncts_) {
    changed = AddDisjunct(d) || changed;
  }
  return changed;
}

Result<ConstraintSet> ConstraintSet::Project(
    const std::vector<VarId>& keep) const {
  ConstraintSet out;
  for (const Conjunction& d : disjuncts_) {
    CQLOPT_ASSIGN_OR_RETURN(Conjunction projected, d.Project(keep));
    out.AddDisjunct(projected);
  }
  return out;
}

ConstraintSet ConstraintSet::Rename(
    const std::map<VarId, VarId>& mapping) const {
  ConstraintSet out;
  for (const Conjunction& d : disjuncts_) {
    out.AddDisjunct(d.Rename(mapping));
  }
  return out;
}

bool ConstraintSet::Implies(const ConstraintSet& other) const {
  for (const Conjunction& d : disjuncts_) {
    if (!ImpliesDisjunction(d, other.disjuncts_)) return false;
  }
  return true;
}

}  // namespace cqlopt
