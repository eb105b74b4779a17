#include "constraint/constraint_set.h"

#include <algorithm>

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

bool ConstraintSet::IsSatisfiable() const {
  for (const Conjunction& d : disjuncts_) {
    if (d.IsSatisfiable()) return true;
  }
  return false;
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

Result<ConstraintSet> ConstraintSet::And(const ConstraintSet& a,
                                         const ConstraintSet& b) {
  ConstraintSet out;
  for (const Conjunction& da : a.disjuncts_) {
    for (const Conjunction& db : b.disjuncts_) {
      Conjunction product = da;
      CQLOPT_RETURN_IF_ERROR(product.AddConjunction(db));
      if (product.IsSatisfiable()) out.AddDisjunct(product);
    }
  }
  return out;
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

void ConstraintSet::Simplify() {
  std::vector<Conjunction> simplified;
  simplified.reserve(disjuncts_.size());
  for (Conjunction& d : disjuncts_) {
    if (!d.IsSatisfiable()) continue;
    d.Simplify();
    simplified.push_back(std::move(d));
  }
  disjuncts_.clear();
  // Re-add one by one so redundant disjuncts get eliminated. Adding in
  // order of decreasing generality is not required for correctness;
  // AddDisjunct prunes in both directions.
  for (Conjunction& d : simplified) AddDisjunct(d);
}

std::string ConstraintSet::ToString() const {
  if (disjuncts_.empty()) return "false";
  std::vector<std::string> parts;
  parts.reserve(disjuncts_.size());
  for (const Conjunction& d : disjuncts_) {
    parts.push_back("(" + d.ToString() + ")");
  }
  std::sort(parts.begin(), parts.end());
  std::string out = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) out += " | " + parts[i];
  return out;
}

}  // namespace cqlopt
