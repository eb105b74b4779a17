#ifndef CQLOPT_CONSTRAINT_CONSTRAINT_SET_H_
#define CQLOPT_CONSTRAINT_CONSTRAINT_SET_H_

#include <vector>

#include "constraint/conjunction.h"

namespace cqlopt {

/// A constraint set: a disjunction of conjunctions of constraints
/// (Definition 2.3). This is the representation of predicate constraints and
/// QRP constraints throughout Sections 3–7; `false` is the empty disjunction
/// and `true` the single empty conjunction.
class ConstraintSet {
 public:
  /// The empty disjunction: `false`.
  ConstraintSet() = default;

  static ConstraintSet False() { return ConstraintSet(); }
  static ConstraintSet True();
  static ConstraintSet Of(Conjunction disjunct);

  const std::vector<Conjunction>& disjuncts() const { return disjuncts_; }
  bool is_false() const { return disjuncts_.empty(); }

  /// True iff some disjunct is the trivial `true` conjunction (then the set
  /// is equivalent to `true`).
  bool IsTriviallyTrue() const;

  /// Adds a disjunct if it is satisfiable and not already implied by the
  /// set; then drops previously present disjuncts that the new one implies.
  /// (The paper: "Before adding disjuncts to the approximate QRP
  /// constraint, we can eliminate redundant disjuncts.")
  /// Returns true if the set changed.
  bool AddDisjunct(const Conjunction& disjunct);

  /// Disjunction: adds every disjunct of `other`. Returns true if changed.
  bool UnionWith(const ConstraintSet& other);

  /// Projects every disjunct onto `keep` (Definition 2.8's Π, lifted).
  Result<ConstraintSet> Project(const std::vector<VarId>& keep) const;

  /// Renames every disjunct.
  ConstraintSet Rename(const std::map<VarId, VarId>& mapping) const;

  /// True iff every disjunct of *this implies `other`'s disjunction.
  /// This is the paper's C1 ⊐ C2 (Definition 2.3).
  bool Implies(const ConstraintSet& other) const;

  /// Semantic equivalence (mutual implication).
  bool EquivalentTo(const ConstraintSet& other) const {
    return Implies(other) && other.Implies(*this);
  }

 private:
  std::vector<Conjunction> disjuncts_;
};

}  // namespace cqlopt

#endif  // CQLOPT_CONSTRAINT_CONSTRAINT_SET_H_
