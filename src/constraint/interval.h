#ifndef CQLOPT_CONSTRAINT_INTERVAL_H_
#define CQLOPT_CONSTRAINT_INTERVAL_H_

#include <map>
#include <vector>

#include "constraint/linear_constraint.h"

namespace cqlopt {

/// An interval over the rationals with open/closed endpoints and infinite
/// ends — the per-variable domain of the interval index (DESIGN.md §12).
/// A default-constructed interval is the full line (-inf, +inf); Tighten*
/// only ever shrinks it.
class Interval {
 public:
  Interval() = default;

  bool lower_infinite() const { return lo_inf_; }
  bool upper_infinite() const { return hi_inf_; }
  /// Valid only when the corresponding end is finite.
  const Rational& lower() const { return lo_; }
  const Rational& upper() const { return hi_; }
  /// A strict end excludes its value (open endpoint).
  bool lower_strict() const { return lo_strict_; }
  bool upper_strict() const { return hi_strict_; }

  /// Conjoins `x >= value` (`x > value` when strict). Returns true iff the
  /// bound actually tightened (a strictness upgrade at the same value
  /// counts). The interval may become empty; callers check IsEmpty().
  bool TightenLower(const Rational& value, bool strict);
  /// Conjoins `x <= value` (`x < value` when strict).
  bool TightenUpper(const Rational& value, bool strict);

  /// True iff no rational satisfies both bounds: crossed bounds, or equal
  /// bounds with either end open.
  bool IsEmpty() const;

  /// True iff `value` satisfies both bounds.
  bool Contains(const Rational& value) const;

  /// True iff some rational lies in both intervals (the meet is nonempty).
  bool Intersects(const Interval& other) const;

 private:
  bool lo_inf_ = true;
  bool hi_inf_ = true;
  bool lo_strict_ = false;
  bool hi_strict_ = false;
  Rational lo_;
  Rational hi_;
};

/// One end of the achieved value range of a linear expression over a box.
/// `open` means the value is the exact inf/sup but is not attained by any
/// box point (some contributing endpoint is strict).
struct RangeEnd {
  bool infinite = true;
  Rational value;  // valid when !infinite
  bool open = false;
};

/// Achieved values of a linear expression over a nonempty box: a dense
/// interval from `lo` to `hi` (the image of a convex set under a continuous
/// map), each end possibly infinite or unattained.
struct ExprRange {
  RangeEnd lo;
  RangeEnd hi;
};

/// Per-variable interval domains derived from a conjunction of linear
/// constraints by round-capped bound propagation — the bound summaries of
/// the interval index (DESIGN.md §12). The box is a sound over-approximation
/// of the solution set: every solution lies inside it, so an empty box
/// proves UNSAT and a variable's interval bounds every value it can take.
/// A nonempty box proves nothing by itself.
class IntervalDomain {
 public:
  /// Fixed round cap: divergent tightenings (x <= y - 1 & y <= x - 1 walks
  /// both bounds down forever) must terminate inconclusively, not loop.
  /// Chains like `a = 5, b = 7, c = a + b + 30` resolve in one round per
  /// dependency level, so 8 covers the join depths the evaluator produces.
  static constexpr int kMaxRounds = 8;

  /// Propagates bounds from each constraint into each of its variables,
  /// iterating to a fixpoint or the round cap.
  static IntervalDomain Propagate(const std::vector<LinearConstraint>& cs);

  /// True when propagation emptied some variable's interval or hit a
  /// ground-false constraint — a definite UNSAT.
  bool definitely_empty() const { return empty_; }

  /// The domain of `v` (the full line if never constrained).
  const Interval& Of(VarId v) const;

 private:
  /// Achieved range of `expr` minus its `skip` term over the box (the
  /// "rest" used to bound `skip` from a constraint).
  ExprRange RestRange(const LinearExpr& expr, VarId skip) const;

  bool empty_ = false;
  std::map<VarId, Interval> intervals_;
};

/// Stubs kept only so perfbench, whose sources predate the removal of the
/// interval prepass decision tier (DESIGN.md §11), still builds: there is
/// no prepass memo to clear and no prepass verdict to count, so its
/// `constraint.prepass_*` metrics read 0.
namespace prepass {

struct Counters {
  long fallback = 0;
  long conclusive() const { return 0; }
};

inline Counters Snapshot() { return {}; }
inline void ClearMemo() {}

}  // namespace prepass
}  // namespace cqlopt

#endif  // CQLOPT_CONSTRAINT_INTERVAL_H_
