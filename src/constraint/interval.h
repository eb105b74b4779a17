#ifndef CQLOPT_CONSTRAINT_INTERVAL_H_
#define CQLOPT_CONSTRAINT_INTERVAL_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "constraint/linear_constraint.h"

namespace cqlopt {

class Conjunction;

/// An interval over the rationals with open/closed endpoints and infinite
/// ends — the per-variable domain of the approximate decision tier
/// (DESIGN.md §11). A default-constructed interval is the full line
/// (-inf, +inf); Tighten* only ever shrinks it.
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

  /// The single admissible value when the interval is a closed point;
  /// nullopt otherwise.
  std::optional<Rational> Point() const;

  /// True iff `value` satisfies both bounds.
  bool Contains(const Rational& value) const;

  /// True iff some rational lies in both intervals (the meet is nonempty).
  bool Intersects(const Interval& other) const;

  /// E.g. "[2, 5)", "(-inf, 3]", "(-inf, +inf)".
  std::string ToString() const;

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
/// constraints by round-capped bound propagation. The box is a sound
/// over-approximation of the solution set: every solution lies inside it,
/// so an empty box proves UNSAT, and an atom that holds at every box point
/// is implied. Completeness is never claimed — a nonempty box proves
/// nothing by itself (callers use ProvesAll to recognize the case where
/// every box point is in fact a solution).
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

  /// Attainment-aware interval evaluation of `expr` over the box.
  ExprRange RangeOf(const LinearExpr& expr) const;

  /// `atom` holds at EVERY point of the box. With a nonempty box this is a
  /// sound implication proof for any constraint set the box over-covers.
  bool ProvesAtom(const LinearConstraint& atom) const;
  /// `atom` fails at EVERY point of the box: since all solutions lie in the
  /// box, conjoining `atom` is definitely UNSAT.
  bool RefutesAtom(const LinearConstraint& atom) const;
  /// `atom` fails at SOME point of the box. Only meaningful as a disproof
  /// when every box point is known to be a solution (ProvesAll).
  bool ViolatedSomewhere(const LinearConstraint& atom) const;
  /// Every atom of `cs` holds on the whole box. Combined with a nonempty
  /// box this certifies satisfiability: any box point is a model, and the
  /// box coincides with the solution set for disproof purposes.
  bool ProvesAll(const std::vector<LinearConstraint>& cs) const;

 private:
  /// Achieved range of `expr` minus its `skip` term over the box (the
  /// "rest" used to bound `skip` from a constraint). skip == kNoVar means
  /// the whole expression.
  ExprRange RestRange(const LinearExpr& expr, VarId skip) const;

  bool empty_ = false;
  std::map<VarId, Interval> intervals_;
};

/// The approximate-first decision tier (DESIGN.md §11): interval bound
/// propagation answers the easy satisfiability / implication queries and
/// falls through to exact Fourier–Motzkin (with its DecisionCache) on the
/// rest. Every conclusive answer equals the exact decision — the prepass is
/// sound both ways by construction and the differential layer
/// (prepass_equiv, test_interval's randomized sweep) pins it.
namespace prepass {

/// Monotonic process-wide counters, split by conclusive verdict kind plus
/// the inconclusive fallbacks to exact FM. Each count is also added to the
/// current DecisionScope (as prepass_conclusive / prepass_fallback), which
/// is how EvalStats / InferenceResult get theirs.
struct Counters {
  long sat = 0;          // conclusive "satisfiable"
  long unsat = 0;        // conclusive "unsatisfiable"
  long implied = 0;      // conclusive "implies"
  long not_implied = 0;  // conclusive "does not imply"
  long fallback = 0;     // inconclusive -> exact FM decided

  long conclusive() const { return sat + unsat + implied + not_implied; }
};

Counters Snapshot();

/// Approximate tier only — pure probes with no fallback and no counter
/// updates (the unit/randomized tests call these directly). nullopt means
/// inconclusive; any non-null answer equals the exact FM decision.
std::optional<bool> TrySatisfiable(const std::vector<LinearConstraint>& cs);
std::optional<bool> TryImpliesAtom(const std::vector<LinearConstraint>& cs,
                                   const LinearConstraint& atom);

/// Two-tier decisions: the interval prepass first — a conclusive answer
/// returns immediately and never touches the DecisionCache (no lookup, no
/// fill) — then exact cached FM. These are the entry points the evaluator's
/// call sites use (Conjunction::IsSatisfiable, implication.cc). Probe
/// verdicts (including inconclusiveness) are memoized in a prepass-private
/// fingerprint-keyed VerdictTable so repeated probes skip the rational
/// propagation; the memo never holds anything but recomputable pure
/// verdicts, so it cannot change an answer. When the current DecisionScope
/// turns the prepass off (the EvalOptions::prepass toggle, the
/// `prepass = off` arm of every differential harness) they go straight to
/// exact FM without probing or counting.
bool IsSatisfiable(const std::vector<LinearConstraint>& cs);
bool ImpliesAtom(const std::vector<LinearConstraint>& cs,
                 const LinearConstraint& atom);

/// Empties the prepass verdict memo (cold-start benchmarking, alongside
/// DecisionCache::Instance().Clear()).
void ClearMemo();

/// Conjunction-level prepass for Implies(a, b): one domain is propagated
/// from a's atoms (with equalities materialized) and every obligation of b
/// — symbol bindings, variable equalities, linear atoms — is tested against
/// it. Conclusive answers (and inconclusive fallbacks) are counted here,
/// since Implies() has no wrapping prepass call. nullopt sends the caller
/// to the cached exact path; it is returned uncounted when the current
/// DecisionScope turns the prepass off.
std::optional<bool> TryImplies(const Conjunction& a, const Conjunction& b);

}  // namespace prepass
}  // namespace cqlopt

#endif  // CQLOPT_CONSTRAINT_INTERVAL_H_
