#include "constraint/interval.h"

namespace cqlopt {

bool Interval::TightenLower(const Rational& value, bool strict) {
  if (!lo_inf_) {
    if (value < lo_) return false;
    if (value == lo_ && (!strict || lo_strict_)) return false;
  }
  lo_inf_ = false;
  lo_ = value;
  lo_strict_ = strict;
  return true;
}

bool Interval::TightenUpper(const Rational& value, bool strict) {
  if (!hi_inf_) {
    if (value > hi_) return false;
    if (value == hi_ && (!strict || hi_strict_)) return false;
  }
  hi_inf_ = false;
  hi_ = value;
  hi_strict_ = strict;
  return true;
}

bool Interval::IsEmpty() const {
  if (lo_inf_ || hi_inf_) return false;
  if (lo_ > hi_) return true;
  return lo_ == hi_ && (lo_strict_ || hi_strict_);
}

bool Interval::Contains(const Rational& value) const {
  if (!lo_inf_ && (lo_strict_ ? value <= lo_ : value < lo_)) return false;
  if (!hi_inf_ && (hi_strict_ ? value >= hi_ : value > hi_)) return false;
  return true;
}

bool Interval::Intersects(const Interval& other) const {
  Interval meet = *this;
  if (!other.lo_inf_) meet.TightenLower(other.lo_, other.lo_strict_);
  if (!other.hi_inf_) meet.TightenUpper(other.hi_, other.hi_strict_);
  return !meet.IsEmpty();
}

const Interval& IntervalDomain::Of(VarId v) const {
  static const Interval kFull;
  auto it = intervals_.find(v);
  return it == intervals_.end() ? kFull : it->second;
}

ExprRange IntervalDomain::RestRange(const LinearExpr& expr, VarId skip) const {
  ExprRange r;
  r.lo = RangeEnd{false, expr.constant(), false};
  r.hi = RangeEnd{false, expr.constant(), false};
  for (const auto& [v, coeff] : expr.coefficients()) {
    if (v == skip) continue;
    const Interval& iv = Of(v);
    // coeff > 0: min uses the lower endpoint, max the upper; coeff < 0
    // flips the roles. An infinite contributing endpoint makes that end of
    // the range infinite; a strict one makes it unattained.
    const bool from_lower_for_min = coeff.sign() > 0;
    if (!r.lo.infinite) {
      bool inf = from_lower_for_min ? iv.lower_infinite()
                                    : iv.upper_infinite();
      if (inf) {
        r.lo.infinite = true;
      } else {
        r.lo.value += coeff * (from_lower_for_min ? iv.lower() : iv.upper());
        r.lo.open = r.lo.open || (from_lower_for_min ? iv.lower_strict()
                                                     : iv.upper_strict());
      }
    }
    if (!r.hi.infinite) {
      bool inf = from_lower_for_min ? iv.upper_infinite()
                                    : iv.lower_infinite();
      if (inf) {
        r.hi.infinite = true;
      } else {
        r.hi.value += coeff * (from_lower_for_min ? iv.upper() : iv.lower());
        r.hi.open = r.hi.open || (from_lower_for_min ? iv.upper_strict()
                                                     : iv.lower_strict());
      }
    }
    if (r.lo.infinite && r.hi.infinite) break;
  }
  return r;
}

IntervalDomain IntervalDomain::Propagate(
    const std::vector<LinearConstraint>& cs) {
  IntervalDomain dom;
  for (int round = 0; round < kMaxRounds && !dom.empty_; ++round) {
    bool changed = false;
    for (const LinearConstraint& c : cs) {
      if (dom.empty_) break;
      if (c.is_ground()) {
        if (!c.GroundValue()) dom.empty_ = true;
        continue;
      }
      for (const auto& [v, a] : c.expr().coefficients()) {
        // a*v + rest op 0  =>  v op' (-rest)/a, the comparison direction
        // following the sign of a. The op-directed bound comes from the
        // rest's minimum; an equality bounds v from both rest endpoints.
        ExprRange rest = dom.RestRange(c.expr(), v);
        Interval& iv = dom.intervals_[v];
        if (!rest.lo.infinite) {
          Rational bound = (-rest.lo.value) / a;
          bool strict = c.op() == CmpOp::kLt || rest.lo.open;
          changed = (a.sign() > 0 ? iv.TightenUpper(bound, strict)
                                  : iv.TightenLower(bound, strict)) ||
                    changed;
        }
        if (c.op() == CmpOp::kEq && !rest.hi.infinite) {
          Rational bound = (-rest.hi.value) / a;
          changed = (a.sign() > 0 ? iv.TightenLower(bound, rest.hi.open)
                                  : iv.TightenUpper(bound, rest.hi.open)) ||
                    changed;
        }
        if (iv.IsEmpty()) {
          dom.empty_ = true;
          break;
        }
      }
    }
    if (!changed) break;
  }
  return dom;
}

}  // namespace cqlopt
