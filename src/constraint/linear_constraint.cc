#include "constraint/linear_constraint.h"

namespace cqlopt {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kEq:
      return "=";
  }
  return "?";
}

LinearConstraint::LinearConstraint(LinearExpr expr, CmpOp op)
    : expr_(std::move(expr)), op_(op) {
  Canonicalize();
}

LinearConstraint LinearConstraint::Make(const LinearExpr& lhs,
                                        const std::string& op,
                                        const LinearExpr& rhs) {
  if (op == "<=") return LinearConstraint(lhs - rhs, CmpOp::kLe);
  if (op == "<") return LinearConstraint(lhs - rhs, CmpOp::kLt);
  if (op == ">=") return LinearConstraint(rhs - lhs, CmpOp::kLe);
  if (op == ">") return LinearConstraint(rhs - lhs, CmpOp::kLt);
  return LinearConstraint(lhs - rhs, CmpOp::kEq);
}

namespace {

/// Calls `fn` on every coefficient of `expr`, then its constant, while `fn`
/// returns true. Returns whether every call did.
template <typename Fn>
bool AllValues(const LinearExpr& expr, Fn fn) {
  for (const auto& [v, c] : expr.coefficients()) {
    if (!fn(c)) return false;
  }
  return fn(expr.constant());
}

/// The factor lcm(denominators) / gcd(numerators scaled by that lcm) that
/// makes every coefficient and the constant of `expr` an integer, with gcd 1
/// among them. Computed in int64 with no BigInt; false when a value or an
/// intermediate does not fit, and then `BigScaleFactor` decides.
bool SmallScaleFactor(const LinearExpr& expr, Rational* factor) {
  int64_t lcm = 1;
  bool fits = AllValues(expr, [&lcm](const Rational& c) {
    int64_t num = 0;
    int64_t den = 0;
    if (!c.ToInt64(&num, &den)) return false;
    uint64_t g = BigInt::Gcd64(static_cast<uint64_t>(lcm),
                               static_cast<uint64_t>(den));
    return !__builtin_mul_overflow(lcm, den / static_cast<int64_t>(g), &lcm);
  });
  if (!fits) return false;
  uint64_t gcd = 0;
  fits = AllValues(expr, [lcm, &gcd](const Rational& c) {
    int64_t num = 0;
    int64_t den = 0;
    c.ToInt64(&num, &den);
    int64_t scaled = 0;
    if (__builtin_mul_overflow(num, lcm / den, &scaled) ||
        scaled == INT64_MIN) {
      return false;
    }
    gcd = BigInt::Gcd64(gcd,
                        static_cast<uint64_t>(scaled < 0 ? -scaled : scaled));
    return true;
  });
  if (fits) *factor = Rational(lcm, static_cast<int64_t>(gcd));
  return fits;
}

/// SmallScaleFactor in BigInt, for expressions beyond int64.
Rational BigScaleFactor(const LinearExpr& expr) {
  BigInt lcm(1);
  AllValues(expr, [&lcm](const Rational& c) {
    BigInt den = c.denominator();
    lcm = lcm / BigInt::Gcd(lcm, den) * den;
    return true;
  });
  BigInt gcd(0);
  AllValues(expr, [&lcm, &gcd](const Rational& c) {
    gcd = BigInt::Gcd(gcd, c.numerator() * (lcm / c.denominator()));
    return true;
  });
  return Rational(lcm, gcd);
}

}  // namespace

void LinearConstraint::Canonicalize() {
  if (expr_.coefficients().empty()) return;
  // Scale so all coefficients and the constant become integers with gcd 1.
  Rational factor;
  if (!SmallScaleFactor(expr_, &factor)) factor = BigScaleFactor(expr_);
  if (factor != Rational(1)) expr_ = expr_.Scale(factor);
  // For equalities, pick the orientation with a positive leading coefficient.
  if (op_ == CmpOp::kEq) {
    const auto& coeffs = expr_.coefficients();
    if (!coeffs.empty() && coeffs.begin()->second.is_negative()) {
      expr_ = -expr_;
    }
  }
}

bool LinearConstraint::GroundValue() const {
  int sign = expr_.constant().sign();
  switch (op_) {
    case CmpOp::kLe:
      return sign <= 0;
    case CmpOp::kLt:
      return sign < 0;
    case CmpOp::kEq:
      return sign == 0;
  }
  return false;
}

LinearConstraint LinearConstraint::Substitute(
    VarId v, const LinearExpr& replacement) const {
  return LinearConstraint(expr_.Substitute(v, replacement), op_);
}

LinearConstraint LinearConstraint::Rename(
    const std::map<VarId, VarId>& mapping) const {
  return LinearConstraint(expr_.Rename(mapping), op_);
}

std::vector<LinearConstraint> LinearConstraint::Negations() const {
  switch (op_) {
    case CmpOp::kLe:
      return {LinearConstraint(-expr_, CmpOp::kLt)};
    case CmpOp::kLt:
      return {LinearConstraint(-expr_, CmpOp::kLe)};
    case CmpOp::kEq:
      return {LinearConstraint(expr_, CmpOp::kLt),
              LinearConstraint(-expr_, CmpOp::kLt)};
  }
  return {};
}

bool LinearConstraint::operator<(const LinearConstraint& other) const {
  if (op_ != other.op_) return op_ < other.op_;
  const auto& a = expr_.coefficients();
  const auto& b = other.expr_.coefficients();
  if (a.size() != b.size()) return a.size() < b.size();
  auto ita = a.begin();
  auto itb = b.begin();
  for (; ita != a.end(); ++ita, ++itb) {
    if (ita->first != itb->first) return ita->first < itb->first;
    int cmp = ita->second.Compare(itb->second);
    if (cmp != 0) return cmp < 0;
  }
  return expr_.constant() < other.expr_.constant();
}

std::string LinearConstraint::ToPrettyString() const {
  // Move the constant to the right-hand side: expr' op -constant. When every
  // variable coefficient is negative, flip the whole inequality so e.g.
  // `-X < 0` prints as `X > 0`.
  LinearExpr lhs = expr_;
  bool flip = op_ != CmpOp::kEq && !lhs.coefficients().empty();
  for (const auto& [v, c] : lhs.coefficients()) {
    if (!c.is_negative()) flip = false;
  }
  const char* op_name = CmpOpName(op_);
  if (flip) {
    lhs = -lhs;
    op_name = op_ == CmpOp::kLe ? ">=" : ">";
  }
  Rational rhs = -lhs.constant();
  lhs.AddConstant(rhs);  // Zero out the constant term.
  return lhs.ToString() + " " + op_name + " " + rhs.ToString();
}

}  // namespace cqlopt
