#ifndef CQLOPT_CONSTRAINT_LINEAR_CONSTRAINT_H_
#define CQLOPT_CONSTRAINT_LINEAR_CONSTRAINT_H_

#include <string>
#include <vector>

#include "constraint/linear_expr.h"

namespace cqlopt {

/// Comparison operator of a normalized atomic constraint `expr op 0`.
///
/// The surface syntax allows <, >, <=, >=, = (Definition 2.1); parsing and
/// construction normalize > and >= away by negating the expression, so only
/// three operators remain.
enum class CmpOp {
  kLe,  // expr <= 0
  kLt,  // expr < 0
  kEq,  // expr == 0
};

const char* CmpOpName(CmpOp op);

/// An atomic linear arithmetic constraint in normalized form `expr op 0`.
class LinearConstraint {
 public:
  LinearConstraint() : op_(CmpOp::kEq) {}
  LinearConstraint(LinearExpr expr, CmpOp op);

  /// Builds `lhs op rhs` where `op` may be any of the five surface operators
  /// encoded as: "<=", "<", ">=", ">", "=".
  static LinearConstraint Make(const LinearExpr& lhs, const std::string& op,
                               const LinearExpr& rhs);

  const LinearExpr& expr() const { return expr_; }
  CmpOp op() const { return op_; }

  /// True if the constraint mentions no variables.
  bool is_ground() const { return expr_.is_constant(); }

  /// For ground constraints only: evaluates the comparison.
  bool GroundValue() const;

  /// True if trivially satisfied for all assignments (e.g. `0 <= 0`,
  /// `-1 < 0`). Ground-false constraints return false here *and* false from
  /// IsTriviallyFalse's complement; use both tests.
  bool IsTriviallyTrue() const { return is_ground() && GroundValue(); }
  bool IsTriviallyFalse() const { return is_ground() && !GroundValue(); }

  LinearConstraint Substitute(VarId v, const LinearExpr& replacement) const;
  LinearConstraint Rename(const std::map<VarId, VarId>& mapping) const;

  std::vector<VarId> Vars() const { return expr_.Vars(); }

  /// Negations of this constraint, as a disjunction of atomic constraints:
  ///  ¬(e <= 0) = (-e < 0); ¬(e < 0) = (-e <= 0);
  ///  ¬(e == 0) = (e < 0) ∨ (-e < 0).
  std::vector<LinearConstraint> Negations() const;

  /// Structural equality after canonicalization (see constructor).
  bool operator==(const LinearConstraint& other) const {
    return op_ == other.op_ && expr_ == other.expr_;
  }
  bool operator!=(const LinearConstraint& other) const {
    return !(*this == other);
  }
  /// Arbitrary total order, for canonical sorting inside conjunctions.
  bool operator<(const LinearConstraint& other) const;

  /// Rendering with the constant moved right, e.g. "$1 + $2 <= 6".
  std::string ToPrettyString() const;

 private:
  /// Scales the expression so that integer coefficients have gcd 1 and the
  /// leading coefficient of an equality is positive. Gives a canonical
  /// representative per half-space / hyperplane (up to op).
  void Canonicalize();

  LinearExpr expr_;
  CmpOp op_;
};

}  // namespace cqlopt

#endif  // CQLOPT_CONSTRAINT_LINEAR_CONSTRAINT_H_
