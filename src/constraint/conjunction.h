#ifndef CQLOPT_CONSTRAINT_CONJUNCTION_H_
#define CQLOPT_CONSTRAINT_CONJUNCTION_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "constraint/linear_constraint.h"
#include "util/status.h"

namespace cqlopt {

/// Identifier of an interned symbolic constant (e.g. `madison`); assigned by
/// ast::SymbolTable. The constraint layer treats symbols as opaque values
/// that are equal iff their ids are equal.
using SymbolId = int;

/// The value of one variable at a point: a symbolic constant or a number.
/// A ground fact is a tuple of these, one per argument position.
struct PointValue {
  static PointValue Symbol(SymbolId s) { return PointValue{true, s, {}}; }
  static PointValue Number(Rational r) {
    return PointValue{false, SymbolId{}, std::move(r)};
  }

  bool operator==(const PointValue& other) const {
    return is_symbol == other.is_symbol &&
           (is_symbol ? symbol == other.symbol : number == other.number);
  }
  bool operator!=(const PointValue& other) const { return !(*this == other); }

  bool is_symbol = false;
  SymbolId symbol{};  // valid when is_symbol
  Rational number;    // valid when !is_symbol
};

/// A satisfiable-or-known-false conjunction of constraints over variables:
/// the body constraint `C` of a rule, one disjunct of a constraint set, or
/// the constraint part of a constraint fact `p(X̄; C)` (Section 2).
///
/// Three kinds of atoms are maintained:
///  - variable equalities `X = Y`, kept in a union–find so symbolic and
///    numeric variables are handled uniformly;
///  - symbol bindings `X = madison` (at most one symbol per class);
///  - linear arithmetic atoms over numeric variables, stored over class
///    roots in canonical form.
///
/// Mixing a symbol-bound variable into a linear atom is a type error: the
/// paper's programs are implicitly column-typed (flight times are reals,
/// sources are airports), and arithmetic over airports indicates a broken
/// program rather than an unsatisfiable one.
class Conjunction {
 public:
  /// The empty conjunction (`true`).
  Conjunction() = default;

  static Conjunction True() { return Conjunction(); }
  /// A canonical unsatisfiable conjunction (`false`).
  static Conjunction False();
  /// The point `$1 = v1 & ... & $n = vn`: a symbol binding or one `$i = c`
  /// atom per position and no equality edges — the canonical form of a
  /// ground fact (eval/fact.h).
  static Conjunction Point(const std::vector<PointValue>& values);

  /// Conjoins a linear atom. Cheap syntactic checks may set known_unsat.
  Status AddLinear(const LinearConstraint& atom);
  /// Conjoins the equality `a = b`.
  Status AddEquality(VarId a, VarId b);
  /// Conjoins the binding `v = symbol`.
  Status BindSymbol(VarId v, SymbolId symbol);
  /// Conjoins every atom of `other`.
  Status AddConjunction(const Conjunction& other);

  /// True if a cheap check has already established unsatisfiability.
  bool known_unsat() const { return unsat_; }

  /// Full decision procedure (Fourier–Motzkin on the linear part; the
  /// symbolic part is consistent by construction). Cached until mutation.
  bool IsSatisfiable() const;

  /// Projects onto `keep`: the result constrains exactly the variables in
  /// `keep`, with solutions `exists (Vars() \ keep). this` (Definition 2.8's
  /// Π operation). Exact for linear constraints.
  Result<Conjunction> Project(const std::vector<VarId>& keep) const;

  /// Applies a variable mapping (ids absent from the map are unchanged).
  /// The mapping need not be injective: mapping two variables to the same
  /// id conjoins their constraints, which is exactly the PTOL semantics for
  /// literals with repeated variables (Definition 2.7).
  Conjunction Rename(const std::map<VarId, VarId>& mapping) const;

  /// All variables mentioned by any atom, sorted.
  std::vector<VarId> Vars() const;

  /// Union–find root of `v` (v itself if never mentioned).
  VarId Find(VarId v) const;

  /// The symbol bound to `v`'s class, if any.
  std::optional<SymbolId> GetSymbol(VarId v) const;

  /// The unique numeric value of `v` if the conjunction forces one
  /// (i.e. `v = c` is entailed); nullopt otherwise. Runs a projection.
  std::optional<Rational> GetNumericValue(VarId v) const;

  /// Cheap variant of GetNumericValue: only recognizes a direct
  /// single-variable equality atom `v = c` on v's class (the form
  /// simplified ground facts store). No projection; may return nullopt for
  /// values that are entailed but not directly stored. Used as a join
  /// pre-filter.
  std::optional<Rational> QuickNumericValue(VarId v) const;

  /// Linear atoms, over class roots, canonically sorted.
  const std::vector<LinearConstraint>& linear() const { return linear_; }

  /// Non-trivial equality edges (member, root), member != root, sorted.
  std::vector<std::pair<VarId, VarId>> EqualityPairs() const;

  /// (root, symbol) bindings, sorted by root.
  std::vector<std::pair<VarId, SymbolId>> SymbolBindings() const;

  /// Exports every atom as (kind-tagged) pieces for re-insertion after a
  /// variable rename; used internally and by the DNF machinery.
  /// The linear part of this conjunction *plus* its equalities materialized
  /// as linear EQ atoms — the form the implication checker feeds to FM.
  std::vector<LinearConstraint> LinearWithEqualities() const;

  /// Removes linear atoms implied by the rest and normalizes the store.
  void Simplify();

  /// True if the two conjunctions have identical canonical forms: the same
  /// equality edges, symbol bindings, linear store and unsat flag, compared
  /// field by field. Roots are class minima and the stores are sorted, so
  /// this is exactly ToString() equality, without rendering. (Two
  /// equivalent conjunctions may still differ; use implication for
  /// semantic equivalence.)
  bool StructurallyEquals(const Conjunction& other) const;

  /// Canonical rendering, e.g. "$1 = madison & $3 <= 240 & $2 = $4".
  /// "true" for the empty conjunction, "false" when known unsatisfiable.
  std::string ToString() const;

 private:
  VarId FindMutable(VarId v);
  /// Whether any linear atom mentions root `r`.
  bool RootInLinear(VarId r) const;
  /// Re-sorts and dedups linear_; detects trivially false atoms.
  void TidyLinear();

  bool unsat_ = false;
  std::map<VarId, VarId> parent_;           // union-find; absent == self root
  std::map<VarId, SymbolId> symbols_;       // root -> symbol
  std::vector<LinearConstraint> linear_;    // over roots
  mutable std::optional<bool> sat_cache_;
};

}  // namespace cqlopt

#endif  // CQLOPT_CONSTRAINT_CONJUNCTION_H_
