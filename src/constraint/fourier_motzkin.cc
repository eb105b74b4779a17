#include "constraint/fourier_motzkin.h"

#include <algorithm>
#include <limits>
#include <set>

#include "constraint/decision_cache.h"
#include "constraint/decision_scope.h"
#include "constraint/fingerprint.h"

namespace cqlopt {
namespace fm {
namespace {

// Domain-separation salts: the same operand fingerprints under different
// decisions must produce different cache keys.
constexpr uint64_t kSatisfiableSalt = 0x5a7d9c31e4b80f6dull;
constexpr uint64_t kImpliesAtomSalt = 0x3c6ef372fe94f82aull;

/// Deduplicates structurally identical atoms and drops trivially-true ones.
/// Returns false (leaving `*constraints` holding a false atom) if a
/// trivially-false ground atom is present.
bool Tidy(std::vector<LinearConstraint>* constraints) {
  std::vector<LinearConstraint> out;
  out.reserve(constraints->size());
  for (const LinearConstraint& c : *constraints) {
    if (c.IsTriviallyTrue()) continue;
    if (c.IsTriviallyFalse()) {
      constraints->assign(1, c);
      return false;
    }
    out.push_back(c);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  *constraints = std::move(out);
  return true;
}

/// Uses one equality containing `v` to substitute `v` out of every other
/// constraint. Returns true if such an equality existed.
bool GaussEliminate(std::vector<LinearConstraint>* constraints, VarId v) {
  for (size_t i = 0; i < constraints->size(); ++i) {
    const LinearConstraint& eq = (*constraints)[i];
    if (eq.op() != CmpOp::kEq) continue;
    Rational coeff = eq.expr().CoefficientOf(v);
    if (coeff.is_zero()) continue;
    // v = -(expr - coeff*v) / coeff
    LinearExpr rest = eq.expr();
    rest.Add(v, -coeff);
    LinearExpr replacement = (-rest).Scale(coeff.Reciprocal());
    std::vector<LinearConstraint> out;
    out.reserve(constraints->size() - 1);
    for (size_t j = 0; j < constraints->size(); ++j) {
      if (j == i) continue;
      out.push_back((*constraints)[j].Substitute(v, replacement));
    }
    *constraints = std::move(out);
    return true;
  }
  return false;
}

/// One Fourier–Motzkin step: eliminates `v` from a conjunction of
/// inequalities (any equalities mentioning v must have been removed first).
void FourierMotzkinStep(std::vector<LinearConstraint>* constraints, VarId v) {
  std::vector<LinearConstraint> lower;  // coefficient of v negative: v >= ...
  std::vector<LinearConstraint> upper;  // coefficient of v positive: v <= ...
  std::vector<LinearConstraint> rest;
  for (LinearConstraint& c : *constraints) {
    int sign = c.expr().CoefficientOf(v).sign();
    if (sign == 0) {
      rest.push_back(std::move(c));
    } else if (sign > 0) {
      upper.push_back(std::move(c));
    } else {
      lower.push_back(std::move(c));
    }
  }
  for (const LinearConstraint& up : upper) {
    Rational a = up.expr().CoefficientOf(v);  // a > 0
    LinearExpr up_rest = up.expr();
    up_rest.Add(v, -a);
    for (const LinearConstraint& lo : lower) {
      Rational b = -lo.expr().CoefficientOf(v);  // b > 0
      LinearExpr lo_rest = lo.expr();
      lo_rest.Add(v, b);
      // up: a*v + up_rest op1 0  =>  v op1 -up_rest/a
      // lo: lo_rest - b*v op2 0  =>  lo_rest/b op2 v
      // combine: lo_rest/b + up_rest/a op 0, scaled by a*b > 0.
      LinearExpr combined = lo_rest.Scale(a) + up_rest.Scale(b);
      CmpOp op = (up.op() == CmpOp::kLt || lo.op() == CmpOp::kLt) ? CmpOp::kLt
                                                                  : CmpOp::kLe;
      LinearConstraint c(std::move(combined), op);
      if (!c.IsTriviallyTrue()) rest.push_back(std::move(c));
    }
  }
  *constraints = std::move(rest);
}

/// Chooses the next variable to eliminate: the one minimizing the number of
/// constraints produced (classic greedy heuristic to limit FM blowup).
VarId PickVariable(const std::vector<LinearConstraint>& constraints,
                   const std::set<VarId>& eliminate) {
  VarId best = kNoVar;
  long best_cost = std::numeric_limits<long>::max();
  for (VarId v : eliminate) {
    long pos = 0;
    long neg = 0;
    bool has_eq = false;
    bool occurs = false;
    for (const LinearConstraint& c : constraints) {
      int sign = c.expr().CoefficientOf(v).sign();
      if (sign == 0) continue;
      occurs = true;
      if (c.op() == CmpOp::kEq) {
        has_eq = true;
        break;
      }
      if (sign > 0) {
        ++pos;
      } else {
        ++neg;
      }
    }
    if (!occurs) return v;  // Free elimination.
    long cost = has_eq ? 0 : pos * neg - pos - neg;
    if (cost < best_cost) {
      best_cost = cost;
      best = v;
    }
  }
  return best;
}

std::vector<LinearConstraint> EliminateImpl(
    std::vector<LinearConstraint> constraints, std::set<VarId> eliminate) {
  if (!Tidy(&constraints)) return constraints;
  while (!eliminate.empty()) {
    VarId v = PickVariable(constraints, eliminate);
    eliminate.erase(v);
    bool occurs = false;
    for (const LinearConstraint& c : constraints) {
      if (!c.expr().CoefficientOf(v).is_zero()) {
        occurs = true;
        break;
      }
    }
    if (!occurs) continue;
    if (!GaussEliminate(&constraints, v)) {
      FourierMotzkinStep(&constraints, v);
    }
    if (!Tidy(&constraints)) return constraints;
  }
  return constraints;
}

std::set<VarId> AllVars(const std::vector<LinearConstraint>& constraints) {
  std::set<VarId> vars;
  for (const LinearConstraint& c : constraints) {
    for (VarId v : c.Vars()) vars.insert(v);
  }
  return vars;
}

/// The uncached decision procedure (the pre-cache IsSatisfiable body).
bool IsSatisfiableUncached(const std::vector<LinearConstraint>& constraints) {
  std::vector<LinearConstraint> result =
      EliminateImpl(constraints, AllVars(constraints));
  for (const LinearConstraint& c : result) {
    if (c.IsTriviallyFalse()) return false;
  }
  return true;
}

}  // namespace

bool IsSatisfiable(const std::vector<LinearConstraint>& constraints) {
  if (!DecisionScope::cache_on()) return IsSatisfiableUncached(constraints);
  DecisionCache& cache = DecisionCache::Instance();
  uint64_t key = fp::Mix(kSatisfiableSalt, fp::FingerprintOf(constraints));
  if (std::optional<bool> hit = cache.Lookup(key)) return *hit;
  bool value = IsSatisfiableUncached(constraints);
  cache.Store(key, value);
  return value;
}

std::vector<LinearConstraint> Eliminate(
    std::vector<LinearConstraint> constraints,
    const std::vector<VarId>& eliminate) {
  return EliminateImpl(std::move(constraints),
                       std::set<VarId>(eliminate.begin(), eliminate.end()));
}

bool ImpliesAtom(const std::vector<LinearConstraint>& constraints,
                 const LinearConstraint& atom) {
  // Memoized at this level too (on top of the per-negation IsSatisfiable
  // caching): a hit skips the Negations() expansion and the vector copies.
  DecisionCache& cache = DecisionCache::Instance();
  const bool use_cache = DecisionScope::cache_on();
  uint64_t key = 0;
  if (use_cache) {
    key = fp::Mix(fp::Mix(kImpliesAtomSalt, fp::FingerprintOf(constraints)),
                  fp::FingerprintOf(atom));
    if (std::optional<bool> hit = cache.Lookup(key)) return *hit;
  }
  bool value = true;
  for (const LinearConstraint& piece : atom.Negations()) {
    std::vector<LinearConstraint> test = constraints;
    test.push_back(piece);
    if (IsSatisfiable(test)) {
      value = false;
      break;
    }
  }
  if (use_cache) cache.Store(key, value);
  return value;
}

std::vector<LinearConstraint> RemoveRedundant(
    std::vector<LinearConstraint> constraints) {
  if (!Tidy(&constraints)) return constraints;
  // Simplification runs per derivation (Conjunction::Simplify in EmitHead)
  // over large pre-simplification conjunctions whose content repeats across
  // derivations, so these decisions stay on the memoized exact procedures:
  // probing the interval prepass per atom here costs O(atoms^2) rational
  // propagation per Simplify and is mostly inconclusive (redundancy needs
  // the rarely-provable "not implied" direction), while a repeated exact
  // decision is one cache hit. The prepass instead guards the callers'
  // entry points (Conjunction::IsSatisfiable, Implies).
  if (!IsSatisfiable(constraints)) {
    // Canonical "false": 0 < 0 ... represented as constant 0 with kLt is
    // trivially false only if constant is >= 0; use 1 <= 0.
    return {LinearConstraint(LinearExpr::Constant(Rational(1)), CmpOp::kLe)};
  }
  // Merge opposite inequalities into equalities (x <= 5 & x >= 5 becomes
  // x = 5), giving ground facts a canonical single-atom form.
  for (size_t i = 0; i < constraints.size(); ++i) {
    if (constraints[i].op() != CmpOp::kLe) continue;
    LinearConstraint negated(-constraints[i].expr(), CmpOp::kLe);
    for (size_t j = i + 1; j < constraints.size(); ++j) {
      if (constraints[j] == negated) {
        constraints[i] = LinearConstraint(constraints[i].expr(), CmpOp::kEq);
        constraints.erase(constraints.begin() + static_cast<long>(j));
        break;
      }
    }
  }
  // Greedy: try dropping each atom; keep it only if not implied by the rest.
  for (size_t i = 0; i < constraints.size();) {
    std::vector<LinearConstraint> rest;
    rest.reserve(constraints.size() - 1);
    for (size_t j = 0; j < constraints.size(); ++j) {
      if (j != i) rest.push_back(constraints[j]);
    }
    if (ImpliesAtom(rest, constraints[i])) {
      constraints = std::move(rest);
    } else {
      ++i;
    }
  }
  std::sort(constraints.begin(), constraints.end());
  return constraints;
}

}  // namespace fm
}  // namespace cqlopt
