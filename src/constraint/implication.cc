#include "constraint/implication.h"

#include <optional>

#include "constraint/decision_cache.h"
#include "constraint/decision_scope.h"
#include "constraint/fingerprint.h"
#include "constraint/fourier_motzkin.h"

namespace cqlopt {
namespace {

// Salt separating pairwise-implication keys from the fm:: decision keys.
constexpr uint64_t kImpliesSalt = 0x9b1a6e5c2d83f074ull;

/// True iff `a` entails the variable equality u = v, either through its
/// union–find or through its linear store.
bool EntailsEquality(const Conjunction& a,
                     const std::vector<LinearConstraint>& a_atoms, VarId u,
                     VarId v) {
  if (a.Find(u) == a.Find(v)) return true;
  LinearExpr diff = LinearExpr::Var(u) - LinearExpr::Var(v);
  return fm::ImpliesAtom(a_atoms, LinearConstraint(diff, CmpOp::kEq));
}

/// True iff any disjunct contains a symbolic atom (binding or equality whose
/// class is symbol-bound).
bool HasSymbolicAtoms(const Conjunction& c) {
  return !c.SymbolBindings().empty();
}

/// Recursive case split deciding unsatisfiability of
///   base ∧ ¬disjuncts[idx] ∧ ... ∧ ¬disjuncts.back().
/// Each ¬d expands into one branch per negation piece of each atom of d;
/// the conjunction is unsatisfiable iff *every* branch is.
bool RefuteAll(std::vector<LinearConstraint> base,
               const std::vector<std::vector<LinearConstraint>>& disjuncts,
               size_t idx) {
  if (!fm::IsSatisfiable(base)) return true;
  if (idx == disjuncts.size()) return false;
  for (const LinearConstraint& atom : disjuncts[idx]) {
    for (const LinearConstraint& piece : atom.Negations()) {
      std::vector<LinearConstraint> branch = base;
      branch.push_back(piece);
      if (!RefuteAll(std::move(branch), disjuncts, idx + 1)) return false;
    }
  }
  // Every branch was refuted. This covers the empty disjunct too: a
  // disjunct with no atoms is `true`, ¬true contributes no branches, and
  // base ∧ false is vacuously unsatisfiable — the disjunct covers all of
  // base (tests/test_implication.cc pins this case).
  return true;
}

/// The steps of Implies() that need no elimination: an UNSAT `a` implies
/// anything, nothing satisfiable implies a known-UNSAT `b`, symbol
/// bindings of `b` are entailed only syntactically (linear atoms cannot
/// bind symbols), and a linear atom of `b` whose variables `a` pins by
/// direct equality atoms (the canonical form of ground facts) is decided
/// by evaluating it at that point. nullopt leaves the pair to
/// ImpliesObligations. Every answer is exact. FM never sees symbols, so
/// their bindings are decided here in any case; the other steps keep pairs
/// that need no elimination (subsumption probes of a ground candidate
/// against a stored fact, or of facts differing in a symbol) free of
/// fingerprints and cache traffic.
std::optional<bool> ImpliesSyntactic(const Conjunction& a,
                                     const Conjunction& b) {
  if (!a.IsSatisfiable()) return true;
  if (b.known_unsat()) return false;
  for (const auto& [root, symbol] : b.SymbolBindings()) {
    auto bound = a.GetSymbol(root);
    if (!bound.has_value() || *bound != symbol) return false;
  }
  if (!b.EqualityPairs().empty()) return std::nullopt;
  for (const LinearConstraint& atom : b.linear()) {
    LinearConstraint at_point = atom;
    for (const auto& [v, coeff] : atom.expr().coefficients()) {
      std::optional<Rational> value = a.QuickNumericValue(v);
      if (!value.has_value()) return std::nullopt;
      at_point = at_point.Substitute(v, LinearExpr::Constant(*value));
    }
    if (!at_point.GroundValue()) return false;
  }
  return true;
}

/// The rest of Implies() for a satisfiable `a` whose symbol bindings cover
/// b's: b's variable equalities and linear atoms, by exact FM.
bool ImpliesObligations(const Conjunction& a, const Conjunction& b) {
  std::vector<LinearConstraint> a_atoms = a.LinearWithEqualities();
  for (const auto& [member, root] : b.EqualityPairs()) {
    // If the class is symbol-bound in b, entailment must be via symbols.
    if (b.GetSymbol(root).has_value()) {
      auto sa = a.GetSymbol(member);
      auto sb = a.GetSymbol(root);
      if (a.Find(member) == a.Find(root)) continue;
      if (sa.has_value() && sb.has_value() && *sa == *sb) continue;
      return false;
    }
    if (!EntailsEquality(a, a_atoms, member, root)) return false;
  }
  for (const LinearConstraint& atom : b.linear()) {
    if (!fm::ImpliesAtom(a_atoms, atom)) return false;
  }
  return true;
}

}  // namespace

bool Implies(const Conjunction& a, const Conjunction& b) {
  if (std::optional<bool> settled = ImpliesSyntactic(a, b)) return *settled;
  // Memoized on the conjunction fingerprints: the decision depends only on
  // the canonical stores the fingerprint covers. Subsumption probes the
  // same (new fact, stored fact) constraint pairs across iterations and
  // strategies, so this is the hottest key family of the DecisionCache.
  DecisionCache& cache = DecisionCache::Instance();
  const bool use_cache = DecisionScope::cache_on();
  uint64_t key = 0;
  if (use_cache) {
    key = fp::Mix(fp::Mix(kImpliesSalt, fp::FingerprintOf(a)),
                  fp::FingerprintOf(b));
    if (std::optional<bool> hit = cache.Lookup(key)) return *hit;
  }
  bool value = ImpliesObligations(a, b);
  if (use_cache) cache.Store(key, value);
  return value;
}

bool ImpliesDisjunction(const Conjunction& a,
                        const std::vector<Conjunction>& disjuncts) {
  if (!a.IsSatisfiable()) return true;
  std::vector<const Conjunction*> live;
  for (const Conjunction& d : disjuncts) {
    if (d.IsSatisfiable()) live.push_back(&d);
  }
  if (live.empty()) return false;
  // Fast path / fallback for symbolic content: per-disjunct implication.
  for (const Conjunction* d : live) {
    if (Implies(a, *d)) return true;
  }
  for (const Conjunction* d : live) {
    if (HasSymbolicAtoms(*d)) return false;  // Conservative (see header).
  }
  if (!a.SymbolBindings().empty()) {
    // Sound to ignore a's symbolic atoms: they only restrict a further.
    // Fall through and decide on the linear parts (may be conservative in
    // principle, but symbols cannot satisfy linear atoms anyway).
  }
  std::vector<std::vector<LinearConstraint>> negatable;
  negatable.reserve(live.size());
  for (const Conjunction* d : live) {
    negatable.push_back(d->LinearWithEqualities());
  }
  return RefuteAll(a.LinearWithEqualities(), negatable, 0);
}

bool Equivalent(const Conjunction& a, const Conjunction& b) {
  return Implies(a, b) && Implies(b, a);
}

}  // namespace cqlopt
