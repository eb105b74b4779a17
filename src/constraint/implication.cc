#include "constraint/implication.h"

#include "constraint/decision_cache.h"
#include "constraint/decision_scope.h"
#include "constraint/fingerprint.h"
#include "constraint/fourier_motzkin.h"
#include "constraint/interval.h"

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
  if (!prepass::IsSatisfiable(base)) return true;
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

/// The uncached body of Implies() below.
bool ImpliesUncached(const Conjunction& a, const Conjunction& b) {
  if (!a.IsSatisfiable()) return true;
  if (b.known_unsat()) return false;
  std::vector<LinearConstraint> a_atoms = a.LinearWithEqualities();
  // Symbol bindings of b must be entailed syntactically.
  for (const auto& [root, symbol] : b.SymbolBindings()) {
    auto bound = a.GetSymbol(root);
    if (!bound.has_value() || *bound != symbol) return false;
  }
  // Variable equalities of b.
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
  // Linear atoms of b. These stay on the memoized exact procedure: this
  // body only runs after the pair-level interval prepass (TryImplies in
  // Implies) was inconclusive, which already checked each of these atoms
  // against a's propagated box — re-propagating per atom here would be
  // pure overhead.
  for (const LinearConstraint& atom : b.linear()) {
    if (!fm::ImpliesAtom(a_atoms, atom)) return false;
  }
  return true;
}

}  // namespace

bool Implies(const Conjunction& a, const Conjunction& b) {
  // Approximate tier first: a conclusive interval-propagation answer equals
  // the exact decision and skips both the cache probe and the FM fallback.
  if (std::optional<bool> fast = prepass::TryImplies(a, b)) return *fast;
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
  bool value = ImpliesUncached(a, b);
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
