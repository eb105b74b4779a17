#include "constraint/interval.h"

#include <atomic>

#include "constraint/conjunction.h"
#include "constraint/decision_cache.h"
#include "constraint/decision_scope.h"
#include "constraint/fingerprint.h"
#include "constraint/fourier_motzkin.h"

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

std::optional<Rational> Interval::Point() const {
  if (lo_inf_ || hi_inf_ || lo_strict_ || hi_strict_) return std::nullopt;
  if (lo_ != hi_) return std::nullopt;
  return lo_;
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

std::string Interval::ToString() const {
  std::string out = lo_inf_ ? "(-inf" : (lo_strict_ ? "(" : "[") +
                                            lo_.ToString();
  out += ", ";
  out += hi_inf_ ? "+inf)" : hi_.ToString() + (hi_strict_ ? ")" : "]");
  return out;
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

ExprRange IntervalDomain::RangeOf(const LinearExpr& expr) const {
  return RestRange(expr, kNoVar);
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

bool IntervalDomain::ProvesAtom(const LinearConstraint& atom) const {
  ExprRange r = RangeOf(atom.expr());
  switch (atom.op()) {
    case CmpOp::kLe:  // all values <= 0
      return !r.hi.infinite && r.hi.value <= Rational(0);
    case CmpOp::kLt:  // all values < 0
      return !r.hi.infinite &&
             (r.hi.value < Rational(0) ||
              (r.hi.value == Rational(0) && r.hi.open));
    case CmpOp::kEq:  // range is exactly the closed point {0}
      return !r.lo.infinite && !r.hi.infinite && !r.lo.open && !r.hi.open &&
             r.lo.value == Rational(0) && r.hi.value == Rational(0);
  }
  return false;
}

bool IntervalDomain::RefutesAtom(const LinearConstraint& atom) const {
  ExprRange r = RangeOf(atom.expr());
  switch (atom.op()) {
    case CmpOp::kLe:  // all values > 0
      return !r.lo.infinite &&
             (r.lo.value > Rational(0) ||
              (r.lo.value == Rational(0) && r.lo.open));
    case CmpOp::kLt:  // all values >= 0
      return !r.lo.infinite && r.lo.value >= Rational(0);
    case CmpOp::kEq: {  // zero is not an achieved value
      bool zero_above_lo =
          r.lo.infinite || r.lo.value < Rational(0) ||
          (r.lo.value == Rational(0) && !r.lo.open);
      bool zero_below_hi =
          r.hi.infinite || r.hi.value > Rational(0) ||
          (r.hi.value == Rational(0) && !r.hi.open);
      return !(zero_above_lo && zero_below_hi);
    }
  }
  return false;
}

bool IntervalDomain::ViolatedSomewhere(const LinearConstraint& atom) const {
  ExprRange r = RangeOf(atom.expr());
  switch (atom.op()) {
    case CmpOp::kLe:  // some value > 0: the range's sup is positive
      return r.hi.infinite || r.hi.value > Rational(0);
    case CmpOp::kLt:  // some value >= 0
      return r.hi.infinite || r.hi.value > Rational(0) ||
             (r.hi.value == Rational(0) && !r.hi.open);
    case CmpOp::kEq:  // some value != 0: any range other than {0}
      return r.lo.infinite || r.hi.infinite ||
             r.lo.value != Rational(0) || r.hi.value != Rational(0);
  }
  return false;
}

bool IntervalDomain::ProvesAll(const std::vector<LinearConstraint>& cs) const {
  for (const LinearConstraint& c : cs) {
    if (!ProvesAtom(c)) return false;
  }
  return true;
}

namespace prepass {
namespace {

std::atomic<long> g_sat{0};
std::atomic<long> g_unsat{0};
std::atomic<long> g_implied{0};
std::atomic<long> g_not_implied{0};
std::atomic<long> g_fallback{0};

void Count(std::atomic<long>* counter) {
  counter->fetch_add(1, std::memory_order_relaxed);
  DecisionScope::Count(counter == &g_fallback
                           ? &DecisionScope::Counts::prepass_fallback
                           : &DecisionScope::Counts::prepass_conclusive);
}

// Domain-separation salts for the verdict memo (distinct from the
// DecisionCache salts in fourier_motzkin.cc / implication.cc — same operand
// fingerprints, different table).
constexpr uint64_t kMemoSatSalt = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kMemoImpliesAtomSalt = 0xbf58476d1ce4e5b9ull;
constexpr uint64_t kMemoImpliesSalt = 0x94d049bb133111ebull;

/// Three-state outcome of an interval probe (0 inconclusive, 1 false,
/// 2 true), memoized so a repeated probe costs one fingerprint lookup
/// instead of a fresh rational propagation. The memo is *not* the
/// DecisionCache: conclusive prepass answers stay out of the exact tier's
/// cache by design (its entries and hit/miss counters keep measuring
/// exact-procedure traffic only), and inconclusiveness — which the
/// DecisionCache cannot represent — is memoized here too, so repeats of
/// hard probes skip straight to the cached exact procedure. Verdicts are
/// pure functions of the canonical fingerprints, so memoization can never
/// change an answer. 2^17 entries in total, uncounted.
VerdictTable& Memo() {
  static VerdictTable* memo = new VerdictTable(size_t{1} << 13);
  return *memo;
}

/// The memoized verdict of `probe()` under `key`.
template <typename Probe>
std::optional<bool> Memoized(uint64_t key, Probe probe) {
  if (std::optional<uint8_t> hit = Memo().Lookup(key)) {
    if (*hit == 0) return std::nullopt;
    return *hit == 2;
  }
  std::optional<bool> fast = probe();
  Memo().Store(key, fast.has_value() ? 1 + *fast : 0);
  return fast;
}

}  // namespace

Counters Snapshot() {
  Counters c;
  c.sat = g_sat.load(std::memory_order_relaxed);
  c.unsat = g_unsat.load(std::memory_order_relaxed);
  c.implied = g_implied.load(std::memory_order_relaxed);
  c.not_implied = g_not_implied.load(std::memory_order_relaxed);
  c.fallback = g_fallback.load(std::memory_order_relaxed);
  return c;
}

std::optional<bool> TrySatisfiable(const std::vector<LinearConstraint>& cs) {
  IntervalDomain dom = IntervalDomain::Propagate(cs);
  if (dom.definitely_empty()) return false;
  // The box is nonempty. If every atom holds on the whole box, any box
  // point is a model; if some atom fails on the whole box, no solution can
  // exist (solutions lie inside the box and would have to satisfy it).
  bool all_proved = true;
  for (const LinearConstraint& c : cs) {
    if (dom.ProvesAtom(c)) continue;
    all_proved = false;
    if (dom.RefutesAtom(c)) return false;
  }
  if (all_proved) return true;
  return std::nullopt;
}

std::optional<bool> TryImpliesAtom(const std::vector<LinearConstraint>& cs,
                                   const LinearConstraint& atom) {
  IntervalDomain dom = IntervalDomain::Propagate(cs);
  if (dom.definitely_empty()) return true;  // UNSAT implies anything
  if (dom.ProvesAtom(atom)) return true;
  // Disproof needs the box to contain only solutions: then a box point
  // violating the atom is a counterexample model.
  if (dom.ProvesAll(cs) && dom.ViolatedSomewhere(atom)) return false;
  return std::nullopt;
}

void ClearMemo() { Memo().Clear(); }

bool IsSatisfiable(const std::vector<LinearConstraint>& cs) {
  if (DecisionScope::prepass_on()) {
    // Structural screens first: the ground case (no linear atoms — the
    // bulk of EmitHead's satisfiability traffic on ground workloads) and
    // one-atom systems are cheaper to answer directly than to fingerprint
    // and look up anywhere.
    if (cs.empty()) {
      Count(&g_sat);
      return true;
    }
    std::optional<bool> fast;
    if (cs.size() == 1) {
      fast = TrySatisfiable(cs);
    } else {
      fast = Memoized(fp::Mix(kMemoSatSalt, fp::FingerprintOf(cs)),
                      [&] { return TrySatisfiable(cs); });
    }
    if (fast.has_value()) {
      Count(*fast ? &g_sat : &g_unsat);
      return *fast;
    }
    Count(&g_fallback);
  }
  return fm::IsSatisfiable(cs);
}

bool ImpliesAtom(const std::vector<LinearConstraint>& cs,
                 const LinearConstraint& atom) {
  if (DecisionScope::prepass_on()) {
    std::optional<bool> fast;
    if (atom.IsTriviallyTrue()) {
      fast = true;  // Valid atom: implied by anything (matches exact).
    } else if (cs.size() <= 1) {
      fast = TryImpliesAtom(cs, atom);
    } else {
      fast = Memoized(
          fp::Mix(fp::Mix(kMemoImpliesAtomSalt, fp::FingerprintOf(cs)),
                  fp::FingerprintOf(atom)),
          [&] { return TryImpliesAtom(cs, atom); });
    }
    if (fast.has_value()) {
      Count(*fast ? &g_implied : &g_not_implied);
      return *fast;
    }
    Count(&g_fallback);
  }
  return fm::ImpliesAtom(cs, atom);
}

namespace {

/// The uncounted body of TryImplies. Mirrors implication.cc's
/// ImpliesUncached obligation by obligation; every conclusive return
/// matches the exact answer (false returns are gated on `a_exact`, which
/// certifies a's satisfiability — the branch the exact checker would take).
std::optional<bool> TryImpliesImpl(const Conjunction& a,
                                   const Conjunction& b) {
  if (a.known_unsat()) return true;
  std::vector<LinearConstraint> a_atoms = a.LinearWithEqualities();
  IntervalDomain dom = IntervalDomain::Propagate(a_atoms);
  if (dom.definitely_empty()) return true;  // a is UNSAT: vacuously implies
  const bool a_exact = dom.ProvesAll(a_atoms);
  if (b.known_unsat()) {
    // Implies(a, false) == !IsSatisfiable(a).
    if (a_exact) return false;
    return std::nullopt;
  }
  // Symbol bindings of b are entailed only syntactically (linear atoms
  // cannot bind symbols), so a missing binding is conclusive once a is
  // known satisfiable.
  for (const auto& [root, symbol] : b.SymbolBindings()) {
    auto bound = a.GetSymbol(root);
    if (!bound.has_value() || *bound != symbol) {
      if (a_exact) return false;
      return std::nullopt;
    }
  }
  for (const auto& [member, root] : b.EqualityPairs()) {
    if (b.GetSymbol(root).has_value()) {
      // Symbol-bound classes compare syntactically, exactly as the exact
      // checker does.
      if (a.Find(member) == a.Find(root)) continue;
      auto sa = a.GetSymbol(member);
      auto sb = a.GetSymbol(root);
      if (sa.has_value() && sb.has_value() && *sa == *sb) continue;
      if (a_exact) return false;
      return std::nullopt;
    }
    if (a.Find(member) == a.Find(root)) continue;
    LinearConstraint eq(LinearExpr::Var(member) - LinearExpr::Var(root),
                        CmpOp::kEq);
    if (dom.ProvesAtom(eq)) continue;
    if (a_exact && dom.ViolatedSomewhere(eq)) return false;
    return std::nullopt;
  }
  for (const LinearConstraint& atom : b.linear()) {
    if (dom.ProvesAtom(atom)) continue;
    if (a_exact && dom.ViolatedSomewhere(atom)) return false;
    return std::nullopt;
  }
  return true;
}

}  // namespace

std::optional<bool> TryImplies(const Conjunction& a, const Conjunction& b) {
  if (!DecisionScope::prepass_on()) return std::nullopt;
  // Structural screens before any fingerprinting: an UNSAT left side
  // implies anything, and a right side with no obligations at all (no
  // bindings, equalities, or linear atoms — the ground-fact case) is
  // implied by anything.
  std::optional<bool> fast;
  bool symbol_gap = false;
  for (const auto& [root, symbol] : b.SymbolBindings()) {
    auto bound = a.GetSymbol(root);
    if (!bound.has_value() || *bound != symbol) {
      symbol_gap = true;
      break;
    }
  }
  if (a.known_unsat() ||
      (!b.known_unsat() && b.SymbolBindings().empty() &&
       b.EqualityPairs().empty() && b.linear().empty())) {
    fast = true;
  } else if (symbol_gap) {
    // b demands a symbol binding a does not carry. Symbols are entailed
    // only syntactically, so the implication can hold only vacuously: the
    // verdict is exactly !IsSatisfiable(a) — a per-object cached bool that
    // set-implication callers (ImpliesDisjunction) have always already
    // computed before probing pairs. This settles the dominant pair
    // traffic of that mode (candidate vs stored fact differing in a
    // symbol) without propagating a single bound.
    fast = !a.IsSatisfiable();
  } else {
    fast = Memoized(fp::Mix(fp::Mix(kMemoImpliesSalt, fp::FingerprintOf(a)),
                            fp::FingerprintOf(b)),
                    [&] { return TryImpliesImpl(a, b); });
  }
  if (fast.has_value()) {
    Count(*fast ? &g_implied : &g_not_implied);
  } else {
    Count(&g_fallback);
  }
  return fast;
}

}  // namespace prepass
}  // namespace cqlopt
