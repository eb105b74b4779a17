#include "eval/fact.h"

#include <algorithm>

#include "constraint/fingerprint.h"

namespace cqlopt {

namespace {

constexpr uint64_t kGroundSeed = 0x5851f42d4c957f2dull;
constexpr uint64_t kConstraintSeed = 0x14057b7ef767814full;

/// True if the linear store is only single-variable equalities on distinct
/// variables (the form canonical ground facts and loaded rows take). Such a
/// store is satisfiable, and a position's value is exactly its direct atom.
bool DirectAtomsExact(const Conjunction& c) {
  if (c.known_unsat()) return false;
  std::vector<VarId> vars;
  vars.reserve(c.linear().size());
  for (const LinearConstraint& atom : c.linear()) {
    const auto& coeffs = atom.expr().coefficients();
    if (atom.op() != CmpOp::kEq || coeffs.size() != 1) return false;
    vars.push_back(coeffs.begin()->first);
  }
  std::sort(vars.begin(), vars.end());
  return std::adjacent_find(vars.begin(), vars.end()) == vars.end();
}

/// The unique numeric value of position `v`: the direct atom when `exact`
/// (DirectAtomsExact), the exact projection otherwise.
std::optional<Rational> NumericValue(const Conjunction& c, VarId v,
                                     bool exact) {
  return exact ? c.QuickNumericValue(v) : c.GetNumericValue(v);
}

/// The values of `vars` if `c` pins each one (NumericValue), else nullopt.
std::optional<GroundTuple> ValuesOf(const Conjunction& c,
                                    const std::vector<VarId>& vars,
                                    bool exact) {
  GroundTuple values;
  values.reserve(vars.size());
  for (VarId v : vars) {
    if (auto sym = c.GetSymbol(v)) {
      values.push_back(PointValue::Symbol(*sym));
      continue;
    }
    auto number = NumericValue(c, v, exact);
    if (!number.has_value()) return std::nullopt;
    values.push_back(PointValue::Number(std::move(*number)));
  }
  return values;
}

}  // namespace

std::string Fact::Key() const {
  return std::to_string(pred) + "/" + std::to_string(arity) + ":" +
         constraint.ToString();
}

std::string Fact::ToString(const SymbolTable& symbols) const {
  std::string out = symbols.PredicateName(pred) + "(";
  const bool exact = DirectAtomsExact(constraint);
  std::vector<VarId> residual;
  for (int i = 1; i <= arity; ++i) {
    if (i > 1) out += ", ";
    auto sym = constraint.GetSymbol(i);
    if (sym.has_value()) {
      out += symbols.SymbolName(*sym);
      continue;
    }
    auto value = NumericValue(constraint, i, exact);
    if (value.has_value()) {
      out += value->ToString();
      continue;
    }
    out += "$" + std::to_string(i);
    residual.push_back(i);
  }
  if (!residual.empty()) {
    auto projected = constraint.Project(residual);
    std::string cs = projected.ok() ? projected->ToString() : "?";
    if (cs != "true") out += "; " + cs;
  }
  return out + ")";
}

std::optional<GroundTuple> GroundValuesOf(const Fact& fact) {
  std::vector<VarId> positions(static_cast<size_t>(fact.arity));
  for (int i = 1; i <= fact.arity; ++i) positions[i - 1] = i;
  return ValuesOf(fact.constraint, positions,
                  DirectAtomsExact(fact.constraint));
}

std::optional<GroundTuple> DirectValuesOf(const Conjunction& c,
                                          const std::vector<VarId>& vars) {
  if (!DirectAtomsExact(c)) return std::nullopt;
  return ValuesOf(c, vars, /*exact=*/true);
}

Fact GroundFact(PredId pred, const GroundTuple& values) {
  return Fact(pred, static_cast<int>(values.size()),
              Conjunction::Point(values));
}

uint64_t HashGroundTuple(PredId pred, const GroundTuple& values) {
  uint64_t h = fp::Mix(kGroundSeed, static_cast<uint64_t>(pred));
  h = fp::Mix(h, values.size());
  for (const PointValue& v : values) {
    h = v.is_symbol ? fp::Mix(h, static_cast<uint64_t>(v.symbol) ^
                                     0xdeadbeefcafef00dull)
                    : fp::Mix(h, static_cast<uint64_t>(v.number.Hash()));
  }
  return h;
}

CanonicalFact CanonicalFact::Ground(PredId pred, GroundTuple values) {
  CanonicalFact fact;
  fact.pred = pred;
  fact.arity = static_cast<int>(values.size());
  fact.tuple = std::move(values);
  return fact;
}

Fact CanonicalFact::ToFact() const {
  if (tuple.has_value()) return GroundFact(pred, *tuple);
  return Fact(pred, arity, constraint);
}

uint64_t CanonicalFact::Hash() const {
  if (tuple.has_value()) return HashGroundTuple(pred, *tuple);
  uint64_t h = fp::Mix(kConstraintSeed, static_cast<uint64_t>(pred));
  h = fp::Mix(h, static_cast<uint64_t>(arity));
  return fp::Mix(h, fp::FingerprintOf(constraint));
}

bool CanonicalFact::SameAs(const CanonicalFact& other) const {
  if (pred != other.pred || arity != other.arity ||
      ground() != other.ground()) {
    return false;
  }
  if (ground()) return *tuple == *other.tuple;
  return constraint.StructurallyEquals(other.constraint);
}

CanonicalFact Canonicalize(Fact fact) {
  std::optional<GroundTuple> tuple = GroundValuesOf(fact);
  if (tuple.has_value()) {
    return CanonicalFact::Ground(fact.pred, std::move(*tuple));
  }
  CanonicalFact canonical;
  canonical.pred = fact.pred;
  canonical.arity = fact.arity;
  canonical.constraint = std::move(fact.constraint);
  return canonical;
}

}  // namespace cqlopt
