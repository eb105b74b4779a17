#include "constraint/conjunction.h"

#include <algorithm>

#include "constraint/fourier_motzkin.h"

namespace cqlopt {

Conjunction Conjunction::False() {
  Conjunction c;
  c.unsat_ = true;
  return c;
}

VarId Conjunction::Find(VarId v) const {
  auto it = parent_.find(v);
  while (it != parent_.end() && it->second != v) {
    v = it->second;
    it = parent_.find(v);
  }
  return v;
}

VarId Conjunction::FindMutable(VarId v) {
  VarId root = Find(v);
  // Path compression.
  while (true) {
    auto it = parent_.find(v);
    if (it == parent_.end() || it->second == v) break;
    VarId next = it->second;
    it->second = root;
    v = next;
  }
  return root;
}

bool Conjunction::RootInLinear(VarId r) const {
  for (const LinearConstraint& c : linear_) {
    if (!c.expr().CoefficientOf(r).is_zero()) return true;
  }
  return false;
}

void Conjunction::TidyLinear() {
  std::vector<LinearConstraint> out;
  out.reserve(linear_.size());
  for (LinearConstraint& c : linear_) {
    if (c.IsTriviallyTrue()) continue;
    if (c.IsTriviallyFalse()) {
      unsat_ = true;
      continue;
    }
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  linear_ = std::move(out);
}

Status Conjunction::AddLinear(const LinearConstraint& atom) {
  sat_cache_.reset();
  // Rewrite variables to class roots.
  std::map<VarId, VarId> to_root;
  for (VarId v : atom.Vars()) {
    VarId r = FindMutable(v);
    if (symbols_.count(r) > 0) {
      return Status::TypeError("linear constraint over symbol-bound variable " +
                               VarName(v));
    }
    if (r != v) to_root[v] = r;
  }
  LinearConstraint rooted = to_root.empty() ? atom : atom.Rename(to_root);
  if (rooted.IsTriviallyTrue()) return Status::OK();
  if (rooted.IsTriviallyFalse()) {
    unsat_ = true;
    return Status::OK();
  }
  linear_.push_back(std::move(rooted));
  TidyLinear();
  return Status::OK();
}

Status Conjunction::AddEquality(VarId a, VarId b) {
  sat_cache_.reset();
  VarId ra = FindMutable(a);
  VarId rb = FindMutable(b);
  if (ra == rb) return Status::OK();
  // Deterministic root choice keeps canonical forms stable.
  VarId new_root = std::min(ra, rb);
  VarId old_root = std::max(ra, rb);

  auto sym_new = symbols_.find(new_root);
  auto sym_old = symbols_.find(old_root);
  bool new_has_sym = sym_new != symbols_.end();
  bool old_has_sym = sym_old != symbols_.end();
  if (new_has_sym && old_has_sym) {
    if (sym_new->second != sym_old->second) unsat_ = true;
  } else if (new_has_sym && RootInLinear(old_root)) {
    return Status::TypeError("equating symbol-bound " + VarName(new_root) +
                             " with numeric " + VarName(old_root));
  } else if (old_has_sym && RootInLinear(new_root)) {
    return Status::TypeError("equating symbol-bound " + VarName(old_root) +
                             " with numeric " + VarName(new_root));
  }
  if (old_has_sym) {
    symbols_[new_root] = sym_old->second;
    symbols_.erase(old_root);
  }
  parent_[old_root] = new_root;
  parent_.emplace(new_root, new_root);
  parent_.emplace(a, parent_.count(a) ? parent_[a] : new_root);
  parent_.emplace(b, parent_.count(b) ? parent_[b] : new_root);
  // Rewrite linear atoms mentioning the old root.
  if (RootInLinear(old_root)) {
    std::map<VarId, VarId> remap = {{old_root, new_root}};
    for (LinearConstraint& c : linear_) c = c.Rename(remap);
    TidyLinear();
  }
  return Status::OK();
}

Status Conjunction::BindSymbol(VarId v, SymbolId symbol) {
  sat_cache_.reset();
  VarId r = FindMutable(v);
  parent_.emplace(v, r);
  auto it = symbols_.find(r);
  if (it != symbols_.end()) {
    if (it->second != symbol) unsat_ = true;
    return Status::OK();
  }
  if (RootInLinear(r)) {
    return Status::TypeError("binding symbol to numeric variable " +
                             VarName(v));
  }
  symbols_[r] = symbol;
  return Status::OK();
}

Status Conjunction::AddConjunction(const Conjunction& other) {
  if (other.unsat_) {
    unsat_ = true;
    sat_cache_.reset();
    return Status::OK();
  }
  for (const auto& [member, root] : other.EqualityPairs()) {
    CQLOPT_RETURN_IF_ERROR(AddEquality(member, root));
  }
  for (const auto& [root, symbol] : other.SymbolBindings()) {
    CQLOPT_RETURN_IF_ERROR(BindSymbol(root, symbol));
  }
  for (const LinearConstraint& atom : other.linear_) {
    CQLOPT_RETURN_IF_ERROR(AddLinear(atom));
  }
  return Status::OK();
}

bool Conjunction::IsSatisfiable() const {
  if (unsat_) return false;
  if (!sat_cache_.has_value()) sat_cache_ = fm::IsSatisfiable(linear_);
  return *sat_cache_;
}

std::vector<VarId> Conjunction::Vars() const {
  std::vector<VarId> out;
  for (const auto& [v, p] : parent_) out.push_back(v);
  for (const LinearConstraint& c : linear_) {
    for (VarId v : c.Vars()) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::optional<SymbolId> Conjunction::GetSymbol(VarId v) const {
  auto it = symbols_.find(Find(v));
  if (it == symbols_.end()) return std::nullopt;
  return it->second;
}

std::optional<Rational> Conjunction::GetNumericValue(VarId v) const {
  if (unsat_) return std::nullopt;
  VarId r = Find(v);
  if (symbols_.count(r) > 0) return std::nullopt;
  // Project the linear store onto {r} and read off the bounds.
  std::vector<VarId> eliminate;
  std::vector<LinearConstraint> atoms = linear_;
  {
    std::vector<VarId> vars;
    for (const LinearConstraint& c : atoms) {
      for (VarId x : c.Vars()) vars.push_back(x);
    }
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    for (VarId x : vars) {
      if (x != r) eliminate.push_back(x);
    }
  }
  atoms = fm::Eliminate(std::move(atoms), eliminate);
  std::optional<Rational> lower;
  std::optional<Rational> upper;
  bool lower_strict = false;
  bool upper_strict = false;
  for (const LinearConstraint& c : atoms) {
    Rational a = c.expr().CoefficientOf(r);
    if (a.is_zero()) {
      if (c.IsTriviallyFalse()) return std::nullopt;
      continue;
    }
    Rational bound = -(c.expr().constant()) / a;
    if (c.op() == CmpOp::kEq) return bound;
    bool is_upper = a.sign() > 0;  // a*r + c0 op 0 with a>0: r op bound.
    bool strict = c.op() == CmpOp::kLt;
    if (is_upper) {
      if (!upper || bound < *upper) {
        upper = bound;
        upper_strict = strict;
      } else if (bound == *upper) {
        upper_strict = upper_strict || strict;
      }
    } else {
      if (!lower || bound > *lower) {
        lower = bound;
        lower_strict = strict;
      } else if (bound == *lower) {
        lower_strict = lower_strict || strict;
      }
    }
  }
  if (lower && upper && *lower == *upper && !lower_strict && !upper_strict) {
    return *lower;
  }
  return std::nullopt;
}

std::optional<Rational> Conjunction::QuickNumericValue(VarId v) const {
  if (unsat_) return std::nullopt;
  VarId r = Find(v);
  for (const LinearConstraint& atom : linear_) {
    if (atom.op() != CmpOp::kEq) continue;
    const auto& coeffs = atom.expr().coefficients();
    if (coeffs.size() != 1 || coeffs.begin()->first != r) continue;
    return -(atom.expr().constant()) / coeffs.begin()->second;
  }
  return std::nullopt;
}

bool Conjunction::IsGroundOver(const std::vector<VarId>& vars) const {
  for (VarId v : vars) {
    if (GetSymbol(v).has_value()) continue;
    if (GetNumericValue(v).has_value()) continue;
    return false;
  }
  return true;
}

std::vector<std::pair<VarId, VarId>> Conjunction::EqualityPairs() const {
  std::vector<std::pair<VarId, VarId>> out;
  for (const auto& [v, p] : parent_) {
    VarId r = Find(v);
    if (r != v) out.emplace_back(v, r);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<VarId, SymbolId>> Conjunction::SymbolBindings() const {
  std::vector<std::pair<VarId, SymbolId>> out(symbols_.begin(), symbols_.end());
  return out;
}

std::vector<LinearConstraint> Conjunction::LinearWithEqualities() const {
  std::vector<LinearConstraint> out = linear_;
  for (const auto& [member, root] : EqualityPairs()) {
    LinearExpr e = LinearExpr::Var(member) - LinearExpr::Var(root);
    out.emplace_back(std::move(e), CmpOp::kEq);
  }
  return out;
}

Result<Conjunction> Conjunction::Project(const std::vector<VarId>& keep) const {
  Conjunction out;
  if (unsat_) return Conjunction::False();
  std::vector<VarId> keep_sorted = keep;
  std::sort(keep_sorted.begin(), keep_sorted.end());
  auto kept = [&keep_sorted](VarId v) {
    return std::binary_search(keep_sorted.begin(), keep_sorted.end(), v);
  };

  // Group variables into classes and pick, per class, the smallest kept
  // member as representative (falling back to the root).
  std::map<VarId, std::vector<VarId>> classes;  // root -> members
  for (VarId v : Vars()) classes[Find(v)].push_back(v);
  std::map<VarId, VarId> rep;  // root -> representative
  for (auto& [root, members] : classes) {
    VarId chosen = root;
    for (VarId m : members) {
      if (kept(m)) {
        chosen = m;
        break;  // members sorted ascending; first kept is smallest.
      }
    }
    rep[root] = chosen;
  }

  // Equalities and symbol bindings among kept members.
  for (auto& [root, members] : classes) {
    VarId r = rep[root];
    if (kept(r)) {
      for (VarId m : members) {
        if (m != r && kept(m)) {
          CQLOPT_RETURN_IF_ERROR(out.AddEquality(m, r));
        }
      }
      auto sym = symbols_.find(root);
      if (sym != symbols_.end()) {
        CQLOPT_RETURN_IF_ERROR(out.BindSymbol(r, sym->second));
      }
    }
  }

  // Linear part: re-root atoms at representatives, then eliminate the
  // representatives that are not kept.
  std::map<VarId, VarId> remap;
  for (const auto& [root, r] : rep) {
    if (root != r) remap[root] = r;
  }
  std::vector<LinearConstraint> atoms;
  atoms.reserve(linear_.size());
  for (const LinearConstraint& c : linear_) {
    atoms.push_back(remap.empty() ? c : c.Rename(remap));
  }
  std::vector<VarId> eliminate;
  for (const LinearConstraint& c : atoms) {
    for (VarId v : c.Vars()) {
      if (!kept(v)) eliminate.push_back(v);
    }
  }
  std::sort(eliminate.begin(), eliminate.end());
  eliminate.erase(std::unique(eliminate.begin(), eliminate.end()),
                  eliminate.end());
  atoms = fm::Eliminate(std::move(atoms), eliminate);
  for (const LinearConstraint& c : atoms) {
    CQLOPT_RETURN_IF_ERROR(out.AddLinear(c));
  }
  return out;
}

Conjunction Conjunction::Rename(const std::map<VarId, VarId>& mapping) const {
  Conjunction out;
  if (unsat_) return Conjunction::False();
  auto mapped = [&mapping](VarId v) {
    auto it = mapping.find(v);
    return it == mapping.end() ? v : it->second;
  };
  Status st;
  for (const auto& [member, root] : EqualityPairs()) {
    st = out.AddEquality(mapped(member), mapped(root));
    if (!st.ok()) return Conjunction::False();
  }
  for (const auto& [root, symbol] : SymbolBindings()) {
    st = out.BindSymbol(mapped(root), symbol);
    if (!st.ok()) return Conjunction::False();
  }
  for (const LinearConstraint& atom : linear_) {
    st = out.AddLinear(atom.Rename(mapping));
    if (!st.ok()) return Conjunction::False();
  }
  return out;
}

void Conjunction::Simplify() {
  if (unsat_) return;
  sat_cache_.reset();
  linear_ = fm::RemoveRedundant(std::move(linear_));
  for (const LinearConstraint& c : linear_) {
    if (c.IsTriviallyFalse()) {
      unsat_ = true;
      return;
    }
  }
}

std::string Conjunction::ToString() const {
  if (unsat_) return "false";
  // Canonical form: rewrite everything to the smallest member per class.
  std::map<VarId, std::vector<VarId>> classes;
  for (VarId v : Vars()) classes[Find(v)].push_back(v);
  std::map<VarId, VarId> to_min;
  for (auto& [root, members] : classes) {
    VarId min_member = members.front();
    if (root != min_member) to_min[root] = min_member;
  }
  std::vector<std::string> pieces;
  for (auto& [root, members] : classes) {
    VarId min_member = members.front();
    for (size_t i = 1; i < members.size(); ++i) {
      pieces.push_back(VarName(members[i]) + " = " + VarName(min_member));
    }
    auto sym = symbols_.find(root);
    if (sym != symbols_.end()) {
      pieces.push_back(VarName(min_member) + " = @" +
                       std::to_string(sym->second));
    }
  }
  std::vector<LinearConstraint> atoms;
  atoms.reserve(linear_.size());
  for (const LinearConstraint& c : linear_) {
    atoms.push_back(to_min.empty() ? c : c.Rename(to_min));
  }
  std::sort(atoms.begin(), atoms.end());
  atoms.erase(std::unique(atoms.begin(), atoms.end()), atoms.end());
  for (const LinearConstraint& c : atoms) {
    pieces.push_back(c.ToPrettyString());
  }
  if (pieces.empty()) return "true";
  std::sort(pieces.begin(), pieces.end());
  std::string out = pieces[0];
  for (size_t i = 1; i < pieces.size(); ++i) out += " & " + pieces[i];
  return out;
}

}  // namespace cqlopt
