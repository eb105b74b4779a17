#include "ast/normalize.h"

#include <algorithm>
#include <set>

namespace cqlopt {

VarAllocator MakeAllocator(const Program& program) {
  return VarAllocator(std::max(program.MaxVar() + 1, 1024));
}

Rule MakeBridgeRule(PredId head_pred, PredId body_pred, int arity,
                    VarAllocator* alloc, const std::string& label) {
  Rule rule;
  rule.label = label;
  std::vector<VarId> args;
  args.reserve(static_cast<size_t>(arity));
  for (int i = 0; i < arity; ++i) {
    VarId v = alloc->Fresh();
    rule.var_names[v] = "X" + std::to_string(i + 1);
    args.push_back(v);
  }
  rule.head = Literal(head_pred, args);
  rule.body.push_back(Literal(body_pred, args));
  return rule;
}

std::string RuleCanonicalKey(const Rule& rule) {
  // Renumber variables by first occurrence (head, then body, then
  // constraints) into a reserved id range, then render canonically.
  std::map<VarId, VarId> renumber;
  VarId next = 1 << 20;
  auto visit = [&](VarId v) {
    if (renumber.emplace(v, next).second) ++next;
  };
  for (VarId v : rule.head.args) visit(v);
  for (const Literal& lit : rule.body) {
    for (VarId v : lit.args) visit(v);
  }
  for (VarId v : rule.constraints.Vars()) visit(v);
  std::string key = std::to_string(rule.head.pred);
  auto append_literal = [&](const Literal& lit) {
    key += "|" + std::to_string(lit.pred) + "(";
    for (VarId v : lit.args) key += std::to_string(renumber.at(v)) + ",";
    key += ")";
  };
  append_literal(rule.head);
  for (const Literal& lit : rule.body) append_literal(lit);
  key += "#" + rule.constraints.Rename(renumber).ToString();
  return key;
}

int DeduplicateRules(Program* program) {
  std::set<std::string> seen;
  std::vector<Rule> kept;
  kept.reserve(program->rules.size());
  int removed = 0;
  for (Rule& rule : program->rules) {
    if (seen.insert(RuleCanonicalKey(rule)).second) {
      kept.push_back(std::move(rule));
    } else {
      ++removed;
    }
  }
  program->rules = std::move(kept);
  return removed;
}

bool IsRuleRangeRestricted(const Rule& rule) {
  std::set<VarId> bound;
  for (const Literal& lit : rule.body) {
    for (VarId v : lit.args) bound.insert(rule.constraints.Find(v));
  }
  // Symbol-bound and numerically-fixed classes count as bound; then close
  // under functional determination by equality atoms.
  for (const auto& [root, symbol] : rule.constraints.SymbolBindings()) {
    bound.insert(root);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const LinearConstraint& atom : rule.constraints.linear()) {
      if (atom.op() != CmpOp::kEq) continue;
      VarId unbound_var = kNoVar;
      int unbound_count = 0;
      for (VarId v : atom.Vars()) {
        if (bound.count(rule.constraints.Find(v)) == 0) {
          unbound_var = rule.constraints.Find(v);
          ++unbound_count;
        }
      }
      if (unbound_count == 1) {
        bound.insert(unbound_var);
        changed = true;
      }
    }
  }
  for (VarId v : rule.head.args) {
    VarId root = rule.constraints.Find(v);
    if (bound.count(root) > 0) continue;
    // A variable fixed to a single numeric value is also ground.
    if (rule.constraints.GetNumericValue(v).has_value()) continue;
    return false;
  }
  return true;
}

bool IsRangeRestricted(const Program& program) {
  for (const Rule& rule : program.rules) {
    if (!IsRuleRangeRestricted(rule)) return false;
  }
  return true;
}

}  // namespace cqlopt
