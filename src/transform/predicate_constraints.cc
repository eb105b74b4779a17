#include "transform/predicate_constraints.h"

#include <algorithm>

#include "ast/arg_map.h"
#include "ast/normalize.h"
#include "constraint/decision_scope.h"
#include "constraint/fourier_motzkin.h"
#include "constraint/implication.h"
#include "transform/inference_loop.h"

namespace cqlopt {

using transform_internal::CapContinuation;
using transform_internal::ConstraintLookup;
using transform_internal::InferenceStep;
using transform_internal::IterateInference;

namespace {

/// Recursion over body literals enumerating one disjunct per literal,
/// accumulating the conjunction; calls `leaf` with the full conjunction.
Status ForEachDisjunctChoice(
    const Rule& rule, size_t index, const ConstraintLookup& constraint_of,
    const Conjunction& accumulated,
    const std::function<Status(const Conjunction&)>& leaf) {
  if (index == rule.body.size()) return leaf(accumulated);
  const Literal& lit = rule.body[index];
  const ConstraintSet& set = constraint_of(lit.pred);
  for (const Conjunction& disjunct : set.disjuncts()) {
    Conjunction next = accumulated;
    CQLOPT_RETURN_IF_ERROR(
        next.AddConjunction(PtolConjunction(lit, disjunct)));
    if (next.known_unsat() || !next.IsSatisfiable()) continue;
    CQLOPT_RETURN_IF_ERROR(
        ForEachDisjunctChoice(rule, index + 1, constraint_of, next, leaf));
  }
  return Status::OK();
}

/// Single_step of Gen_predicate_constraints (Appendix C): for every rule
/// with an unsettled head and every choice of disjuncts from
/// `constraint_of(body predicate)`, infers the head constraint and disjoins
/// it per head predicate.
Result<std::map<PredId, ConstraintSet>> PredicateSingleStep(
    const Program& program, const ConstraintLookup& constraint_of,
    const std::set<PredId>& settled) {
  std::map<PredId, ConstraintSet> inferred;
  for (const Rule& rule : program.rules) {
    if (settled.count(rule.head.pred) > 0) continue;
    auto leaf = [&](const Conjunction& conj) -> Status {
      CQLOPT_ASSIGN_OR_RETURN(Conjunction head_c,
                              LtopConjunction(rule.head, conj));
      head_c.Simplify();
      inferred[rule.head.pred].AddDisjunct(head_c);
      return Status::OK();
    };
    CQLOPT_RETURN_IF_ERROR(
        ForEachDisjunctChoice(rule, 0, constraint_of, rule.constraints, leaf));
  }
  return inferred;
}

/// Gen_predicate_constraints' start and step: `false` for every derived
/// predicate, then PredicateSingleStep.
std::map<PredId, ConstraintSet> DerivedFalse(const Program& program) {
  std::map<PredId, ConstraintSet> start;
  for (PredId p : program.DerivedPredicates()) {
    start[p] = ConstraintSet::False();
  }
  return start;
}
InferenceStep PredicateStep(const Program& program) {
  return [&program](const ConstraintLookup& current,
                    const std::set<PredId>& settled) {
    return PredicateSingleStep(program, current, settled);
  };
}

/// Candidate atoms of a disjunct: its linear atoms with equalities also
/// contributed as both one-sided relaxations, so the hull can pick up
/// monotone trends across point facts ({$2=1} ∨ {$2=2} → $2 >= 1).
std::vector<LinearConstraint> CandidateAtoms(const Conjunction& d) {
  std::vector<LinearConstraint> out;
  for (const LinearConstraint& atom : d.LinearWithEqualities()) {
    if (atom.op() == CmpOp::kEq) {
      out.emplace_back(atom.expr(), CmpOp::kLe);
      out.emplace_back(-atom.expr(), CmpOp::kLe);
    }
    out.push_back(atom);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The standard widening operator: the atoms and symbol bindings of
/// `old_hull` that `new_hull` still implies (the rest were transient).
Conjunction Widen(const Conjunction& old_hull, const Conjunction& new_hull) {
  Conjunction widened;
  for (const LinearConstraint& atom : old_hull.LinearWithEqualities()) {
    if (fm::ImpliesAtom(new_hull.LinearWithEqualities(), atom)) {
      (void)widened.AddLinear(atom);
    }
  }
  for (const auto& [root, symbol] : old_hull.SymbolBindings()) {
    auto bound = new_hull.GetSymbol(root);
    if (bound.has_value() && *bound == symbol) {
      (void)widened.BindSymbol(root, symbol);
    }
  }
  widened.Simplify();
  return widened;
}

/// PropagatePredicateConstraints' continuation when the exact iteration
/// hits its budget: collapses the last iterate to hulls, widens for at most
/// `max_iterations` Single_steps, and sets `converged` only if the result
/// is verified inductive.
Status WidenLastIterate(const Program& program, int max_iterations,
                        const ConstraintLookup& current,
                        InferenceResult* result) {
  for (auto& [p, set] : result->constraints) {
    set = ConstraintSet::Of(HullOf(set));
  }
  for (int i = 0; i < max_iterations; ++i) {
    ++result->iterations;
    CQLOPT_ASSIGN_OR_RETURN(auto inferred,
                            PredicateSingleStep(program, current, {}));
    bool changed = false;
    for (auto& [p, set] : result->constraints) {
      auto it = inferred.find(p);
      if (it == inferred.end()) continue;
      // New approximation: old ∨ inferred, collapsed to its hull.
      ConstraintSet joined = set;
      joined.UnionWith(it->second);
      Conjunction new_hull = HullOf(joined);
      if (set.is_false()) {
        if (!new_hull.known_unsat()) {
          set = ConstraintSet::Of(std::move(new_hull));
          changed = true;
        }
        continue;
      }
      Conjunction widened = Widen(set.disjuncts()[0], new_hull);
      if (!Equivalent(widened, set.disjuncts()[0])) {
        set = ConstraintSet::Of(std::move(widened));
        changed = true;
      }
    }
    if (changed) continue;
    // Candidate post-fixpoint: one more step must stay within it.
    CQLOPT_ASSIGN_OR_RETURN(auto check,
                            PredicateSingleStep(program, current, {}));
    for (const auto& [p, set] : check) {
      if (!set.Implies(current(p))) return Status::OK();
    }
    result->converged = true;
    return Status::OK();
  }
  return Status::OK();
}

}  // namespace

Result<InferenceResult> transform_internal::IterateInference(
    std::map<PredId, ConstraintSet> start, std::set<PredId> settled,
    const std::map<PredId, ConstraintSet>& outside, const InferenceStep& step,
    const InferenceOptions& options, const CapContinuation& on_cap) {
  DecisionScope decisions({});
  InferenceResult result;
  result.constraints = std::move(start);
  const ConstraintSet kTrue = ConstraintSet::True();
  const ConstraintLookup current = [&](PredId p) -> const ConstraintSet& {
    auto it = result.constraints.find(p);
    if (it != result.constraints.end()) return it->second;
    auto o = outside.find(p);
    return o == outside.end() ? kTrue : o->second;
  };
  bool capped_disjuncts = false;
  for (int iteration = 0; iteration < options.max_iterations; ++iteration) {
    result.iterations = iteration + 1;
    CQLOPT_ASSIGN_OR_RETURN(auto inferred, step(current, settled));  // C2
    bool all_marked = true;
    for (const auto& [p, set] : inferred) {
      auto it = result.constraints.find(p);
      if (it == result.constraints.end() || settled.count(p) > 0) continue;
      ConstraintSet& approx = it->second;
      if (set.Implies(approx)) continue;  // 'marked'
      approx.UnionWith(set);
      all_marked = false;
      if (static_cast<int>(approx.disjuncts().size()) >
          options.max_disjuncts) {
        approx = ConstraintSet::True();
        settled.insert(p);
        capped_disjuncts = true;
      }
    }
    if (all_marked) {
      result.converged = result.exact = !capped_disjuncts;
      decisions.AddTo(&result);
      return result;
    }
  }
  if (on_cap) CQLOPT_RETURN_IF_ERROR(on_cap(current, &result));
  if (!result.converged) {
    // The paper's terminating fallback (Section 4.2): `true` is trivially
    // a predicate constraint and a QRP constraint.
    for (auto& [p, set] : result.constraints) set = ConstraintSet::True();
  }
  decisions.AddTo(&result);
  return result;
}

Result<InferenceResult> GenPredicateConstraints(
    const Program& program,
    const std::map<PredId, ConstraintSet>& edb_constraints,
    const InferenceOptions& options) {
  return IterateInference(DerivedFalse(program), {}, edb_constraints,
                          PredicateStep(program), options);
}

Result<Program> PropagatePredicateConstraints(
    const Program& program,
    const std::map<PredId, ConstraintSet>& edb_constraints,
    const InferenceOptions& options, InferenceResult* inference_out) {
  InferenceOptions exact = options;
  exact.max_iterations =
      std::min(options.max_iterations, kExactIterationBudget);
  auto widen = [&](const ConstraintLookup& current, InferenceResult* result) {
    return WidenLastIterate(program, options.max_iterations, current, result);
  };
  CQLOPT_ASSIGN_OR_RETURN(
      InferenceResult inference,
      IterateInference(DerivedFalse(program), {}, edb_constraints,
                       PredicateStep(program), exact, widen));
  std::map<PredId, ConstraintSet> constraints = inference.constraints;
  constraints.insert(edb_constraints.begin(), edb_constraints.end());
  if (inference_out != nullptr) *inference_out = std::move(inference);
  return PropagateGivenConstraints(program, constraints);
}

Result<Program> PropagateGivenConstraints(
    const Program& program,
    const std::map<PredId, ConstraintSet>& constraints) {
  const ConstraintSet kTrue = ConstraintSet::True();
  auto constraint_of = [&](PredId p) -> const ConstraintSet& {
    auto it = constraints.find(p);
    return it == constraints.end() ? kTrue : it->second;
  };
  Program out(program.symbols);
  out.arities = program.arities;
  for (const Rule& rule : program.rules) {
    // One rule copy per choice of disjunct per body literal (footnote 4).
    int counter = 0;
    auto leaf = [&](const Conjunction& conj) -> Status {
      Rule copy = rule;
      copy.constraints = conj;
      if (counter > 0) {
        copy.label = rule.label + "_" + std::to_string(counter);
      }
      ++counter;
      out.rules.push_back(std::move(copy));
      return Status::OK();
    };
    CQLOPT_RETURN_IF_ERROR(
        ForEachDisjunctChoice(rule, 0, constraint_of, rule.constraints, leaf));
  }
  DeduplicateRules(&out);
  return out;
}

Conjunction HullOf(const ConstraintSet& set) {
  std::vector<const Conjunction*> live;
  for (const Conjunction& d : set.disjuncts()) {
    if (d.IsSatisfiable()) live.push_back(&d);
  }
  if (live.empty()) return Conjunction::False();
  // Candidates from every disjunct; keep those implied by all of them.
  std::vector<LinearConstraint> candidates;
  for (const Conjunction* d : live) {
    std::vector<LinearConstraint> atoms = CandidateAtoms(*d);
    candidates.insert(candidates.end(), atoms.begin(), atoms.end());
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<std::vector<LinearConstraint>> disjunct_atoms;
  disjunct_atoms.reserve(live.size());
  for (const Conjunction* d : live) {
    disjunct_atoms.push_back(d->LinearWithEqualities());
  }
  Conjunction hull;
  for (const LinearConstraint& candidate : candidates) {
    bool everywhere = true;
    for (const auto& atoms : disjunct_atoms) {
      if (!fm::ImpliesAtom(atoms, candidate)) {
        everywhere = false;
        break;
      }
    }
    if (everywhere) (void)hull.AddLinear(candidate);
  }
  // Shared symbol bindings survive the hull too.
  for (const auto& [root, symbol] : live[0]->SymbolBindings()) {
    bool everywhere = true;
    for (const Conjunction* d : live) {
      auto bound = d->GetSymbol(root);
      if (!bound.has_value() || *bound != symbol) everywhere = false;
    }
    if (everywhere) (void)hull.BindSymbol(root, symbol);
  }
  hull.Simplify();
  return hull;
}

}  // namespace cqlopt
