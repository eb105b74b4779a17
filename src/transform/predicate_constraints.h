#ifndef CQLOPT_TRANSFORM_PREDICATE_CONSTRAINTS_H_
#define CQLOPT_TRANSFORM_PREDICATE_CONSTRAINTS_H_

#include <functional>
#include <map>

#include "ast/program.h"
#include "constraint/constraint_set.h"

namespace cqlopt {

/// Options shared by the two constraint-inference fixpoints.
struct InferenceOptions {
  /// Iteration cap. The fixpoints need not terminate (Theorems 3.1/3.3
  /// prove the finiteness question undecidable); on hitting the cap the
  /// procedure returns the trivially correct constraint `true` for every
  /// derived predicate, exactly the paper's fallback (Section 4.2).
  int max_iterations = 64;
  /// Cap on the number of disjuncts kept per predicate. Exceeding it
  /// widens that predicate's constraint to `true` — correct but
  /// uninformative, bounding the representation as Section 4.2 suggests.
  int max_disjuncts = 64;
};

/// Result of Gen_predicate_constraints / Gen_QRP_constraints.
struct InferenceResult {
  /// Constraint set per predicate, in argument-position form ($1..arity).
  std::map<PredId, ConstraintSet> constraints;
  /// False when the iteration or disjunct cap fired (constraints were
  /// widened to `true`, so they are still sound, just not minimum).
  bool converged = false;
  int iterations = 0;
  /// Decision-cache activity attributed to this inference run (the
  /// fixpoints re-decide the same implications every iteration, so the
  /// memo hit rate here is a direct measure of saved Fourier-Motzkin work).
  long cache_hits = 0;
  long cache_misses = 0;
  long cache_evictions = 0;
  /// Interval-prepass activity attributed to this inference run (DESIGN.md
  /// §11): decisions answered conclusively by bound propagation vs. probes
  /// that fell through to the exact cached Fourier–Motzkin tier.
  long prepass_conclusive = 0;
  long prepass_fallback = 0;
  /// Interval-index activity (DESIGN.md §12). Pure constraint inference
  /// stores no facts, so these stay zero here; they are populated when an
  /// InferenceResult is reported alongside an evaluation run (the --json
  /// bench writers copy the evaluation's EvalStats counters in so one
  /// record carries the whole pipeline's pruning story).
  long interval_probes = 0;
  long interval_candidates = 0;
  long interval_runs_pruned = 0;
};

/// Procedure Gen_predicate_constraints (Section 4.4, Appendix C): iterates
/// Single_step — for every rule and every choice of disjuncts for its body
/// predicates, infer the head constraint LTOP(head, Π(C_r ∧ ⋀ PTOL(...)))
/// — until the per-predicate constraint sets stabilize. On convergence the
/// result is the *minimum* predicate constraint per predicate
/// (Theorem 4.5).
///
/// `edb_constraints` supplies the minimum predicate constraints of database
/// predicates ("part of the input"); predicates absent from the map default
/// to `true`.
Result<InferenceResult> GenPredicateConstraints(
    const Program& program,
    const std::map<PredId, ConstraintSet>& edb_constraints,
    const InferenceOptions& options);

/// One application of Single_step (Appendix C): for every rule and every
/// choice of disjuncts from `constraint_of(body predicate)`, infers the
/// head constraint and disjoins it per head predicate. Exposed so the
/// widening extension (transform/widening.h) can drive the same inference.
Result<std::map<PredId, ConstraintSet>> PredicateSingleStep(
    const Program& program,
    const std::function<const ConstraintSet&(PredId)>& constraint_of);

/// Procedure Gen_Prop_predicate_constraints (Section 4.4, Appendix C):
/// computes predicate constraints and conjoins, for every body literal, the
/// PTOL of its predicate constraint into the rule — creating one rule copy
/// per choice of disjunct (footnote 4) and dropping unsatisfiable copies.
/// Equivalence is Theorem 4.6.
Result<Program> PropagatePredicateConstraints(
    const Program& program,
    const std::map<PredId, ConstraintSet>& edb_constraints,
    const InferenceOptions& options, InferenceResult* inference_out);

/// Propagation of *caller-supplied* predicate constraints (no inference):
/// associates the PTOL of constraints[p] with every body occurrence of p.
/// The caller asserts soundness (each set really is a predicate
/// constraint). This is how the paper's Example 4.4 / Table 2 works: the
/// minimum predicate constraint of fib has no finite representation, and
/// the paper hand-picks the *non-minimum* predicate constraint `$2 >= 1`
/// ("though not the minimum") to make the magic evaluation terminate.
Result<Program> PropagateGivenConstraints(
    const Program& program,
    const std::map<PredId, ConstraintSet>& constraints);

}  // namespace cqlopt

#endif  // CQLOPT_TRANSFORM_PREDICATE_CONSTRAINTS_H_
