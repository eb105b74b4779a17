#ifndef CQLOPT_TRANSFORM_PREDICATE_CONSTRAINTS_H_
#define CQLOPT_TRANSFORM_PREDICATE_CONSTRAINTS_H_

#include <map>

#include "ast/program.h"
#include "constraint/constraint_set.h"

namespace cqlopt {

/// Options shared by the constraint-inference fixpoints.
struct InferenceOptions {
  /// Iteration cap. The fixpoints need not terminate (Theorems 3.1/3.3
  /// prove the finiteness question undecidable); on hitting the cap
  /// Gen_predicate_constraints and Gen_QRP_constraints return the trivially
  /// correct constraint `true` for every predicate, exactly the paper's
  /// fallback (Section 4.2). PropagatePredicateConstraints caps its exact
  /// phase lower still (kExactIterationBudget) and widens instead.
  int max_iterations = 64;
  /// Cap on the number of disjuncts kept per predicate. Exceeding it
  /// widens that predicate's constraint to `true` — correct but
  /// uninformative, bounding the representation as Section 4.2 suggests.
  int max_disjuncts = 64;
};

/// Result of an inference procedure.
struct InferenceResult {
  /// Constraint set per predicate, in argument-position form ($1..arity).
  std::map<PredId, ConstraintSet> constraints;
  /// True when `constraints` is a fixpoint of the procedure's Single_step:
  /// either the exact one (see `exact`) or, from the pred step's widening,
  /// a single conjunction per predicate that one more Single_step was
  /// verified to stay inside — sound, but not minimum. False when a cap
  /// fired and constraints were widened to `true` (still sound).
  bool converged = false;
  /// True when the exact iteration converged, so `constraints` are the
  /// minimum ones (Theorems 4.5/4.7); implies `converged`.
  bool exact = false;
  int iterations = 0;
  /// Decision-cache activity attributed to this inference run (the
  /// fixpoints re-decide the same implications every iteration, so the
  /// memo hit rate here is a direct measure of saved Fourier-Motzkin work).
  long cache_hits = 0;
  long cache_misses = 0;
  long cache_evictions = 0;
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

/// Exact Single_step iterations PropagatePredicateConstraints runs before it
/// widens. Every input of the rewrite corpus and of the generated pool
/// whose exact iteration converges does so within 11 iterations.
inline constexpr int kExactIterationBudget = 12;

/// Procedure Gen_Prop_predicate_constraints (Section 4.4, Appendix C): the
/// pipeline's `pred` step. Computes predicate constraints, then propagates
/// them as PropagateGivenConstraints does (Theorem 4.6).
///
/// **Extension beyond the paper.** Gen_predicate_constraints need not
/// terminate (Theorem 3.1), so the exact iteration runs at most
/// kExactIterationBudget times. If it has not converged by then, the last
/// iterate is widened, as in abstract interpretation:
///   1. collapse each predicate's disjunction to its hull (HullOf);
///   2. iterate with the standard widening operator — keep only the hull
///      atoms the next approximation still implies — until nothing drops;
///   3. keep the candidate only if one more Single_step stays within it
///      (it is then a predicate constraint), else fall back to `true`.
/// On the backward-Fibonacci program this derives ($1 >= 0 & $2 >= 1),
/// which implies the constraint the paper hand-picks in Example 4.4.
/// `inference_out`, if non-null, receives the constraints inferred.
Result<Program> PropagatePredicateConstraints(
    const Program& program,
    const std::map<PredId, ConstraintSet>& edb_constraints,
    const InferenceOptions& options, InferenceResult* inference_out);

/// Propagation of *caller-supplied* predicate constraints (no inference):
/// associates the PTOL of constraints[p] with every body occurrence of p,
/// creating one rule copy per choice of disjunct (footnote 4) and dropping
/// unsatisfiable copies. The caller asserts soundness (each set really is a
/// predicate constraint). This is how the paper's Example 4.4 / Table 2
/// works: the paper hand-picks the *non-minimum* predicate constraint
/// `$2 >= 1` ("though not the minimum") to make the magic evaluation
/// terminate.
Result<Program> PropagateGivenConstraints(
    const Program& program,
    const std::map<PredId, ConstraintSet>& constraints);

/// The hull of a constraint set: the strongest single conjunction of
/// candidate atoms (the disjuncts' atoms plus relaxations of their
/// equalities, so {$2 = 1} ∨ {$2 = 2} hulls to $2 >= 1) implied by every
/// disjunct; Conjunction::False() for the empty set.
Conjunction HullOf(const ConstraintSet& set);

}  // namespace cqlopt

#endif  // CQLOPT_TRANSFORM_PREDICATE_CONSTRAINTS_H_
