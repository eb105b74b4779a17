#ifndef CQLOPT_TRANSFORM_INFERENCE_LOOP_H_
#define CQLOPT_TRANSFORM_INFERENCE_LOOP_H_

#include <functional>
#include <map>
#include <set>

#include "transform/predicate_constraints.h"

/// Internal machinery shared by the three inference procedures:
/// Gen_predicate_constraints (predicate_constraints.h), Gen_QRP_constraints
/// (qrp_constraints.h) and the syntactic C-transformation generation
/// (balbin_c.h). Callers outside src/transform use those headers.
namespace cqlopt {
namespace transform_internal {

/// The constraint set of each predicate an inference step reads.
using ConstraintLookup = std::function<const ConstraintSet&(PredId)>;

/// One Single_step of an inference procedure: the constraints it infers
/// per predicate from the current approximations. The loop extends no
/// predicate in `settled`, so a step may skip inferring for them.
using InferenceStep = std::function<Result<std::map<PredId, ConstraintSet>>(
    const ConstraintLookup& current, const std::set<PredId>& settled)>;

/// Called when the iteration cap fires, with the last iterate in
/// `result->constraints` (read through `current`). It may replace them by a
/// sound fixpoint and set `converged`; otherwise the loop falls back to
/// `true`.
using CapContinuation = std::function<Status(const ConstraintLookup& current,
                                             InferenceResult* result)>;

/// The fixpoint loop every inference procedure runs (Appendix C), under its
/// own DecisionScope. Starting from `start`, it applies `step` and unions
/// each predicate's inferred disjuncts into its approximation unless they
/// are already implied ('marked'), until a whole step is marked. Predicates
/// in `settled` keep their start value; one exceeding
/// options.max_disjuncts becomes `true` and joins them. Predicates not in
/// `start` read as `outside` (default `true`). On hitting
/// options.max_iterations, `on_cap` (if any) may replace the last iterate;
/// otherwise every predicate becomes `true`.
Result<InferenceResult> IterateInference(
    std::map<PredId, ConstraintSet> start, std::set<PredId> settled,
    const std::map<PredId, ConstraintSet>& outside, const InferenceStep& step,
    const InferenceOptions& options, const CapContinuation& on_cap = nullptr);

/// The literal constraint, in argument-position form, that a QRP step
/// passes to body literal `lit` from `pool`: the rule's constraints
/// conjoined with the PTOL of one disjunct of its head's QRP constraint.
using LiteralConstraintFn = std::function<Result<Conjunction>(
    const Literal& lit, const Conjunction& pool)>;

/// Gen_QRP_constraints' fixpoint with the literal-constraint inference
/// supplied by the caller: GenQrpConstraints passes the projection of
/// Proposition 4.1, GenSyntacticQrpConstraints (balbin_c.h) a syntactic
/// selection.
Result<InferenceResult> GenQrpConstraintsWith(
    const Program& program, PredId query_pred, const InferenceOptions& options,
    const LiteralConstraintFn& literal_constraint);

}  // namespace transform_internal
}  // namespace cqlopt

#endif  // CQLOPT_TRANSFORM_INFERENCE_LOOP_H_
