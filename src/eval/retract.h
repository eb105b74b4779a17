#ifndef CQLOPT_EVAL_RETRACT_H_
#define CQLOPT_EVAL_RETRACT_H_

#include <vector>

#include "eval/seminaive.h"

namespace cqlopt {

/// DRed-style incremental maintenance (DESIGN.md §14): removes base (EDB)
/// facts from a finished evaluation and repairs the derived state so it
/// matches what evaluating the surviving base facts from scratch would
/// produce.
///
/// `base` must have reached its fixpoint (same precondition as
/// ResumeEvaluate; InvalidArgument otherwise). Each fact in `retracted` is
/// matched *structurally* (Fact::Key) against stored rows flagged as base
/// facts; requests that match nothing — retracting a fact that was never
/// inserted, was already retracted, or names a derived-only fact — are
/// counted in stats.retract_missing and otherwise ignored, so retraction
/// batches are idempotent.
///
/// Maintenance picks the cheapest sound path, recorded in
/// stats.retract_path:
///  - "noop"    nothing matched; the base is returned unchanged.
///  - "splice"  every deleted row could be removed in place: retracted
///              predicates no rule mentions, plus derived rows proven
///              removable by counting (support() == 1 with a dead witness
///              and nothing blocked) — no rule re-runs at all.
///  - "prefix"  the SCC linearization splits into a kept prefix (strata
///              untouched by the deletions, or repaired row-by-row via the
///              counting state for non-recursive strata) and a recomputed
///              suffix: derived rows of suffix strata are dropped
///              wholesale (the DRed over-deletion) and re-derived by the
///              stratified fixpoint starting mid-plan — the re-derivation
///              reuses the exact delta machinery of the semi-naive loop.
///  - "full"    the base is not a pure stratified evaluation (e.g. it was
///              extended by ResumeEvaluate) or traces cannot be split:
///              surviving base facts are rebuilt at birth -1 and evaluated
///              from scratch with `options`.
///
/// Equivalence contract: when `base` is exactly the result of
/// Evaluate(program, edb, options) with options.strategy == kStratified
/// (a "pure" base — service materializations right after a cold
/// evaluation, or any chain of RetractEvaluate calls on one), the result
/// is byte-identical — facts, row order, birth stamps, traces — to
/// Evaluate(program, surviving_edb, options), where surviving_edb holds
/// the surviving base facts in their original insertion order. This is
/// the retract_vs_scratch property of src/testing/properties.cc. For
/// impure bases the result is denotationally equal to that scratch run
/// (same facts per predicate, same answers) but may differ in row order
/// and birth stamps, exactly like ResumeEvaluate's contract.
///
/// Work counters (derivations / inserted / cache) accumulate on
/// top of the base's, reflecting the incremental work actually done — they
/// are NOT scratch-identical. iterations / scc_iterations /
/// reached_fixpoint / facts_per_pred / all_ground ARE scratch-identical on
/// pure bases, so a later ResumeEvaluate or RetractEvaluate composes.
Result<EvalResult> RetractEvaluate(const Program& program, EvalResult base,
                                   const std::vector<Fact>& retracted,
                                   const EvalOptions& options);

}  // namespace cqlopt

#endif  // CQLOPT_EVAL_RETRACT_H_
