#ifndef CQLOPT_TESTING_PROPERTIES_H_
#define CQLOPT_TESTING_PROPERTIES_H_

#include <map>
#include <string>
#include <vector>

#include "eval/database.h"
#include "eval/seminaive.h"
#include "testing/generator.h"

namespace cqlopt {
namespace testing {

/// The differential / metamorphic properties of the fuzzing subsystem. Each
/// property takes one generated FuzzCase and checks an equivalence the
/// system promises:
///
///   oracle_equiv        engine (semi-naive) ≡ the naive reference oracle
///   strategy_confluence naive oracle ≡ semi-naive ≡ stratified
///   rewrite_equiv       rewritten(P) ≡ P for pred / qrp / magic / balbin
///                       pipelines (Theorems 4.3, 6.2, 7.x empirically)
///   fm_projection       Fourier–Motzkin projection ≡ pointwise ∃-check on
///                       sampled rational points (halves catch strictness)
///   resume_scratch      ResumeEvaluate(base, delta) ≡ scratch(base ∪ delta)
///   retract_vs_scratch  RetractEvaluate(base, batch) ≡ scratch(EDB \ batch)
///                       — byte-identical facts, births, and traces, with
///                       miss counts exact for never-inserted and repeated
///                       batch entries, retraction idempotent, and RETRACT
///                       through the cqld protocol matching direct
///                       evaluation of the surviving EDB
///   service_roundtrip   cqld HandleLine answers ≡ direct evaluation, across
///                       an INGEST epoch bump
///   crash_recovery      recover(crash at any fail-point site) ≡ the
///                       never-crashed run — WAL batches whose record is
///                       durable survive, a torn tail is truncated, and the
///                       recovered service keeps serving (cqlfuzz --faults)
///   replica_vs_primary  a follower pulling the primary's WAL feed through
///                       any seeded fault schedule (dropped fetches, torn
///                       records, crashes around apply, node restarts,
///                       compaction renegotiation) is byte-identical to the
///                       primary once caught up — same RenderStateText,
///                       same answers at the same epoch, ASOF honoured at
///                       the head and typed UNAVAILABLE past it; PROMOTE
///                       after a primary kill drains the dead WAL's
///                       unconsumed suffix (no acknowledged write lost or
///                       resurrected); a tampered follower is quarantined
///                       at the next divergence check and refuses reads
///                       with typed DATA_LOSS (DESIGN.md §15)
///   interval_equiv      evaluation with interval-indexed probe pruning on
///                       ≡ off — byte-identical facts, births, traces, and
///                       core stats (the columnar interval index of
///                       DESIGN.md §12 only skips rows the per-tuple
///                       satisfiability check would reject)
///   scheduler_equiv     a random concurrent client schedule (disjoint
///                       INGEST batches racing QUERYs through the worker
///                       pool, 1/2/8 workers by seed) ≡ a serial replay of
///                       the same batches — same final answers, same epoch
///                       count, every in-flight response correctly framed
///                       (the scheduler of DESIGN.md §13 only reorders,
///                       never corrupts)
///
/// Outcomes are three-valued: ok, skipped (the comparison is not defined —
/// a fixpoint hit its iteration cap, or a pipeline cleanly rejected the
/// program), or failed with a human-readable message. Skips are expected
/// and counted separately; a failure always indicates a bug (in the engine
/// or, under --self-check, the planted one).

/// A bug deliberately injected into the pipeline under test so the harness
/// can prove it detects and shrinks real defects (cqlfuzz --self-check).
/// The production code is never touched: the mutation is applied to the
/// ApplyPipeline *output* inside rewrite_equiv.
enum class PlantedBug {
  kNone,
  /// Drops the last constraint atom of the first constrained rule of the
  /// "pred,qrp" rewrite — widening a rule, the classic unsound rewrite.
  kDropConstraintAtom,
  /// Drops the last rule of the "pred,qrp" rewrite — losing derivations,
  /// the classic incomplete rewrite.
  kDropRule,
};

/// "none" / "drop-constraint-atom" / "drop-rule" — the names `cqlfuzz
/// --self-check` prints and corpus `% bug:` headers store.
const char* PlantedBugName(PlantedBug bug);
/// Inverse of PlantedBugName; false on unknown names.
bool ParsePlantedBug(const std::string& name, PlantedBug* out);

struct FuzzOptions {
  /// Iteration cap for every engine evaluation a property runs. Generated
  /// programs stay in Section 5's termination class, so caps fire rarely;
  /// when one does, the property reports skipped, not failed.
  int eval_max_iterations = 48;
  SubsumptionMode subsumption = SubsumptionMode::kSingleFact;
  PlantedBug bug = PlantedBug::kNone;
};

struct PropertyOutcome {
  bool ok = true;
  bool skipped = false;
  std::string message;  // failure detail, or the reason for a skip

  static PropertyOutcome Ok() { return {}; }
  static PropertyOutcome Skip(std::string why) {
    return {true, true, std::move(why)};
  }
  static PropertyOutcome Fail(std::string why) {
    return {false, false, std::move(why)};
  }
};

using PropertyFn = PropertyOutcome (*)(const FuzzCase&, const FuzzOptions&);

struct PropertyInfo {
  const char* name;
  const char* summary;
  PropertyFn fn;
};

/// The property registry, in documentation order.
const std::vector<PropertyInfo>& AllProperties();

/// Looks a property up by name; nullptr if unknown.
const PropertyInfo* FindProperty(const std::string& name);

/// Loads the case's EDB facts into a Database (birth -1, verbatim).
Database BuildDatabase(const FuzzCase& c);

/// Flattens an evaluation result into per-predicate fact lists, the shape
/// oracle.h's SameDenotation compares.
std::map<PredId, std::vector<Fact>> EvalToMap(const EvalResult& result);

}  // namespace testing
}  // namespace cqlopt

#endif  // CQLOPT_TESTING_PROPERTIES_H_
