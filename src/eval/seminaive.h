#ifndef CQLOPT_EVAL_SEMINAIVE_H_
#define CQLOPT_EVAL_SEMINAIVE_H_

#include <string>
#include <vector>

#include "ast/program.h"
#include "eval/database.h"
#include "eval/stats.h"
#include "util/cancel.h"

namespace cqlopt {

/// Evaluation plan. Both strategies run the same semi-naive fixpoint loop
/// with the same joins (hash-index probes, interval pruning, scan fallback;
/// rule_application.h); the strategy only decides how the rules are grouped
/// into components, so the two reach the same fixpoint and differ in
/// iteration numbering on programs with more than one SCC.
enum class EvalStrategy {
  /// One component holding every rule: derivations in iteration i use at
  /// least one fact first derived in iteration i-1, across the whole
  /// program — the evaluation the paper's tables trace. Runs until an
  /// iteration adds nothing.
  kSemiNaive,
  /// SCC-stratified semi-naive: the predicate dependency graph is condensed
  /// into strongly connected components and one semi-naive fixpoint runs
  /// per component in bottom-up topological order, so facts of lower strata
  /// are computed once and frozen instead of being re-joined every global
  /// iteration; a non-recursive stratum takes a single pass. Iteration
  /// numbering is global across strata (trace[i] / birth stamps keep their
  /// meaning) and `max_iterations` caps the global total. When a program is
  /// a single SCC (e.g. the Table 1/2 magic programs) the evaluation and
  /// its trace coincide with kSemiNaive's.
  kStratified,
};

/// Options of the bottom-up fixpoint. Evaluate/ResumeEvaluate validate the
/// numeric fields (a negative `max_iterations`, `deadline_ms` or
/// `max_derived_facts` is rejected with InvalidArgument rather than looping
/// undefinedly). Evaluation runs on the calling thread.
struct EvalOptions {
  /// Hard cap on iterations — CQL evaluation need not terminate (the
  /// paper's Table 1 program runs forever); the cap turns divergence into
  /// an observable `reached_fixpoint == false`. Must be >= 0; 0 means "run
  /// no iterations" (the EDB alone is returned, fixpoint not reached).
  int max_iterations = 256;
  SubsumptionMode subsumption = SubsumptionMode::kSingleFact;
  EvalStrategy strategy = EvalStrategy::kSemiNaive;
  /// Record per-iteration derivation lists (the format of Tables 1 and 2).
  bool record_trace = false;
  /// Interval-indexed candidate pruning (DESIGN.md §12): when true
  /// (default), body literals with no uniquely-bound position — where an
  /// equality probe cannot help — range-probe the relations' per-position
  /// indexes with the accumulated state's interval box, binary-searching
  /// past the stored values a pushed range selection rules out. Only
  /// candidates the leaf satisfiability check would reject are skipped and
  /// enumeration order is preserved, so toggling this never changes facts,
  /// births, or traces — only wall-clock and the interval_* counters.
  bool interval_index = true;

  // --- Resource governance. The three limits below are checked
  // cooperatively: at iteration boundaries, at rule-batch boundaries, and
  // (for deadline/cancel) every ~64 derivations inside rule application.
  // An abort inside an iteration discards that iteration's buffered
  // derivations, so nothing half-commits. A governed abort returns a typed
  // error Status (kDeadlineExceeded / kResourceExhausted / kCancelled)
  // whose message pinpoints the stratum, global iteration, and facts
  // stored; `abort_stats` receives the partial counters. All limits are
  // off by default, costing one branch per derivation. ---

  /// Cooperative cancellation handle. Default-constructed tokens are inert;
  /// pass CancelToken::Cancellable() and call RequestCancel() from any
  /// thread to abort the evaluation with kCancelled.
  CancelToken cancel;
  /// Wall-clock budget in milliseconds, measured from the Evaluate /
  /// ResumeEvaluate entry on a monotonic clock; on expiry the evaluation
  /// aborts with kDeadlineExceeded. Must be >= 0; 0 means no deadline.
  long deadline_ms = 0;
  /// Budget on facts *stored by this call* (EvalStats::inserted growth;
  /// ResumeEvaluate counts only the resumed portion). Checked at the
  /// iteration boundary, so the abort point — and the partial database — is
  /// the same whatever the decision tiers. Exceeding it aborts with
  /// kResourceExhausted. Must be >= 0; 0 means unlimited. Since every
  /// stored fact has bounded footprint this doubles as the memory budget.
  long max_derived_facts = 0;
  /// When a governed abort (or an injected eval/rule-alloc fault) makes
  /// Evaluate/ResumeEvaluate return an error, the partial EvalStats — with
  /// `aborted` and `abort_point` set — are copied here, because the
  /// Result carries no EvalResult on failure. Untouched on success. May be
  /// null (the default) when the caller only needs the Status.
  EvalStats* abort_stats = nullptr;
};

/// One derivation event in the trace.
struct Derivation {
  std::string rule_label;
  std::string fact;  // rendered via Fact::ToString
  InsertOutcome outcome;
};

struct EvalResult {
  /// EDB + derived facts.
  Database db;
  /// trace[i] lists the derivations made in iteration i (only when
  /// record_trace was set). Subsumed/duplicate derivations are included,
  /// marked by their outcome — the paper's boldface rows.
  std::vector<std::vector<Derivation>> trace;
  EvalStats stats;
};

/// Semi-naive bottom-up evaluation of `program` over `edb` (Section 2):
///  - iteration 0 fires the program's constraint facts (body-free rules)
///    and rules whose bodies are satisfiable purely from EDB facts;
///  - iteration i > 0 makes every derivation that uses at least one fact
///    first derived in iteration i-1, using only facts known at the end of
///    iteration i-1;
///  - stops at a fixpoint (an iteration adding no new facts) or at the cap.
/// `options.strategy` picks the components this discipline runs over
/// (EvalStrategy); EvalStats::scc_iterations gets one entry per component
/// run.
Result<EvalResult> Evaluate(const Program& program, const Database& edb,
                            const EvalOptions& options);

/// Incremental fact ingestion: resumes a *completed* evaluation after a
/// batch of new EDB facts arrives, instead of recomputing the fixpoint from
/// scratch. The batch is inserted with birth = `base.stats.iterations` (the
/// next unused iteration stamp — every existing fact is older), and the
/// semi-naive loop continues with the delta discipline: each resumed
/// iteration makes exactly the derivations that use at least one fact first
/// seen in the previous one, so work is proportional to the consequences of
/// the batch, not to the whole database. Because CQL evaluation is monotone
/// (no negation; subsumption only prunes covered representations), the
/// resumed fixpoint denotes the same fact set as a from-scratch evaluation
/// of the union EDB — per predicate, each result's facts are covered by the
/// disjunction of the other's (tests/test_service.cc locks this against
/// EvalStrategy::kStratified across the program corpus and both
/// SubsumptionModes).
///
/// `base` is consumed and extended: stats accumulate on top (iterations
/// keeps global numbering, and scc_iterations gains one entry for the
/// resumed run; when record_trace was set, one empty trace row marks the
/// ingest pseudo-iteration so trace[i] still lists iteration i's
/// derivations). `options.strategy` is ignored — the resume always runs
/// the kSemiNaive plan, every rule in one component, with delta rotations
/// (rule_application.h: each rule is driven from its delta facts, so within
/// an iteration derivations arrive grouped by pivot position rather than in
/// body-enumeration order); `max_iterations` caps the *resumed* iterations,
/// and governance limits abort it exactly as they abort Evaluate, with
/// `max_derived_facts` counting only the facts the resume stores.
/// Preconditions: `base` reached its fixpoint (resuming a capped run would
/// silently drop the unexplored frontier — InvalidArgument), and options
/// are valid.
///
/// Batch facts that structurally duplicate stored facts are dropped (as a
/// from-scratch load would drop them); if nothing of the batch is new, the
/// base result is returned unchanged.
Result<EvalResult> ResumeEvaluate(const Program& program, EvalResult base,
                                  const std::vector<Fact>& delta,
                                  const EvalOptions& options);

/// Renders `trace` in the style of Tables 1 and 2: one row per iteration,
/// subsumed derivations wrapped in `*...*` (the paper's boldface).
std::string RenderTrace(const std::vector<std::vector<Derivation>>& trace);

}  // namespace cqlopt

#endif  // CQLOPT_EVAL_SEMINAIVE_H_
