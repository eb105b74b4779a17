#ifndef CQLOPT_EVAL_STATS_H_
#define CQLOPT_EVAL_STATS_H_

#include <map>
#include <string>
#include <vector>

#include "ast/symbol_table.h"

namespace cqlopt {

/// Counters of one bottom-up evaluation, the quantities the paper's
/// comparisons are phrased in: "the number of facts computed" and "the
/// number of derivations made" (Theorem 4.4, Section 4.6).
struct EvalStats {
  /// Successful rule firings (satisfiable head facts produced), whether or
  /// not the fact was new.
  long derivations = 0;
  /// Facts actually stored.
  long inserted = 0;
  /// Facts discarded because an existing fact subsumed them.
  long subsumed = 0;
  /// Facts discarded as structural duplicates.
  long duplicates = 0;
  /// Iterations executed (0-based count of the last iteration + 1).
  int iterations = 0;
  bool reached_fixpoint = false;
  /// True if every derived fact was ground (Theorem 4.4's property).
  bool all_ground = true;
  /// Stored facts per predicate.
  std::map<PredId, long> facts_per_pred;

  // --- Per-component and join-index accounting. The join counters stay 0
  // for paths that do not exercise them. ---

  /// Iterations spent per component of the evaluation plan, in evaluation
  /// order: per stratum in bottom-up topological order under
  /// EvalStrategy::kStratified (strata without rules are omitted), one
  /// entry under kSemiNaive. After Evaluate their sum equals `iterations`
  /// under both strategies; ResumeEvaluate adds iterations but no entries.
  std::vector<long> scc_iterations;
  /// Body-literal resolutions served by the per-position hash index (some
  /// argument position was directly bound to a symbol/number in the
  /// accumulated join state).
  long index_probes = 0;
  /// Resolutions that fell back to the linear scan: no position directly
  /// bound — unbound, or bound only through constraints (e.g. entailed by
  /// `X = N - 1 & N = 2` without a stored point equality).
  long scan_probes = 0;
  /// Join candidate facts enumerated through index probes.
  long index_candidates = 0;
  /// Join candidate facts enumerated by fallback scans.
  long scan_candidates = 0;
  /// Candidates the replaced scans would have enumerated for the indexed
  /// probes; `index_candidates` vs this number attributes the index win.
  long indexed_scan_equivalent = 0;

  // --- Interval-index accounting (DESIGN.md §12): the columnar per-position
  // interval indexes serving body-literal resolutions whose accumulated
  // state bounds a numeric position without pinning it to a point (e.g. a
  // pushed selection `T <= 60`). Zero when EvalOptions::interval_index is
  // off or no literal carries a usable range. ---

  /// Body-literal resolutions served by an interval-index probe.
  long interval_probes = 0;
  /// Join candidate facts those probes enumerated.
  long interval_candidates = 0;
  /// Candidates the replaced scans would have enumerated — the interval
  /// pruning win is this number vs `interval_candidates`.
  long interval_scan_equivalent = 0;
  /// Sealed sorted runs rejected wholesale by probe binary searches (no
  /// per-row work at all for those rows).
  long interval_runs_pruned = 0;
  /// Nanoseconds spent building interval-index state (insertion-time bound
  /// propagation, run sealing/merging) across the database's relations —
  /// the price paid for the pruning, reported so benches can net it out.
  long interval_index_build_ns = 0;
  /// Derivations per rule, keyed by rule label (or "rule#<index>" for
  /// unlabeled rules) — lets benches attribute wins rule by rule.
  std::map<std::string, long> derivations_per_rule;

  // --- Decision-cache accounting: the DecisionCache hits, misses and
  // evictions of this evaluation's own decisions, counted by its
  // DecisionScope (the cache itself is process-wide and shared). ---
  long cache_hits = 0;
  long cache_misses = 0;
  long cache_evictions = 0;

  // --- Resource-governance accounting (EvalOptions::{cancel, deadline_ms,
  // max_derived_facts}). Untouched when the evaluation runs to fixpoint or
  // hits only the iteration cap. ---

  /// True when the evaluation was aborted by a governance limit (deadline,
  /// fact budget, or cancellation) rather than finishing or being capped.
  bool aborted = false;
  /// Where the abort landed, e.g.
  /// "stratum 3/7, global iteration 12, 4831 facts stored". Empty unless
  /// `aborted`. The same text is embedded in the returned Status message.
  std::string abort_point;

  // --- Retraction accounting (eval/retract.h RetractEvaluate). Zero /
  // empty for plain evaluations. ---

  /// Base (EDB) rows removed by the retraction.
  long retracted_facts = 0;
  /// Retract requests that matched no stored base row (retracting a fact
  /// that was never inserted, or twice) — counted, never an error.
  long retract_missing = 0;
  /// Rows carried over from the base run without re-derivation (whole kept
  /// strata plus counting-spliced survivors).
  long retract_kept_rows = 0;
  /// Derived rows dropped for re-derivation (the DRed over-deletion).
  long retract_rederived_rows = 0;
  /// Which maintenance path the last RetractEvaluate took:
  /// "noop" / "splice" / "prefix" / "full". Empty for plain evaluations.
  std::string retract_path;

  std::string ToString(const SymbolTable& symbols) const;
};

}  // namespace cqlopt

#endif  // CQLOPT_EVAL_STATS_H_
