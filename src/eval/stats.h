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
  /// under both strategies. ResumeEvaluate appends one entry for its
  /// resumed iterations; its ingest pseudo-iteration belongs to no entry.
  std::vector<long> scc_iterations;
  /// Body-literal resolutions served by an equality probe of the
  /// per-position index (some argument position was directly bound to a
  /// symbol/number in the accumulated join state).
  long index_probes = 0;
  /// Resolutions that fell back to the linear scan: no position directly
  /// bound — unbound, or bound only through constraints (e.g. entailed by
  /// `X = N - 1 & N = 2` without a stored point equality).
  long scan_probes = 0;
  /// Rule applications run by the valuation join (rule_application.h: the
  /// rule compiled to a GroundPlan and every body relation ground tuples).
  /// A count, not a switch: which join runs is decided per application.
  long ground_applications = 0;
  /// Join candidate facts enumerated through index probes.
  long index_candidates = 0;
  /// Join candidate facts enumerated by fallback scans.
  long scan_candidates = 0;
  /// Candidates the replaced scans would have enumerated for the indexed
  /// probes; `index_candidates` vs this number attributes the index win.
  long indexed_scan_equivalent = 0;

  // --- Interval-index accounting (DESIGN.md §12): range probes of the
  // per-position indexes serving body-literal resolutions whose accumulated
  // state bounds a numeric position without pinning it to a point (e.g. a
  // pushed selection `T <= 60`). Zero when EvalOptions::interval_index is
  // off or no literal carries a usable range. ---

  /// Body-literal resolutions served by a range probe.
  long interval_probes = 0;
  /// Join candidate facts those probes enumerated.
  long interval_candidates = 0;
  /// Candidates the replaced scans would have enumerated — the interval
  /// pruning win is this number vs `interval_candidates`.
  long interval_scan_equivalent = 0;
  /// Range probes whose binary search rejected every sorted number of the
  /// probed position (no per-row work at all for those rows).
  long interval_runs_pruned = 0;
  /// Nanoseconds the evaluation spent building and sealing position
  /// indexes: the on-demand builds (IndexDemand, rule_application.h) plus
  /// Relation::Seal (sorting each iteration's new bound rows into the
  /// indexed positions, at entry and after every commit) — the price paid
  /// for the pruning, reported so benches can net it out.
  long interval_index_build_ns = 0;
  /// (relation, position) indexes built during the evaluation: positions
  /// candidate selection consulted more than once that were not indexed
  /// yet (DESIGN.md §12).
  long index_builds = 0;
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

  std::string ToString(const SymbolTable& symbols) const;
};

}  // namespace cqlopt

#endif  // CQLOPT_EVAL_STATS_H_
