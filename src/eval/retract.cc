#include "eval/retract.h"

#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <utility>

#include "constraint/decision_scope.h"
#include "eval/fixpoint.h"

namespace cqlopt {
namespace {

using eval_internal::FactsSoFar;
using eval_internal::FinalizeStats;
using eval_internal::Governor;
using eval_internal::PlanFor;
using eval_internal::RunStrata;
using eval_internal::StratifiedPlan;

constexpr size_t kDeadRow = std::numeric_limits<size_t>::max();

/// Per-predicate deletion masks, parallel to the relation's rows. A
/// predicate is "dirty" exactly when it has an entry here (every entry has
/// at least one marked row by construction).
using DeadMasks = std::map<PredId, std::vector<uint8_t>>;

bool IsDead(const DeadMasks& dead, PredId pred, size_t row) {
  auto it = dead.find(pred);
  return it != dead.end() && row < it->second.size() && it->second[row] != 0;
}

/// True if the derived fact set of the base is unchanged by the deletions:
/// no dirty predicate appears in any rule head or body, so the rules cannot
/// observe the difference and rows can be removed in place.
bool RulesMention(const Program& program, const DeadMasks& dead) {
  for (const Rule& rule : program.rules) {
    if (dead.count(rule.head.pred) > 0) return true;
    for (const Literal& lit : rule.body) {
      if (dead.count(lit.pred) > 0) return true;
    }
  }
  return false;
}

/// True when `base` is shaped exactly like one Evaluate(kStratified) run of
/// `plan`: the recorded per-stratum iterations tile the global iteration
/// range with one entry per rule-bearing component. Bases extended by
/// ResumeEvaluate fail this and take the "full" path: their ingest
/// pseudo-iteration belongs to no entry, and the resumed run's entry is one
/// more than the plan has rule-bearing components.
bool PureStratifiedShape(const StratifiedPlan& plan, const EvalResult& base,
                         const EvalOptions& options) {
  if (options.strategy != EvalStrategy::kStratified) return false;
  long sum = std::accumulate(base.stats.scc_iterations.begin(),
                             base.stats.scc_iterations.end(), long{0});
  if (sum != base.stats.iterations) return false;
  size_t rule_bearing = 0;
  for (const auto& rules : plan.rules_of) {
    if (!rules.empty()) ++rule_bearing;
  }
  if (base.stats.scc_iterations.size() != rule_bearing) return false;
  // With tracing requested the kept prefix must be a prefix of the trace
  // too; a base whose trace rows do not line up iteration-for-iteration
  // (e.g. evaluated without record_trace) cannot be split.
  if (options.record_trace &&
      base.trace.size() != static_cast<size_t>(base.stats.iterations)) {
    return false;
  }
  return true;
}

/// True if every derived (non-base) stored row is ground — recomputed from
/// storage after a splice, since deletions can remove the only non-ground
/// derived rows and scratch evaluation would then report all_ground again.
bool StoredDerivedAllGround(const Database& db) {
  for (const auto& [pred, rel] : db.relations()) {
    (void)pred;
    for (size_t i = 0; i < rel.size(); ++i) {
      if (!rel.edb(i) && !rel.ground(i)) return false;
    }
  }
  return true;
}

}  // namespace

Result<EvalResult> RetractEvaluate(const Program& program, EvalResult base,
                                   const std::vector<Fact>& retracted,
                                   const EvalOptions& options) {
  CQLOPT_RETURN_IF_ERROR(eval_internal::CheckEvalOptions(program, options));
  if (!base.stats.reached_fixpoint) {
    return Status::InvalidArgument(
        "RetractEvaluate requires a base evaluation that reached its "
        "fixpoint (deleting from a truncated result could \"repair\" facts "
        "the base never finished deriving); the base stopped at global "
        "iteration " +
        std::to_string(base.stats.iterations) + "; " + FactsSoFar(base) +
        "; re-evaluate from scratch instead");
  }

  EvalResult result = std::move(base);

  // Match the batch against stored base rows. Only rows flagged EDB are
  // deletable — naming a derived fact (or a fact never inserted, or one
  // already deleted by an earlier entry of this very batch) just counts as
  // missing, keeping retraction batches idempotent.
  DeadMasks dead;
  long matched = 0;
  for (const Fact& f : retracted) {
    const Relation* rel = result.db.Find(f.pred);
    std::optional<size_t> row;
    if (rel != nullptr) row = rel->RowOf(f);
    if (!row.has_value() || !rel->edb(*row)) {
      ++result.stats.retract_missing;
      continue;
    }
    std::vector<uint8_t>& mask = dead[f.pred];
    if (mask.empty()) mask.assign(rel->size(), 0);
    if (mask[*row] != 0) {
      ++result.stats.retract_missing;
      continue;
    }
    mask[*row] = 1;
    ++matched;
  }
  result.stats.retracted_facts += matched;
  if (matched == 0) {
    result.stats.retract_path = "noop";
    return result;
  }

  // Scratch evaluation with record_trace off carries no trace; drop a
  // base's leftover trace up front so every path below agrees.
  if (!options.record_trace) result.trace.clear();

  // --- Path "splice" (rule-blind): the deleted rows live in predicates no
  // rule mentions, so the derived fact set cannot change. Sound for any
  // base, pure or not — no re-derivation, no plan needed. No stored row can
  // reference rows of an unmentioned predicate (parents come from rule
  // bodies), so no remap is needed either.
  if (!RulesMention(program, dead)) {
    Database db;
    db.set_epoch(result.db.epoch());
    for (const auto& [pred, rel] : result.db.relations()) {
      auto it = dead.find(pred);
      if (it == dead.end()) {
        *db.FindMutable(pred) = rel;  // copy-on-write chunk sharing
        continue;
      }
      Relation spliced = rel.Spliced(it->second, /*remap=*/nullptr);
      if (!spliced.empty()) *db.FindMutable(pred) = std::move(spliced);
    }
    result.db = std::move(db);
    result.stats.retract_kept_rows +=
        static_cast<long>(result.db.TotalFacts());
    result.stats.retract_path = "splice";
    FinalizeStats(&result);
    result.stats.all_ground = StoredDerivedAllGround(result.db);
    return result;
  }

  StratifiedPlan plan = PlanFor(program, options.strategy);

  // --- Path "full": the base is not one pure stratified evaluation, so
  // there is no kept-prefix structure to exploit. Rebuild the surviving
  // base facts (original insertion order, birth -1) and evaluate from
  // scratch — by construction this IS the scratch run the differential
  // property compares against.
  if (!PureStratifiedShape(plan, result, options)) {
    Database edb;
    edb.set_epoch(result.db.epoch());
    long base_derived = 0;
    for (const auto& [pred, rel] : result.db.relations()) {
      for (size_t i = 0; i < rel.size(); ++i) {
        if (!rel.edb(i)) {
          ++base_derived;
        } else if (!IsDead(dead, pred, i)) {
          edb.AddFact(rel.fact(i));
        }
      }
    }
    long missing = result.stats.retract_missing;
    long total_matched = result.stats.retracted_facts;
    Result<EvalResult> rebuilt = Evaluate(program, edb, options);
    if (!rebuilt.ok()) return rebuilt.status();
    rebuilt->stats.retracted_facts = total_matched;
    rebuilt->stats.retract_missing = missing;
    rebuilt->stats.retract_kept_rows =
        static_cast<long>(edb.TotalFacts());
    rebuilt->stats.retract_rederived_rows = base_derived;
    rebuilt->stats.retract_path = "full";
    return rebuilt;
  }

  // --- Kept-prefix walk. Components are visited bottom-up; `dead` grows as
  // counting deletions cascade, and the first stratum that cannot be
  // repaired row-by-row starts the recomputed suffix. Row-level splicing is
  // only attempted when no trace must be reproduced (removing a derived row
  // removes trace entries scratch evaluation would also lack — but the kept
  // iterations' remaining lists could interleave differently, so tracing
  // always goes through the suffix).
  const bool allow_row_splice = !options.record_trace && result.trace.empty();
  const size_t component_count = plan.component_count();
  size_t suffix_start = component_count;
  size_t scc_idx = 0;       // cursor into base scc_iterations
  int prefix_iters = 0;     // global iterations covered by kept strata
  for (size_t c = 0; c < component_count; ++c) {
    if (plan.rules_of[c].empty()) continue;  // pure-EDB: masks handled below
    const long iters = result.stats.scc_iterations[scc_idx];
    bool touched = false;
    for (size_t rule_index : plan.rules_of[c]) {
      const Rule& rule = program.rules[rule_index];
      if (dead.count(rule.head.pred) > 0) touched = true;
      for (const Literal& lit : rule.body) {
        if (dead.count(lit.pred) > 0) touched = true;
      }
    }
    if (!touched) {
      // Reads and writes only clean predicates: scratch evaluation runs
      // this stratum on identical inputs and stores identical rows.
      prefix_iters += static_cast<int>(iters);
      ++scc_idx;
      continue;
    }
    // Counting repair (non-recursive strata only): a single-predicate
    // stratum that converged in one pass derived every row from frozen
    // lower strata, so each row's recorded parents are its first witness
    // and deletion needs no fixpoint — drop rows whose only witness died,
    // keep the rest, in unchanged relative order.
    bool spliced = false;
    if (allow_row_splice && plan.recursive[c] == 0 && iters == 1 &&
        plan.sccs.components()[c].size() == 1) {
      const PredId written = plan.sccs.components()[c][0];
      const Relation* rel = result.db.Find(written);
      bool ok = true;
      std::vector<uint8_t> mask;
      bool any_deleted = false;
      if (rel != nullptr) {
        auto it = dead.find(written);
        if (it != dead.end()) {
          mask = it->second;
          mask.resize(rel->size(), 0);
        } else {
          mask.assign(rel->size(), 0);
        }
        for (size_t i = 0; i < rel->size() && ok; ++i) {
          if (rel->edb(i)) {
            // A deleted base row that was also rule-derived (support > 1)
            // would resurrect as a derived row in scratch; one that
            // subsumed derivations (blocked > 0) suppressed facts scratch
            // would store. Either way: re-derive.
            if (mask[i] != 0 &&
                (rel->support(i) != 1 || rel->blocked(i) != 0)) {
              ok = false;
            }
            if (mask[i] != 0) any_deleted = true;
            continue;
          }
          bool witness_alive = true;
          for (const Relation::FactRef& parent : rel->parents(i)) {
            if (IsDead(dead, parent.pred, parent.index)) {
              witness_alive = false;
              break;
            }
          }
          if (witness_alive) continue;
          if (rel->support(i) == 1 && rel->blocked(i) == 0) {
            mask[i] = 1;  // only witness died: counting deletion
            any_deleted = true;
          } else {
            ok = false;  // other witnesses (or suppressed facts) may survive
          }
        }
      }
      if (ok) {
        if (any_deleted) {
          dead[written] = std::move(mask);
        }
        prefix_iters += static_cast<int>(iters);
        ++scc_idx;
        spliced = true;
      }
    }
    if (!spliced) {
      suffix_start = c;
      break;
    }
  }
  const size_t prefix_rule_entries = scc_idx;

  // Rebuild the database: kept strata spliced in place (parent references
  // remapped through the survivors), suffix strata stripped to their
  // surviving base rows — the DRed over-deletion — for re-derivation.
  std::map<PredId, std::vector<size_t>> row_map;  // old row -> new row
  for (const auto& [pred, mask] : dead) {
    int comp = plan.sccs.ComponentOf(pred);
    if (comp >= 0 && static_cast<size_t>(comp) >= suffix_start) continue;
    const Relation* rel = result.db.Find(pred);
    std::vector<size_t>& map = row_map[pred];
    map.assign(rel->size(), kDeadRow);
    size_t next = 0;
    for (size_t i = 0; i < rel->size(); ++i) {
      if (i < mask.size() && mask[i] != 0) continue;
      map[i] = next++;
    }
  }
  auto remap = [&row_map](Relation::FactRef ref) {
    auto it = row_map.find(ref.pred);
    if (it != row_map.end()) ref.index = it->second[ref.index];
    return ref;
  };

  Database db;
  db.set_epoch(result.db.epoch());
  long rederived = 0;
  for (const auto& [pred, rel] : result.db.relations()) {
    int comp = plan.sccs.ComponentOf(pred);
    if (comp >= 0 && static_cast<size_t>(comp) >= suffix_start) {
      // Suffix: keep only surviving base rows. Base rows carry no parents,
      // so no remap is needed; re-derivation records fresh provenance.
      std::vector<uint8_t> mask(rel.size(), 0);
      size_t kept = 0;
      for (size_t i = 0; i < rel.size(); ++i) {
        if (!rel.edb(i)) {
          mask[i] = 1;
          ++rederived;
        } else if (IsDead(dead, pred, i)) {
          mask[i] = 1;
        } else {
          ++kept;
        }
      }
      if (kept == 0) continue;
      *db.FindMutable(pred) = rel.Spliced(mask, /*remap=*/nullptr);
      continue;
    }
    auto it = dead.find(pred);
    if (it == dead.end()) {
      *db.FindMutable(pred) = rel;  // untouched: copy-on-write chunk sharing
      continue;
    }
    Relation spliced = rel.Spliced(it->second, remap);
    if (!spliced.empty()) *db.FindMutable(pred) = std::move(spliced);
  }
  result.db = std::move(db);
  result.stats.retract_kept_rows += static_cast<long>(result.db.TotalFacts());
  result.stats.retract_rederived_rows += rederived;

  // The kept prefix defines the resumption point: iteration numbering,
  // per-stratum history, and (when tracing) the trace rows of the kept
  // iterations are exactly scratch's.
  result.stats.iterations = prefix_iters;
  result.stats.scc_iterations.resize(prefix_rule_entries);
  if (options.record_trace) {
    result.trace.resize(static_cast<size_t>(prefix_iters));
  }
  result.stats.all_ground = StoredDerivedAllGround(result.db);

  if (suffix_start == component_count) {
    // Every touched stratum was repaired row-by-row: no rules to re-run.
    result.stats.reached_fixpoint = true;
    result.stats.retract_path = "splice";
    FinalizeStats(&result);
    return result;
  }

  // --- Path "prefix": re-derive the suffix with the ordinary stratified
  // fixpoint, resumed mid-plan at the first unrepairable stratum. As in
  // Evaluate/ResumeEvaluate, a DecisionScope collects the run's
  // decision-cache counts.
  result.stats.retract_path = "prefix";
  DecisionScope decisions({});
  Governor governor(options, /*baseline_inserted=*/result.stats.inserted);
  CQLOPT_RETURN_IF_ERROR(RunStrata(program, plan, suffix_start, prefix_iters,
                                   options.max_iterations, options, &governor,
                                   &result));
  decisions.AddTo(&result.stats);
  return result;
}

}  // namespace cqlopt
