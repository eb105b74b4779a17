#include "eval/rule_application.h"

#include "ast/arg_map.h"
#include "constraint/interval.h"
#include "util/failpoint.h"

namespace cqlopt {
namespace {

/// Per-literal birth restriction of one delta rotation
/// (DeltaMode::kDeltaRotated).
enum class BirthFilter : char {
  kAny,    // birth <= max_birth (the classic bound)
  kOld,    // birth <  max_birth — positions before the rotation's pivot
  kDelta,  // birth == max_birth — the pivot itself
};

struct JoinContext {
  const Rule* rule;
  const Database* db;
  int max_birth;
  DeltaMode delta;
  const EmitFn* emit;
  bool interval_index;
  EvalStats* stats;
  /// Per-enumeration-depth candidate buffers, owned by ApplyRule and reused
  /// across every probe at the same depth, so candidate materialization is
  /// amortized allocation-free. Distinct depths need distinct buffers: the
  /// recursion at depth d+1 probes while depth d is still iterating its
  /// list. Sized body.size(); null for body-free rules.
  std::vector<std::vector<size_t>>* scratch = nullptr;
  /// suffix_has_delta[i] — some literal j >= i references a relation whose
  /// max_birth() reaches max_birth, i.e. that literal MAY still contribute a
  /// delta fact (Relation::max_birth() never under-reports, so false means
  /// "provably cannot"). Sized body.size() + 1 under kDelta, empty
  /// otherwise.
  std::vector<char> suffix_has_delta = {};
  /// Rotation mode (null outside it): `order` maps enumeration depth to
  /// body-literal position — the pivot literal is enumerated first so its
  /// delta fact's bindings drive index probes for the rest — and `filter`
  /// gives each body-literal position its birth restriction.
  const std::vector<size_t>* order = nullptr;
  const std::vector<BirthFilter>* filter = nullptr;
};

Status EmitHead(const JoinContext& ctx, const Conjunction& accumulated,
                const std::vector<Relation::FactRef>& parents) {
  // Satisfiability and implication checks on this path (and in the
  // subsumption probes downstream) go through the two-tier decision
  // procedure: interval prepass first, exact cached FM on fallback
  // (DESIGN.md §11). Conjunction::IsSatisfiable and Implies route there.
  if (!accumulated.IsSatisfiable()) return Status::OK();
  CQLOPT_ASSIGN_OR_RETURN(Conjunction head_constraint,
                          LtopConjunction(ctx.rule->head, accumulated));
  if (!head_constraint.IsSatisfiable()) return Status::OK();
  // Canonical, redundancy-free constraints make subsumption checks cheaper
  // and give facts the minimal rendering the paper's tables use.
  head_constraint.Simplify();
  return (*ctx.emit)(Fact(ctx.rule->head.pred, ctx.rule->head.arity(),
                          std::move(head_constraint)),
                     parents);
}

/// Recursion over body literals (in `ctx.order` when rotating, body order
/// otherwise); `saw_delta` tracks whether any chosen fact was born exactly
/// at max_birth; `parents` records the chosen facts by body-literal
/// position.
Status JoinFrom(const JoinContext& ctx, size_t index,
                const Conjunction& accumulated, bool saw_delta,
                std::vector<Relation::FactRef>* parents) {
  if (index == ctx.rule->body.size()) {
    // A rotation carries its delta by construction (the pivot literal).
    if (ctx.delta == DeltaMode::kDelta && !saw_delta) return Status::OK();
    return EmitHead(ctx, accumulated, *parents);
  }
  const size_t lit_pos = ctx.order == nullptr ? index : (*ctx.order)[index];
  const Literal& lit = ctx.rule->body[lit_pos];
  const Relation* rel = ctx.db->Find(lit.pred);
  if (rel == nullptr) return Status::OK();
  // Remaining-delta pruning (classic order only): a combination without a
  // delta fact is discarded at the leaf, so once no remaining literal can
  // supply one the whole branch is dead — and when only THIS literal still
  // can, every non-delta entry of it is dead too. Both cuts remove only
  // leaf-rejected combinations, so the surviving derivations and their
  // order are untouched.
  BirthFilter filter = BirthFilter::kAny;
  if (ctx.order != nullptr) {
    filter = (*ctx.filter)[lit_pos];
  } else if (ctx.delta == DeltaMode::kDelta && !saw_delta) {
    if (!ctx.suffix_has_delta[index]) return Status::OK();
    if (ctx.suffix_has_delta[index + 1] == 0) filter = BirthFilter::kDelta;
  }
  std::map<VarId, VarId> to_args;
  for (int i = 0; i < lit.arity(); ++i) {
    to_args[i + 1] = lit.args[static_cast<size_t>(i)];
  }
  // Pre-compute the accumulated state's quick values per argument, so
  // candidate facts with a clashing directly-bound symbol or number can be
  // skipped without copying conjunctions or running satisfiability.
  std::vector<std::optional<SymbolId>> acc_symbol(
      static_cast<size_t>(lit.arity()));
  std::vector<std::optional<Rational>> acc_number(
      static_cast<size_t>(lit.arity()));
  for (int i = 0; i < lit.arity(); ++i) {
    VarId v = lit.args[static_cast<size_t>(i)];
    acc_symbol[static_cast<size_t>(i)] = accumulated.GetSymbol(v);
    acc_number[static_cast<size_t>(i)] = accumulated.QuickNumericValue(v);
  }
  // Size snapshot: the emit-visibility contract (rule_application.h) lets
  // callers append facts mid-application; those get row indexes >=
  // snapshot and birth > max_birth, so both enumeration paths below exclude
  // them.
  size_t snapshot = rel->size();
  auto try_entry = [&](size_t i) -> Status {
    int birth = rel->birth(i);
    if (birth > ctx.max_birth) return Status::OK();
    if (filter == BirthFilter::kDelta && birth != ctx.max_birth) {
      return Status::OK();
    }
    if (filter == BirthFilter::kOld && birth == ctx.max_birth) {
      return Status::OK();
    }
    const Fact& fact = rel->fact(i);
    if (fact.arity != lit.arity()) return Status::OK();
    bool clash = false;
    for (int a = 0; a < lit.arity(); ++a) {
      size_t ai = static_cast<size_t>(a);
      if (!acc_symbol[ai] && !acc_number[ai]) continue;
      switch (rel->tag(i, a + 1)) {
        case Relation::ColTag::kSymbol:
          // A symbol can never equal a number.
          clash = acc_number[ai].has_value() ||
                  *acc_symbol[ai] != rel->symbol_at(i, a + 1);
          break;
        case Relation::ColTag::kNumber:
          clash = acc_symbol[ai].has_value() ||
                  *acc_number[ai] != rel->number_at(i, a + 1);
          break;
        default:
          break;  // unbound / interval-ranged: no quick-value clash
      }
      if (clash) break;
    }
    if (clash) return Status::OK();
    Conjunction next = accumulated;
    Status st = next.AddConjunction(fact.constraint.Rename(to_args));
    if (!st.ok()) return st;
    if (next.known_unsat() || !next.IsSatisfiable()) return Status::OK();
    // Assigned by body-literal position (not enumeration depth): at the
    // leaf every position on the path has been written, so `parents` lists
    // the combination in body order whichever order enumerated it.
    (*parents)[lit_pos] = Relation::FactRef{lit.pred, i};
    return JoinFrom(ctx, index + 1, next,
                    saw_delta || birth == ctx.max_birth, parents);
  };
  // Access-path choice: probe the hash index at the most selective bound
  // position, falling back to the linear scan when no position is bound to
  // a unique value (unbound, or restricted only by non-point constraints).
  int probe_pos = 0;  // 1-based; 0 = scan fallback
  Relation::ArgSignature probe_value;
  std::vector<std::optional<Rational>> probe_number = acc_number;
  bool any_direct = false;
  for (int a = 0; a < lit.arity(); ++a) {
    size_t ai = static_cast<size_t>(a);
    if (acc_symbol[ai] || acc_number[ai]) any_direct = true;
  }
  if (!any_direct) {
    // No position is directly bound: before giving up on the index, try
    // to resolve point values that are only entailed (e.g. X = N - 1
    // after joining a fact with N = 2) with the exact projection. A
    // unique entailed value restricts the join exactly like a stored
    // equality, so probing with it skips only candidates the scan would
    // have discarded as unsatisfiable — same derivations, same order.
    // When some position is already directly bound the projections are
    // skipped: they cost a Fourier-Motzkin elimination per position, and
    // a direct probe already prunes well.
    for (int a = 0; a < lit.arity(); ++a) {
      size_t ai = static_cast<size_t>(a);
      if (probe_number[ai]) continue;
      probe_number[ai] =
          accumulated.GetNumericValue(lit.args[static_cast<size_t>(a)]);
    }
  }
  size_t best_cost = 0;
  for (int a = 0; a < lit.arity(); ++a) {
    size_t ai = static_cast<size_t>(a);
    if (!acc_symbol[ai] && !probe_number[ai]) continue;
    Relation::ArgSignature value{acc_symbol[ai], probe_number[ai]};
    size_t cost = rel->ProbeCost(a + 1, value);
    if (probe_pos == 0 || cost < best_cost) {
      probe_pos = a + 1;
      best_cost = cost;
      probe_value = value;
    }
  }
  // Mid-application emits may append to `rel` while the loops below run, and
  // an append can reallocate the very posting list Probe returned — so the
  // candidate ids are copied into this depth's reusable buffer first
  // (amortized allocation-free; ids < snapshot stay valid because row
  // storage is append-only).
  std::vector<size_t>& candidates = (*ctx.scratch)[index];
  if (probe_pos > 0) {
    const std::vector<size_t>& probed =
        rel->Probe(probe_pos, probe_value, snapshot, &candidates);
    if (&probed != &candidates) {
      candidates.assign(probed.begin(), probed.end());
    }
    if (ctx.stats != nullptr) {
      ++ctx.stats->index_probes;
      ctx.stats->index_candidates += static_cast<long>(candidates.size());
      ctx.stats->indexed_scan_equivalent += static_cast<long>(snapshot);
    }
    for (size_t i : candidates) {
      CQLOPT_RETURN_IF_ERROR(try_entry(i));
    }
    return Status::OK();
  }
  // No uniquely-bound position. Before falling back to the full scan, try
  // the interval index: a numeric position the accumulated state bounds to
  // a proper sub-range (a pushed selection like `T <= 60`, or bounds
  // propagated from already-joined facts) prunes every fact whose stored
  // point or bound summary lies outside the range — each such fact's
  // conjunction with the accumulated state is unsatisfiable, so only
  // leaf-rejected candidates are skipped and derivation order is preserved
  // (IntervalProbe re-sorts into insertion order).
  if (ctx.interval_index) {
    int ival_pos = 0;  // 1-based; 0 = nothing usable
    size_t ival_cost = 0;
    Interval ival_query;
    std::optional<IntervalDomain> domain;
    for (int a = 0; a < lit.arity(); ++a) {
      size_t ai = static_cast<size_t>(a);
      if (acc_symbol[ai]) continue;  // symbol-typed: no numeric range
      if (!rel->HasIntervalIndex(a + 1)) continue;
      if (!domain.has_value()) {
        domain = IntervalDomain::Propagate(accumulated.LinearWithEqualities());
        // The accumulated state passed a satisfiability check upstream, so
        // an empty box cannot occur; bail to the scan defensively if it
        // somehow does rather than prune on a meaningless domain.
        if (domain->definitely_empty()) break;
      }
      const Interval& iv = domain->Of(accumulated.Find(lit.args[ai]));
      if (iv.lower_infinite() && iv.upper_infinite()) continue;
      size_t cost = rel->IntervalProbeCost(a + 1, iv);
      if (ival_pos == 0 || cost < ival_cost) {
        ival_pos = a + 1;
        ival_cost = cost;
        ival_query = iv;
      }
    }
    if (ival_pos > 0 && ival_cost < snapshot &&
        !(domain.has_value() && domain->definitely_empty())) {
      long runs_pruned = 0;
      const std::vector<size_t>& probed = rel->IntervalProbe(
          ival_pos, ival_query, snapshot, &candidates, &runs_pruned);
      if (&probed != &candidates) {
        candidates.assign(probed.begin(), probed.end());
      }
      if (ctx.stats != nullptr) {
        ++ctx.stats->interval_probes;
        ctx.stats->interval_candidates += static_cast<long>(candidates.size());
        ctx.stats->interval_scan_equivalent += static_cast<long>(snapshot);
        ctx.stats->interval_runs_pruned += runs_pruned;
      }
      for (size_t i : candidates) {
        CQLOPT_RETURN_IF_ERROR(try_entry(i));
      }
      return Status::OK();
    }
  }
  if (ctx.stats != nullptr) {
    ++ctx.stats->scan_probes;
    ctx.stats->scan_candidates += static_cast<long>(snapshot);
  }
  for (size_t i = 0; i < snapshot; ++i) {
    CQLOPT_RETURN_IF_ERROR(try_entry(i));
  }
  return Status::OK();
}

}  // namespace

Status ApplyRule(const Rule& rule, const Database& db, int max_birth,
                 DeltaMode delta, bool interval_index, const EmitFn& emit,
                 EvalStats* stats) {
  // Fault-injection hook: an allocation failure while materializing this
  // rule's join state. Near-free when disarmed (util/failpoint.h).
  if (failpoint::ShouldFail(failpoint::kEvalRuleAlloc)) {
    return Status::ResourceExhausted(
        "injected allocation failure applying rule " +
        (rule.label.empty() ? std::string("<unlabeled>") : rule.label) +
        " (failpoint " + failpoint::kEvalRuleAlloc + ")");
  }
  JoinContext ctx{&rule, &db, max_birth, delta, &emit, interval_index, stats};
  if (rule.body.empty()) {
    return EmitHead(ctx, rule.constraints, {});
  }
  std::vector<std::vector<size_t>> scratch(rule.body.size());
  ctx.scratch = &scratch;
  // Delta capability per body literal: when no body relation's max_birth()
  // reaches max_birth, no combination can contain a delta fact, so the rule
  // derives nothing this iteration — skip before touching any index or
  // constraint machinery.
  std::vector<char> capable;
  if (delta != DeltaMode::kAll) {
    capable.resize(rule.body.size(), 0);
    bool any = false;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Relation* rel = db.Find(rule.body[i].pred);
      capable[i] =
          static_cast<char>(rel != nullptr && rel->max_birth() >= max_birth);
      any = any || capable[i] != 0;
    }
    if (!any) return Status::OK();
  }
  if (!rule.constraints.IsSatisfiable()) return Status::OK();
  std::vector<Relation::FactRef> parents(rule.body.size());
  if (delta == DeltaMode::kDeltaRotated) {
    // Delta rotations: one pass per delta-capable position p, enumerating
    // p's delta entries FIRST so their bindings turn the remaining literals
    // into index probes, with positions before p held to pre-delta facts.
    // Each delta-containing combination has exactly one first delta
    // position, so the rotations partition the classic enumeration — same
    // derivations, order grouped by pivot.
    std::vector<BirthFilter> filter(rule.body.size());
    std::vector<size_t> order(rule.body.size());
    for (size_t p = 0; p < rule.body.size(); ++p) {
      if (capable[p] == 0) continue;
      order[0] = p;
      for (size_t i = 0, at = 1; i < rule.body.size(); ++i) {
        if (i != p) order[at++] = i;
      }
      for (size_t i = 0; i < rule.body.size(); ++i) {
        filter[i] = i < p    ? BirthFilter::kOld
                    : i == p ? BirthFilter::kDelta
                             : BirthFilter::kAny;
      }
      ctx.order = &order;
      ctx.filter = &filter;
      CQLOPT_RETURN_IF_ERROR(
          JoinFrom(ctx, 0, rule.constraints, /*saw_delta=*/false, &parents));
    }
    return Status::OK();
  }
  if (delta == DeltaMode::kDelta) {
    ctx.suffix_has_delta.assign(rule.body.size() + 1, 0);
    for (size_t i = rule.body.size(); i-- > 0;) {
      ctx.suffix_has_delta[i] =
          static_cast<char>(capable[i] != 0 ||
                            ctx.suffix_has_delta[i + 1] != 0);
    }
  }
  return JoinFrom(ctx, 0, rule.constraints, /*saw_delta=*/false, &parents);
}

}  // namespace cqlopt
