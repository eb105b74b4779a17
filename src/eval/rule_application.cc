#include "eval/rule_application.h"

#include <chrono>
#include <numeric>

#include "ast/arg_map.h"
#include "constraint/interval.h"
#include "util/failpoint.h"

namespace cqlopt {

/// The compiled form of a rule for the valuation join (CompileGroundPlan).
/// Slots are the constraint-root classes of the rule's variables, numbered
/// densely in first-mention order, so a rule with rewritten variable ids in
/// the thousands still gets a valuation of a handful of entries.
struct GroundPlan {
  /// One linear atom of the rule over slots: sum(coeff * slot) + constant
  /// op 0.
  struct Atom {
    std::vector<std::pair<size_t, Rational>> terms;
    Rational constant;
    CmpOp op;
  };
  /// After binding a literal: solve `atom` for `slot`, or check it
  /// (slot == kCheck) now that all its slots are bound.
  struct Step {
    size_t atom;
    size_t slot;
  };
  static constexpr size_t kCheck = static_cast<size_t>(-1);
  /// The steps of one enumeration order, per depth, and whether the
  /// partial state at that depth may be unsatisfiable through atoms that
  /// are not yet bound (see NeedsDecision).
  struct Schedule {
    std::vector<std::vector<Step>> after;
    std::vector<uint8_t> needs_decision;
  };

  std::vector<VarId> slot_root;     // per slot: the class root it stands for
  std::vector<uint8_t> arithmetic;  // per slot: mentioned by a linear atom
  std::vector<std::vector<size_t>> literal_slots;  // [body literal][position]
  std::vector<size_t> head_slots;
  std::vector<std::pair<size_t, SymbolId>> symbol_seeds;
  std::vector<Atom> atoms;
  /// Steps before any literal: the rule's own number bindings and what
  /// they solve.
  std::vector<Step> initial;
  /// schedules[p] enumerates pivot p first (a delta rotation);
  /// schedules[body.size()] is body order.
  std::vector<Schedule> schedules;
};

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
  IndexDemand* demand;  // null: build no index
  EvalStats* stats;
  /// Per-enumeration-depth candidate buffers, owned by ApplyRule and reused
  /// across every probe at the same depth, so candidate materialization is
  /// amortized allocation-free. Distinct depths need distinct buffers: the
  /// recursion at depth d+1 probes while depth d is still iterating its
  /// list. Sized body.size().
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

// ---------------------------------------------------------------------------
// Candidate selection, shared by both joins.

/// The birth restriction of the literal at enumeration depth `index`, or
/// nullopt when the branch is dead. Remaining-delta pruning (classic order
/// only): a combination without a delta fact is discarded at the leaf, so
/// once no remaining literal can supply one the whole branch is dead — and
/// when only THIS literal still can, every non-delta entry of it is dead
/// too. Both cuts remove only leaf-rejected combinations, so the surviving
/// derivations and their order are untouched.
std::optional<BirthFilter> FilterAt(const JoinContext& ctx, size_t index,
                                    size_t lit_pos, bool saw_delta) {
  if (ctx.order != nullptr) return (*ctx.filter)[lit_pos];
  if (ctx.delta == DeltaMode::kDelta && !saw_delta) {
    if (!ctx.suffix_has_delta[index]) return std::nullopt;
    if (ctx.suffix_has_delta[index + 1] == 0) return BirthFilter::kDelta;
  }
  return BirthFilter::kAny;
}

/// The birth and arity filters every candidate row passes before either
/// join looks at its values.
bool Admits(const JoinContext& ctx, const Relation& rel, size_t i,
            BirthFilter filter, int arity) {
  int birth = rel.birth(i);
  if (birth > ctx.max_birth) return false;
  if (filter == BirthFilter::kDelta && birth != ctx.max_birth) return false;
  if (filter == BirthFilter::kOld && birth == ctx.max_birth) return false;
  return rel.arity(i) == arity;
}

/// True if row `i`'s value columns clash with a position the accumulated
/// state binds directly (`acc_symbol` / `acc_number`): such a candidate is
/// skipped without touching the constraint machinery.
bool ClashesWithDirect(const Relation& rel, size_t i, int arity,
                       const std::vector<std::optional<SymbolId>>& acc_symbol,
                       const std::vector<std::optional<Rational>>& acc_number) {
  for (int a = 0; a < arity; ++a) {
    size_t ai = static_cast<size_t>(a);
    if (!acc_symbol[ai] && !acc_number[ai]) continue;
    switch (rel.tag(i, a + 1)) {
      case Relation::ColTag::kSymbol:
        // A symbol can never equal a number.
        if (acc_number[ai].has_value() ||
            *acc_symbol[ai] != rel.symbol_at(i, a + 1)) {
          return true;
        }
        break;
      case Relation::ColTag::kNumber:
        if (acc_symbol[ai].has_value() ||
            *acc_number[ai] != rel.number_at(i, a + 1)) {
          return true;
        }
        break;
      default:
        break;  // unbound / interval-ranged: no quick-value clash
    }
  }
  return false;
}

/// Reports candidate selection's consult of 1-based `position` of `lit`'s
/// relation `rel` to the evaluation's IndexDemand, unless the position is
/// indexed already. Each selection consults a position at most once, as it
/// asks the position's cost (or, for a lone bound position, before probing
/// it): the probe it makes follows.
void Consult(const JoinContext& ctx, const Literal& lit, const Relation& rel,
             int position) {
  if (ctx.demand != nullptr && !rel.indexed(position)) {
    ctx.demand->Consult(lit.pred, position, ctx.stats);
  }
}

/// Chooses the access path for the body literal `lit` at enumeration depth
/// `index` and returns its candidate rows — ascending (= insertion order) —
/// in that depth's scratch buffer, counting them into ctx.stats.
/// `acc_symbol` / `acc_number` are the positions the accumulated state binds
/// directly; `accumulated()` returns the accumulated conjunction and is
/// called only when they bind no position.
///
/// The position index is probed for equality at the most selective bound
/// position; failing that, for a range at the most selective numerically
/// ranged one; failing that, every row is scanned.
template <typename AccumulatedFn>
const std::vector<size_t>& SelectCandidates(
    const JoinContext& ctx, size_t index, const Literal& lit,
    const Relation& rel,
    const std::vector<std::optional<SymbolId>>& acc_symbol,
    const std::vector<std::optional<Rational>>& acc_number,
    const AccumulatedFn& accumulated) {
  // The probes write into this depth's reusable buffer (amortized
  // allocation-free).
  std::vector<size_t>& candidates = (*ctx.scratch)[index];
  const size_t rows = rel.size();
  bool any_direct = false;
  for (int a = 0; a < lit.arity(); ++a) {
    size_t ai = static_cast<size_t>(a);
    if (acc_symbol[ai] || acc_number[ai]) any_direct = true;
  }
  std::vector<std::optional<Rational>> entailed;
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
    entailed.resize(static_cast<size_t>(lit.arity()));
    for (int a = 0; a < lit.arity(); ++a) {
      entailed[static_cast<size_t>(a)] =
          accumulated().GetNumericValue(lit.args[static_cast<size_t>(a)]);
    }
  }
  const std::vector<std::optional<Rational>>& probe_number =
      any_direct ? acc_number : entailed;
  int bound_positions = 0;
  for (int a = 0; a < lit.arity(); ++a) {
    size_t ai = static_cast<size_t>(a);
    if (acc_symbol[ai] || probe_number[ai]) ++bound_positions;
  }
  int probe_pos = 0;  // 1-based; 0 = no bound position
  size_t best_cost = 0;
  Relation::ArgSignature probe_value;
  for (int a = 0; a < lit.arity(); ++a) {
    size_t ai = static_cast<size_t>(a);
    if (!acc_symbol[ai] && !probe_number[ai]) continue;
    Relation::ArgSignature value{acc_symbol[ai], probe_number[ai]};
    Consult(ctx, lit, rel, a + 1);
    // A lone bound position is probed whatever its cost.
    size_t cost = bound_positions > 1 ? rel.ProbeCost(a + 1, value) : 0;
    if (probe_pos == 0 || cost < best_cost) {
      probe_pos = a + 1;
      best_cost = cost;
      probe_value = value;
    }
  }
  if (probe_pos > 0) {
    rel.Probe(probe_pos, probe_value, &candidates);
    if (ctx.stats != nullptr) {
      ++ctx.stats->index_probes;
      ctx.stats->index_candidates += static_cast<long>(candidates.size());
      ctx.stats->indexed_scan_equivalent += static_cast<long>(rows);
    }
    return candidates;
  }
  // No uniquely-bound position. Before falling back to the full scan, try
  // a range probe: a numeric position the accumulated state bounds to
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
      if (!rel.CanRangePrune(a + 1)) continue;
      if (!domain.has_value()) {
        domain =
            IntervalDomain::Propagate(accumulated().LinearWithEqualities());
        // The accumulated state passed a satisfiability check upstream, so
        // an empty box cannot occur; bail to the scan defensively if it
        // somehow does rather than prune on a meaningless domain.
        if (domain->definitely_empty()) break;
      }
      const Interval& iv = domain->Of(accumulated().Find(lit.args[ai]));
      if (iv.lower_infinite() && iv.upper_infinite()) continue;
      Consult(ctx, lit, rel, a + 1);
      size_t cost = rel.IntervalProbeCost(a + 1, iv);
      if (ival_pos == 0 || cost < ival_cost) {
        ival_pos = a + 1;
        ival_cost = cost;
        ival_query = iv;
      }
    }
    if (ival_pos > 0 && ival_cost < rows &&
        !(domain.has_value() && domain->definitely_empty())) {
      long runs_pruned = 0;
      rel.IntervalProbe(ival_pos, ival_query, &candidates, &runs_pruned);
      if (ctx.stats != nullptr) {
        ++ctx.stats->interval_probes;
        ctx.stats->interval_candidates += static_cast<long>(candidates.size());
        ctx.stats->interval_scan_equivalent += static_cast<long>(rows);
        ctx.stats->interval_runs_pruned += runs_pruned;
      }
      return candidates;
    }
  }
  if (ctx.stats != nullptr) {
    ++ctx.stats->scan_probes;
    ctx.stats->scan_candidates += static_cast<long>(rows);
  }
  candidates.resize(rows);
  std::iota(candidates.begin(), candidates.end(), size_t{0});
  return candidates;
}

// ---------------------------------------------------------------------------
// The constraint join.

Status EmitHead(const JoinContext& ctx, const Conjunction& accumulated,
                const std::vector<Relation::FactRef>& parents) {
  // Satisfiability and implication checks on this path (and in the
  // subsumption probes downstream) are exact cached Fourier–Motzkin
  // decisions (DESIGN.md §11), through Conjunction::IsSatisfiable and
  // Implies.
  if (!accumulated.IsSatisfiable()) return Status::OK();
  CQLOPT_ASSIGN_OR_RETURN(Conjunction head_constraint,
                          LtopConjunction(ctx.rule->head, accumulated));
  if (!head_constraint.IsSatisfiable()) return Status::OK();
  // Canonical, redundancy-free constraints make subsumption checks cheaper
  // and give facts the minimal rendering the paper's tables use.
  head_constraint.Simplify();
  return (*ctx.emit)(Canonicalize(Fact(ctx.rule->head.pred,
                                       ctx.rule->head.arity(),
                                       std::move(head_constraint))),
                     parents);
}

/// The constraint join's view of one body literal under an accumulated
/// state: the literal's position-to-variable renaming, and the positions
/// the state binds directly.
struct LiteralView {
  std::map<VarId, VarId> to_args;
  std::vector<std::optional<SymbolId>> acc_symbol;
  std::vector<std::optional<Rational>> acc_number;
};

LiteralView ViewOf(const Literal& lit, const Conjunction& accumulated) {
  LiteralView view;
  size_t arity = static_cast<size_t>(lit.arity());
  view.acc_symbol.resize(arity);
  view.acc_number.resize(arity);
  for (size_t i = 0; i < arity; ++i) {
    VarId v = lit.args[i];
    view.to_args[static_cast<VarId>(i + 1)] = v;
    view.acc_symbol[i] = accumulated.GetSymbol(v);
    view.acc_number[i] = accumulated.QuickNumericValue(v);
  }
  return view;
}

Status JoinFrom(const JoinContext& ctx, size_t index,
                const Conjunction& accumulated, bool saw_delta,
                std::vector<Relation::FactRef>* parents);

/// One admitted candidate row of the constraint join: conjoins its
/// constraint with the accumulated state and, when satisfiable, recurses.
Status ConstraintStep(const JoinContext& ctx, size_t index, size_t lit_pos,
                      const LiteralView& view, const Conjunction& accumulated,
                      const Relation& rel, size_t i, bool saw_delta,
                      std::vector<Relation::FactRef>* parents) {
  const Literal& lit = ctx.rule->body[lit_pos];
  if (ClashesWithDirect(rel, i, lit.arity(), view.acc_symbol,
                        view.acc_number)) {
    return Status::OK();
  }
  Conjunction next = accumulated;
  // A ground row keeps no constraint: its point is built here, on demand.
  CQLOPT_RETURN_IF_ERROR(next.AddConjunction(
      rel.ground(i) ? Conjunction::Point(rel.tuple(i)).Rename(view.to_args)
                    : rel.constraint(i).Rename(view.to_args)));
  if (next.known_unsat() || !next.IsSatisfiable()) return Status::OK();
  // Assigned by body-literal position (not enumeration depth): at the leaf
  // every position on the path has been written, so `parents` lists the
  // combination in body order whichever order enumerated it.
  (*parents)[lit_pos] = Relation::FactRef{lit.pred, i};
  return JoinFrom(ctx, index + 1, next,
                  saw_delta || rel.birth(i) == ctx.max_birth, parents);
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
  std::optional<BirthFilter> filter = FilterAt(ctx, index, lit_pos, saw_delta);
  if (!filter.has_value()) return Status::OK();
  const LiteralView view = ViewOf(lit, accumulated);
  const std::vector<size_t>& candidates = SelectCandidates(
      ctx, index, lit, *rel, view.acc_symbol, view.acc_number,
      [&accumulated]() -> const Conjunction& { return accumulated; });
  for (size_t i : candidates) {
    if (!Admits(ctx, *rel, i, *filter, lit.arity())) continue;
    CQLOPT_RETURN_IF_ERROR(ConstraintStep(ctx, index, lit_pos, view,
                                          accumulated, *rel, i, saw_delta,
                                          parents));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The valuation join.

/// Propagates a static bound-slot set: repeatedly solves every equality
/// with exactly one unbound slot and checks every atom whose slots are all
/// bound, marking both done. Returns the steps in the order found.
std::vector<GroundPlan::Step> Propagate(const GroundPlan& plan,
                                        std::vector<uint8_t>* bound,
                                        std::vector<uint8_t>* done) {
  std::vector<GroundPlan::Step> steps;
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t k = 0; k < plan.atoms.size(); ++k) {
      if ((*done)[k] != 0) continue;
      size_t unknowns = 0;
      size_t unknown = 0;
      for (const auto& [slot, coeff] : plan.atoms[k].terms) {
        if ((*bound)[slot] == 0) {
          ++unknowns;
          unknown = slot;
        }
      }
      if (unknowns == 0) {
        steps.push_back({k, GroundPlan::kCheck});
        (*done)[k] = 1;
      } else if (unknowns == 1 && plan.atoms[k].op == CmpOp::kEq) {
        steps.push_back({k, unknown});
        (*bound)[unknown] = 1;
        (*done)[k] = 1;
        changed = true;
      }
    }
  }
  return steps;
}

/// Whether the partial state may be unsatisfiable although every checked
/// atom holds. Each pending atom (not yet checked or solved) that mentions
/// a bound slot must own a private unbound slot — one no other pending atom
/// mentions — for the answer to be "no": the pending atoms mentioning no
/// bound slot are jointly satisfiable (the rule's constraint is), and each
/// private slot can then satisfy its own atom whatever the bound values.
bool NeedsDecision(const GroundPlan& plan, const std::vector<uint8_t>& bound,
                   const std::vector<uint8_t>& done) {
  std::vector<int> uses(plan.slot_root.size(), 0);
  for (size_t k = 0; k < plan.atoms.size(); ++k) {
    if (done[k] != 0) continue;
    for (const auto& [slot, coeff] : plan.atoms[k].terms) {
      if (bound[slot] == 0) ++uses[slot];
    }
  }
  for (size_t k = 0; k < plan.atoms.size(); ++k) {
    if (done[k] != 0) continue;
    bool touches_bound = false;
    bool has_private = false;
    for (const auto& [slot, coeff] : plan.atoms[k].terms) {
      if (bound[slot] != 0) {
        touches_bound = true;
      } else if (uses[slot] == 1) {
        has_private = true;
      }
    }
    if (touches_bound && !has_private) return true;
  }
  return false;
}

/// The valuation join's state: one value per slot, an undo trail, and the
/// per-depth direct-binding buffers handed to candidate selection.
class Valuation {
 public:
  Valuation(const JoinContext& ctx, const GroundPlan& plan)
      : ctx_(ctx),
        plan_(plan),
        slots_(plan.slot_root.size()),
        acc_symbol_(ctx.rule->body.size()),
        acc_number_(ctx.rule->body.size()) {}

  /// Binds the rule's own symbols and numbers and runs the initial steps;
  /// false when they already fail (no derivation is possible).
  bool Seed() {
    for (const auto& [slot, symbol] : plan_.symbol_seeds) {
      slots_[slot] = Slot{true, true, false, PointValue::Symbol(symbol)};
    }
    bool ok = RunSteps(plan_.initial);
    trail_.clear();  // the seeded state is never undone
    return ok;
  }

  /// Enumerates the combinations of one order (schedule) from depth 0.
  Status Run(size_t schedule, std::vector<Relation::FactRef>* parents) {
    schedule_ = &plan_.schedules[schedule];
    parents_ = parents;
    return JoinFrom(0, /*saw_delta=*/false);
  }

 private:
  struct Slot {
    bool bound = false;
    /// Read by the access path as a direct binding: bound by the rule's own
    /// symbol/number binding or by a joined row (what GetSymbol /
    /// QuickNumericValue see in the constraint join's conjunction).
    bool direct = false;
    /// Bound by a joined row: the constraint join's conjunction holds the
    /// row's `X = c` / `X = @sym` atom for it.
    bool from_row = false;
    PointValue value;
  };
  struct Undo {
    size_t slot;
    Slot before;
  };
  enum class Bind { kOk, kClash, kHandOff };

  void Set(size_t slot, Slot next) {
    trail_.push_back({slot, slots_[slot]});
    slots_[slot] = std::move(next);
  }

  void UndoTo(size_t mark) {
    while (trail_.size() > mark) {
      slots_[trail_.back().slot] = std::move(trail_.back().before);
      trail_.pop_back();
    }
  }

  /// Binds `slot` to a row's value. kHandOff on a kind mismatch (the
  /// constraint join decides those: a clash skip or a TypeError); kClash
  /// when an already-bound slot holds a different value of the same kind.
  Bind BindFromRow(size_t slot, const PointValue& value) {
    const Slot& s = slots_[slot];
    if (!s.bound) {
      if (value.is_symbol && plan_.arithmetic[slot] != 0) {
        return Bind::kHandOff;
      }
      Set(slot, Slot{true, true, true, value});
      return Bind::kOk;
    }
    if (s.value.is_symbol != value.is_symbol) return Bind::kHandOff;
    if (s.value != value) return Bind::kClash;
    if (!s.from_row) Set(slot, Slot{true, true, true, value});
    return Bind::kOk;
  }

  /// Binds row `i`'s columns to the literal's slots. A clash with a slot
  /// bound directly before this row is the constraint join's pre-filter
  /// skip; any other value mismatch is its unsatisfiable conjunction — but
  /// a kind mismatch anywhere in the row makes it a hand-off, since there
  /// the constraint join may raise a TypeError first.
  Bind BindRow(const Relation& rel, size_t i, size_t index,
               const std::vector<size_t>& slots) {
    const int arity = static_cast<int>(slots.size());
    if (ClashesWithDirect(rel, i, arity, acc_symbol_[index],
                          acc_number_[index])) {
      return Bind::kClash;
    }
    Bind result = Bind::kOk;
    for (int a = 0; a < arity; ++a) {
      PointValue value =
          rel.tag(i, a + 1) == Relation::ColTag::kSymbol
              ? PointValue::Symbol(rel.symbol_at(i, a + 1))
              : PointValue::Number(rel.number_at(i, a + 1));
      Bind b = BindFromRow(slots[static_cast<size_t>(a)], value);
      if (b == Bind::kHandOff) return b;
      if (b == Bind::kClash) result = b;
    }
    return result;
  }

  /// Runs solve/check steps; false as soon as a checked atom is violated.
  bool RunSteps(const std::vector<GroundPlan::Step>& steps) {
    for (const GroundPlan::Step& step : steps) {
      const GroundPlan::Atom& atom = plan_.atoms[step.atom];
      Rational sum = atom.constant;
      Rational unknown_coeff;
      for (const auto& [slot, coeff] : atom.terms) {
        if (slot == step.slot) {
          unknown_coeff = coeff;
        } else {
          sum += coeff * slots_[slot].value.number;
        }
      }
      if (step.slot == GroundPlan::kCheck) {
        int sign = sum.sign();
        bool holds = atom.op == CmpOp::kEq   ? sign == 0
                     : atom.op == CmpOp::kLe ? sign <= 0
                                             : sign < 0;
        if (!holds) return false;
        continue;
      }
      // A single-variable equality is a direct binding, as QuickNumericValue
      // reads it; a solved multi-variable one is only entailed.
      Set(step.slot, Slot{true, atom.terms.size() == 1, false,
                          PointValue::Number(-sum / unknown_coeff)});
    }
    return true;
  }

  /// The constraint join's accumulated conjunction for the current state:
  /// the rule's constraint plus each joined row's bindings.
  Conjunction Accumulated() const {
    Conjunction acc = ctx_.rule->constraints;
    for (size_t slot = 0; slot < slots_.size(); ++slot) {
      const Slot& s = slots_[slot];
      if (!s.from_row) continue;
      VarId root = plan_.slot_root[slot];
      // Row-bound symbols sit only in non-arithmetic slots, and numbers in
      // slots no symbol reaches, so neither call can fail.
      if (s.value.is_symbol) {
        (void)acc.BindSymbol(root, s.value.symbol);
      } else {
        (void)acc.AddLinear(
            LinearConstraint(LinearExpr::Var(root) -
                                 LinearExpr::Constant(s.value.number),
                             CmpOp::kEq));
      }
    }
    return acc;
  }

  Status EmitLeaf() {
    GroundTuple tuple;
    tuple.reserve(plan_.head_slots.size());
    for (size_t slot : plan_.head_slots) tuple.push_back(slots_[slot].value);
    return (*ctx_.emit)(
        CanonicalFact::Ground(ctx_.rule->head.pred, std::move(tuple)),
        *parents_);
  }

  Status JoinFrom(size_t index, bool saw_delta) {
    const Rule& rule = *ctx_.rule;
    if (index == rule.body.size()) {
      if (ctx_.delta == DeltaMode::kDelta && !saw_delta) return Status::OK();
      return EmitLeaf();
    }
    const size_t lit_pos = ctx_.order == nullptr ? index : (*ctx_.order)[index];
    const Literal& lit = rule.body[lit_pos];
    const Relation* rel = ctx_.db->Find(lit.pred);
    if (rel == nullptr) return Status::OK();
    std::optional<BirthFilter> filter =
        FilterAt(ctx_, index, lit_pos, saw_delta);
    if (!filter.has_value()) return Status::OK();
    const std::vector<size_t>& slots = plan_.literal_slots[lit_pos];
    std::vector<std::optional<SymbolId>>& acc_symbol = acc_symbol_[index];
    std::vector<std::optional<Rational>>& acc_number = acc_number_[index];
    acc_symbol.assign(slots.size(), std::nullopt);
    acc_number.assign(slots.size(), std::nullopt);
    for (size_t a = 0; a < slots.size(); ++a) {
      const Slot& s = slots_[slots[a]];
      if (!s.direct) continue;
      if (s.value.is_symbol) {
        acc_symbol[a] = s.value.symbol;
      } else {
        acc_number[a] = s.value.number;
      }
    }
    // Rebuilt only when candidate selection or a hand-off needs it.
    std::optional<Conjunction> accumulated;
    auto state = [&]() -> const Conjunction& {
      if (!accumulated.has_value()) accumulated = Accumulated();
      return *accumulated;
    };
    const std::vector<size_t>& candidates = SelectCandidates(
        ctx_, index, lit, *rel, acc_symbol, acc_number, state);
    const std::vector<GroundPlan::Step>& steps = schedule_->after[index];
    const bool decide = schedule_->needs_decision[index] != 0;
    for (size_t i : candidates) {
      if (!Admits(ctx_, *rel, i, *filter, lit.arity())) continue;
      const size_t mark = trail_.size();
      Bind bound = BindRow(*rel, i, index, slots);
      if (bound == Bind::kHandOff) {
        UndoTo(mark);
        CQLOPT_RETURN_IF_ERROR(ConstraintStep(ctx_, index, lit_pos,
                                              ViewOf(lit, state()), state(),
                                              *rel, i, saw_delta, parents_));
        continue;
      }
      if (bound == Bind::kOk && RunSteps(steps) &&
          (!decide || Accumulated().IsSatisfiable())) {
        (*parents_)[lit_pos] = Relation::FactRef{lit.pred, i};
        CQLOPT_RETURN_IF_ERROR(
            JoinFrom(index + 1, saw_delta || rel->birth(i) == ctx_.max_birth));
      }
      UndoTo(mark);
    }
    return Status::OK();
  }

  const JoinContext& ctx_;
  const GroundPlan& plan_;
  const GroundPlan::Schedule* schedule_ = nullptr;
  std::vector<Relation::FactRef>* parents_ = nullptr;
  std::vector<Slot> slots_;
  std::vector<Undo> trail_;
  std::vector<std::vector<std::optional<SymbolId>>> acc_symbol_;  // [depth]
  std::vector<std::vector<std::optional<Rational>>> acc_number_;  // [depth]
};

}  // namespace

void IndexDemand::Consult(PredId pred, int position, EvalStats* stats) {
  if (++consults_[{pred, position}] < 2) return;
  auto start = std::chrono::steady_clock::now();
  db_->FindMutable(pred)->IndexPosition(position);
  if (stats != nullptr) {
    ++stats->index_builds;
    stats->interval_index_build_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
  }
}

std::shared_ptr<const GroundPlan> CompileGroundPlan(const Rule& rule) {
  const Conjunction& c = rule.constraints;
  if (c.known_unsat()) return nullptr;
  auto plan = std::make_shared<GroundPlan>();
  std::map<VarId, size_t> slot_of;  // class root -> slot
  auto slot = [&](VarId v) {
    VarId root = c.Find(v);
    auto [it, fresh] = slot_of.emplace(root, plan->slot_root.size());
    if (fresh) plan->slot_root.push_back(root);
    return it->second;
  };
  for (const Literal& lit : rule.body) {
    std::vector<size_t> slots;
    for (VarId v : lit.args) slots.push_back(slot(v));
    plan->literal_slots.push_back(std::move(slots));
  }
  for (VarId v : rule.head.args) plan->head_slots.push_back(slot(v));
  for (const auto& [root, symbol] : c.SymbolBindings()) {
    plan->symbol_seeds.emplace_back(slot(root), symbol);
  }
  for (const LinearConstraint& atom : c.linear()) {
    GroundPlan::Atom compiled{{}, atom.expr().constant(), atom.op()};
    for (const auto& [var, coeff] : atom.expr().coefficients()) {
      compiled.terms.emplace_back(slot(var), coeff);
    }
    plan->atoms.push_back(std::move(compiled));
  }
  const size_t slots = plan->slot_root.size();
  plan->arithmetic.assign(slots, 0);
  for (const GroundPlan::Atom& atom : plan->atoms) {
    for (const auto& [s, coeff] : atom.terms) plan->arithmetic[s] = 1;
  }

  std::vector<uint8_t> bound(slots, 0);
  std::vector<uint8_t> done(plan->atoms.size(), 0);
  for (const auto& [s, symbol] : plan->symbol_seeds) bound[s] = 1;
  plan->initial = Propagate(*plan, &bound, &done);

  const size_t n = rule.body.size();
  for (size_t pivot = 0; pivot <= n; ++pivot) {
    std::vector<size_t> order;
    if (pivot < n) order.push_back(pivot);
    for (size_t i = 0; i < n; ++i) {
      if (i != pivot) order.push_back(i);
    }
    std::vector<uint8_t> b = bound;
    std::vector<uint8_t> d = done;
    GroundPlan::Schedule schedule;
    for (size_t lit_pos : order) {
      for (size_t s : plan->literal_slots[lit_pos]) b[s] = 1;
      schedule.after.push_back(Propagate(*plan, &b, &d));
      schedule.needs_decision.push_back(NeedsDecision(*plan, b, d) ? 1 : 0);
    }
    // The static check (every order ends in the same state, so body order
    // decides it): every atom solved or checked, every head slot bound.
    if (pivot == n) {
      for (uint8_t atom_done : d) {
        if (atom_done == 0) return nullptr;
      }
      for (size_t s : plan->head_slots) {
        if (b[s] == 0) return nullptr;
      }
    }
    plan->schedules.push_back(std::move(schedule));
  }
  return plan;
}

Status ApplyRule(const Rule& rule, const GroundPlan* plan, const Database& db,
                 int max_birth, DeltaMode delta, bool interval_index,
                 IndexDemand* demand, const EmitFn& emit, EvalStats* stats) {
  // Fault-injection hook: an allocation failure while materializing this
  // rule's join state. Near-free when disarmed (util/failpoint.h).
  if (failpoint::ShouldFail(failpoint::kEvalRuleAlloc)) {
    return Status::ResourceExhausted(
        "injected allocation failure applying rule " +
        (rule.label.empty() ? std::string("<unlabeled>") : rule.label) +
        " (failpoint " + failpoint::kEvalRuleAlloc + ")");
  }
  JoinContext ctx{&rule,          &db,    max_birth, delta, &emit,
                  interval_index, demand, stats};
  // The valuation join applies when every body relation is ground tuples.
  bool ground = plan != nullptr;
  for (size_t i = 0; ground && i < rule.body.size(); ++i) {
    const Relation* rel = db.Find(rule.body[i].pred);
    ground = rel == nullptr || rel->AllGround();
  }
  if (rule.body.empty() && !ground) {
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
  std::optional<Valuation> valuation;
  if (ground) {
    if (stats != nullptr) ++stats->ground_applications;
    valuation.emplace(ctx, *plan);
    if (!valuation->Seed()) return Status::OK();
  }
  std::vector<Relation::FactRef> parents(rule.body.size());
  // One enumeration from depth 0; `schedule` names the order (the pivot of
  // a rotation, or body.size() for body order).
  auto join = [&](size_t schedule) -> Status {
    if (valuation.has_value()) return valuation->Run(schedule, &parents);
    return JoinFrom(ctx, 0, rule.constraints, /*saw_delta=*/false, &parents);
  };
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
      CQLOPT_RETURN_IF_ERROR(join(p));
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
  return join(rule.body.size());
}

}  // namespace cqlopt
