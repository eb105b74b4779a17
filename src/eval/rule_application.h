#ifndef CQLOPT_EVAL_RULE_APPLICATION_H_
#define CQLOPT_EVAL_RULE_APPLICATION_H_

#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "ast/rule.h"
#include "eval/database.h"
#include "eval/stats.h"

namespace cqlopt {

/// Callback receiving each fact derived by a rule application, in canonical
/// form with its groundness decided (eval/fact.h), along with the body facts
/// that derived it (in body-literal order) — the provenance edges of
/// Definition 2.2's derivation trees. A ground derivation arrives as its
/// predicate and value tuple only: no Conjunction is built for it, and a
/// callback that renders it or reads its constraint builds the point
/// itself (CanonicalFact::ToFact).
using EmitFn = std::function<Status(CanonicalFact,
                                    const std::vector<Relation::FactRef>&)>;

/// A rule compiled for the valuation join (the ground fast path; see
/// ApplyRule). Opaque; built by CompileGroundPlan.
struct GroundPlan;

/// Compiles `rule` for the valuation join: dense slots for the
/// constraint-root classes of its variables, its own symbol and number
/// bindings, its linear atoms over slots, and per enumeration order the
/// schedule of equalities to solve and atoms to check after each literal.
/// Returns null unless a static check holds: binding every body variable,
/// then repeatedly solving the equalities with a single unknown, binds every
/// atom and head variable. (It fails, for instance, for a head variable
/// pinned only by `X >= 5, X <= 5`, or an existential `Z > 0` with Z in no
/// literal.) The fixpoint compiles each rule once per evaluation.
std::shared_ptr<const GroundPlan> CompileGroundPlan(const Rule& rule);

/// On-demand position indexing for one evaluation (DESIGN.md §12). A
/// relation's per-position index exists only where candidate selection
/// asks for it: the first selection that consults an unindexed (relation,
/// position) — asks its equality or range probe cost, or probes a lone
/// bound position — is answered from the position's value column, and the
/// second builds the index (Relation::IndexPosition), in `db`, before
/// answering. A cost query and the probe that follows it in one selection
/// are one consult. A position consulted once is never sorted; one
/// consulted again is likely probed often enough that a column walk per
/// probe would cost more than the sort.
///
/// The evaluation (RunStrata) owns one and passes it to every ApplyRule
/// it makes, over `db` itself: the database the evaluation owns
/// exclusively, never a published epoch.
class IndexDemand {
 public:
  explicit IndexDemand(Database* db) : db_(db) {}

  /// Records a candidate selection's consult of unindexed 1-based
  /// `position` of `pred`'s relation, indexing it on the second. A build
  /// counts one EvalStats::index_builds and adds its time to
  /// interval_index_build_ns (when `stats` is non-null).
  void Consult(PredId pred, int position, EvalStats* stats);

 private:
  Database* db_;
  std::map<std::pair<PredId, int>, int> consults_;
};

/// Delta discipline of one rule application.
enum class DeltaMode {
  /// Every combination of facts with birth <= max_birth (iteration 0 of a
  /// stratum: the facts below it are all "new" to its rules).
  kAll,
  /// Only combinations with at least one fact born exactly at max_birth
  /// (the facts newly derived in the previous iteration), enumerated in
  /// body order.
  kDelta,
  /// The kDelta combinations, enumerated once per delta-capable body
  /// position with that position's delta facts first (see below).
  kDeltaRotated,
};

/// One rule application (Section 2's basic evaluation step): enumerates
/// every combination of body facts, conjoins the rule's constraints with the
/// facts' constraints, checks satisfiability, eliminates the non-head
/// variables by projection, and emits the resulting head facts.
///
/// Two joins implement it, and both enumerate candidates through one
/// candidate-selection step (birth and delta filters, rotations, row order
/// and the access-path choice below), so they make the same derivations in
/// the same order and count the same candidates:
///  - The valuation join runs when `plan` is non-null (CompileGroundPlan)
///    and every body relation holds only ground tuple rows
///    (Relation::AllGround, O(1)); each such application counts one
///    EvalStats::ground_applications. It binds slots from the rows' value
///    columns under an undo trail, compares repeated and pre-bound slots
///    exactly, solves single-unknown equalities (`T = T1 + T2 + 30`), and
///    evaluates every other atom by one exact rational comparison as soon
///    as its slots are bound. Where the partial state could be
///    unsatisfiable for a reason no bound atom shows (atoms coupled only
///    through unbound slots), it asks the exact decision the constraint
///    join would. Its leaf emits the head's value tuple directly: no
///    projection, simplification, satisfiability decision or Conjunction.
///    A candidate whose values mismatch a slot's kind (a symbol reaching an
///    arithmetic slot, a number meeting a symbol) is handed to the
///    constraint join for that subtree, which reproduces its clash skip or
///    TypeError exactly.
///  - The constraint join handles everything else with conjunctions, and
///    canonicalizes each emitted fact (deciding groundness once). A ground
///    row that is one of its candidates has its point built on demand.
///
/// Semi-naive discipline: only facts with birth <= `max_birth` participate,
/// and under kDelta / kDeltaRotated at least one chosen fact must have
/// birth == `max_birth`.
///
/// Delta-availability pruning: Relation::max_birth() bounds tell in O(body)
/// whether any combination can contain a delta fact. Under either delta
/// mode a rule none of whose body relations reach `max_birth` is skipped
/// outright; under kDelta, a branch that has not yet taken a delta fact is
/// cut as soon as no remaining literal can supply one, and when only the
/// current literal can, its enumeration is restricted to delta-born
/// entries. All three cuts discard only combinations the leaf check would
/// reject, so the emitted derivations and their order are identical to the
/// unpruned join.
///
/// Delta rotation (kDeltaRotated): instead of enumerating in body order and
/// checking for a delta at the leaf, the rule is applied once per
/// delta-capable body position p — that pass enumerates p's delta entries
/// FIRST, so the delta fact's bindings drive index probes for the remaining
/// literals, while positions before p are held to pre-delta facts (making
/// "first delta position == p" a partition: every delta-containing
/// combination is derived exactly once). This is what makes a resumed
/// fixpoint (ResumeEvaluate) cost proportional to the batch's consequences
/// instead of the database: without it, a rule whose early literals are
/// delta-capable still walks its full relations. The derived fact set is
/// identical to kDelta's, but derivations arrive grouped by pivot — callers
/// that pin derivation order (the paper-table traces) use kDelta.
///
/// Index demand: when `demand` is non-null, candidate selection reports
/// each unindexed position it consults to it, which may index the
/// position in `db` (IndexDemand; `demand` must be over `db`). Null builds
/// nothing: unindexed positions are answered from their columns. Either
/// way the candidates are the same.
///
/// Join access path: each body literal whose accumulated join state binds
/// some argument position to a unique symbol or number is resolved by
/// an equality probe of the relation's per-position index at the most
/// selective such position (a lone bound position is probed without asking
/// its cost). Direct bindings are read cheaply
/// (Conjunction::GetSymbol / QuickNumericValue; in the valuation join, slots
/// bound by a row or by the rule's own bindings); numeric values that are
/// only entailed — e.g. `X = N - 1` after joining a fact with `N = 2` —
/// are recovered by the exact projection (Conjunction::GetNumericValue), on
/// the accumulated conjunction (which the valuation join rebuilds from its
/// slots only for such a literal).
/// Literals with no uniquely-bound position (unbound, or restricted only
/// by non-point constraints like `X > 0`) fall back to the linear scan.
/// A probe skips exactly the candidates the scan would discard as
/// unsatisfiable value clashes and enumerates the rest in entry
/// (insertion) order under the same birth, arity, and signature filters,
/// so every access path makes the derivations a plain scan of every
/// literal would, in the same order. When `stats` is non-null,
/// probe/candidate counters (and nothing else) are accumulated into it.
///
/// Interval pruning (`interval_index`): when no position is bound to a
/// unique value, the accumulated state's interval box
/// (IntervalDomain::Propagate over its linear part) is intersected against
/// the relation's per-position index (a range probe, DESIGN.md §12) at the
/// most selective numerically-ranged position — a pushed selection like
/// `T <= 60` then binary-searches past the facts whose stored value cannot
/// meet the range, and skips those whose propagated bound summary cannot.
/// Every skipped fact would have failed the leaf satisfiability check (its
/// value/box at the position is disjoint from a sound over-approximation of
/// the accumulated solutions), and surviving candidates are re-sorted into
/// insertion order, so derivations and their order are again identical to
/// the scan.
///
/// Emit is buffered: `emit` must not insert into `db` while the application
/// runs. The fixpoint collects an iteration's derivations, reconciles them
/// as one set (the paper's Tables 1–2 discard a fact subsumed by a
/// same-iteration derivation) and commits them after the iteration's last
/// application, so candidate selection reads each relation's current size.
///
/// Body-free rules (constraint facts in the program) derive their head
/// directly; callers fire them only under kAll.
Status ApplyRule(const Rule& rule, const GroundPlan* plan, const Database& db,
                 int max_birth, DeltaMode delta, bool interval_index,
                 IndexDemand* demand, const EmitFn& emit, EvalStats* stats);

}  // namespace cqlopt

#endif  // CQLOPT_EVAL_RULE_APPLICATION_H_
