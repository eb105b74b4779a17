#ifndef CQLOPT_EVAL_FACT_H_
#define CQLOPT_EVAL_FACT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ast/symbol_table.h"
#include "constraint/conjunction.h"

namespace cqlopt {

/// A constraint fact `p(X̄; C)` (Section 2): a predicate plus a conjunction
/// of constraints over its argument positions (VarIds 1..arity). It finitely
/// represents the — possibly infinite — set of ground facts satisfying C.
/// A *ground* fact is the special case where every position is forced to a
/// single symbol or number.
///
/// A Fact is the exchange form: parsing, answers, rendering, retraction and
/// the WAL use it. The evaluator's hot path does not: a derivation travels
/// as a CanonicalFact, and a stored ground row is only its value columns
/// (Relation::fact builds the Fact of a row on demand).
struct Fact {
  Fact() : pred(SymbolTable::kNoPred), arity(0) {}
  Fact(PredId pred_in, int arity_in, Conjunction constraint_in)
      : pred(pred_in), arity(arity_in), constraint(std::move(constraint_in)) {}

  /// Structural identity key: predicate id + canonical constraint string.
  /// Structurally distinct but equivalent facts get different keys; the
  /// subsumption check (relation.h) handles semantic duplicates. Storage
  /// does not use it (see CanonicalFact); it is kept for tests and tools.
  std::string Key() const;

  /// Paper-style rendering: `flight(madison, chicago, 50, 100)` for ground
  /// facts, `m_fib(N1, V1; N1 > 0)` style (with $i shown for unbound
  /// positions) otherwise.
  std::string ToString(const SymbolTable& symbols) const;

  PredId pred;
  int arity;
  Conjunction constraint;
};

/// The values of a ground fact, one per argument position.
using GroundTuple = std::vector<PointValue>;

/// `fact`'s argument values if it is ground (every position bound to a
/// symbol or forced to one number), nullopt otherwise. A position stored as
/// a direct `$i = c` costs no projection; any other numeric position costs
/// one exact projection.
std::optional<GroundTuple> GroundValuesOf(const Fact& fact);

/// The values of `vars` when `c` pins every one of them directly: each is
/// symbol-bound or has a single-variable equality atom, and the linear
/// store is nothing but such atoms on distinct variables (so it is
/// satisfiable without a decision). nullopt otherwise — which does not mean
/// the variables are not pinned.
std::optional<GroundTuple> DirectValuesOf(const Conjunction& c,
                                          const std::vector<VarId>& vars);

/// The canonical ground fact `pred(values)`: exactly one `$i = c` or
/// `$i = @sym` atom per position and no equality edges
/// (Conjunction::Point).
Fact GroundFact(PredId pred, const GroundTuple& values);

/// A fact in the canonical form storage keys on. A ground fact is its value
/// tuple, whatever form it was derived or loaded in, so two ground facts
/// denote the same point iff their tuples are equal; its constraint, the
/// point GroundFact(pred, *tuple), is built only where something reads it
/// (ToFact). A non-ground fact keeps its (simplified) constraint and is
/// identified by it structurally.
struct CanonicalFact {
  /// The ground fact `pred(values)`, of arity values.size().
  static CanonicalFact Ground(PredId pred, GroundTuple values);

  bool ground() const { return tuple.has_value(); }

  /// The fact itself: GroundFact(pred, *tuple) when ground (one
  /// Conjunction::Point build), a copy of the constraint otherwise.
  Fact ToFact() const;

  /// 64-bit identity hash: predicate, arity and the value tuple when
  /// ground, fp::FingerprintOf(constraint) otherwise. Equal facts (SameAs)
  /// hash equally.
  uint64_t Hash() const;

  /// Exact identity: same predicate and arity, and equal tuples (ground) or
  /// structurally equal constraints (non-ground).
  bool SameAs(const CanonicalFact& other) const;

  PredId pred = SymbolTable::kNoPred;
  int arity = 0;
  /// The argument values; set iff the fact is ground.
  std::optional<GroundTuple> tuple;
  /// A non-ground fact's constraint over positions 1..arity. Left empty
  /// for a ground fact.
  Conjunction constraint;
};

/// Puts `fact` in canonical form, deciding its groundness once
/// (GroundValuesOf).
CanonicalFact Canonicalize(Fact fact);

/// Identity hash of a ground fact `pred(values)` of arity values.size();
/// CanonicalFact::Hash of a ground fact is this.
uint64_t HashGroundTuple(PredId pred, const GroundTuple& values);

}  // namespace cqlopt

#endif  // CQLOPT_EVAL_FACT_H_
