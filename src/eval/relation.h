#ifndef CQLOPT_EVAL_RELATION_H_
#define CQLOPT_EVAL_RELATION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "constraint/interval.h"
#include "eval/fact.h"

namespace cqlopt {

/// Duplicate-elimination policy applied when inserting a freshly derived
/// fact (the "compared against previously generated p facts to check
/// whether it is indeed a new fact" step of Section 2).
enum class SubsumptionMode {
  /// Only structurally identical facts are duplicates. Constraint facts
  /// that are semantically subsumed survive — the ablation arm of
  /// bench_flights; can prevent termination.
  kNone,
  /// A new fact is discarded when some single existing fact implies it —
  /// the check the paper's Tables 1–2 apply (subsumed facts in boldface are
  /// "discarded, and not used to make new derivations").
  kSingleFact,
};

/// What happened to an inserted fact.
enum class InsertOutcome {
  kInserted,
  kDuplicate,  // structurally identical fact already present
  kSubsumed,   // implied by stored or same-iteration facts (reconciliation)
};

/// The set of facts of one predicate, each stamped with the iteration that
/// derived it (EDB facts carry birth -1), supporting the semi-naive
/// delta discipline.
///
/// Storage is *columnar* (DESIGN.md §12): rows live in fixed-size chunks of
/// parallel arrays — birth stamps, arities, ground flags, provenance (a
/// rule-label id and the parent refs), and one value column per
/// argument position (tag + symbol + number) — so the delta scan walks a
/// contiguous birth array and the join pre-filter reads value columns. A
/// ground row is nothing but its columns: no Fact or Conjunction is kept for
/// it, and fact(i) builds one on demand. Only a non-ground row keeps its
/// constraint, in its chunk, readable by reference (constraint(i)).
/// Chunks are held by shared_ptr and copied lazily: copying a Relation (the
/// service layer publishes one immutable Database per snapshot epoch)
/// shares every chunk, and an append into a shared tail chunk clones just
/// that chunk first — sealed segments are never duplicated, so the
/// bytes-per-epoch cost of a snapshot is the indexes plus at most one
/// partial chunk per relation.
class Relation {
 public:
  /// Per-position quick values of a fact (the probe *query* shape): the
  /// directly-bound symbol or number of one argument position. Candidate
  /// facts whose column value clashes with the accumulated join state are
  /// skipped without touching the constraint machinery.
  struct ArgSignature {
    std::optional<SymbolId> symbol;
    std::optional<Rational> number;
  };

  /// Reference to a fact in a database: predicate plus row index.
  struct FactRef {
    PredId pred;
    size_t index;
  };

  /// Classification of one argument position of one stored fact, computed
  /// once at insertion and stored in the position's column.
  enum class ColTag : uint8_t {
    /// The fact's arity does not reach this position. Such rows are never
    /// enumerated by probes at the position (the arity check would reject
    /// them anyway).
    kAbsent = 0,
    /// No direct value and no finite numeric bounds — matches any probe.
    kUnbound,
    /// Bound to a symbolic constant (column's `symbols` array holds it).
    kSymbol,
    /// Bound to a single numeric point (column's `numbers` array holds it).
    kNumber,
    /// Numerically constrained short of a stored point: the fact's
    /// constraint gives the position finite lower and/or upper bounds
    /// (interval-propagated at insertion, kept in the column's `ranges`).
    kInterval,
  };

  /// Inserts unless an identical fact is stored (kDuplicate). The fact is
  /// put in canonical form first (Canonicalize: a ground fact is stored as
  /// its value tuple, whatever form it came in), so two ground facts
  /// denoting one point never occupy two rows. Every row of a relation has
  /// the predicate of its first row.
  /// No subsumption check: the fixpoint's end-of-iteration reconciliation
  /// (eval/fixpoint.cc) discards subsumed derivations before they reach
  /// storage, and EDB facts are taken verbatim. `birth` is the deriving
  /// iteration. `rule_label` and `parents` record provenance (empty for EDB
  /// facts).
  InsertOutcome Insert(Fact fact, int birth,
                       const std::string& rule_label = "",
                       std::vector<FactRef> parents = {});

  /// Insert for a fact already in canonical form, whose groundness was
  /// decided where it was made (the fixpoint's commit, the loader's tuple
  /// path), under the identity hash its caller holds (`hash` ==
  /// fact.Hash()): decides and hashes nothing again. A ground fact's tuple
  /// goes straight into the value columns.
  InsertOutcome InsertCanonical(CanonicalFact fact, uint64_t hash, int birth,
                                const std::string& rule_label = "",
                                std::vector<FactRef> parents = {});

  /// Row index of the stored fact identical to `fact` (whose Hash() is
  /// `hash`), if any: a hash-table probe plus an exact compare — the value
  /// columns for a ground row, Conjunction::StructurallyEquals otherwise.
  std::optional<size_t> Find(const CanonicalFact& fact, uint64_t hash) const;

  /// Row index of the stored fact identical to `fact` once canonicalized.
  std::optional<size_t> RowOf(const Fact& fact) const {
    CanonicalFact canonical = Canonicalize(fact);
    return Find(canonical, canonical.Hash());
  }

  /// Row storage is append-only: Insert never reorders or removes, so row
  /// indexes are stable (provenance refs rely on this).
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Row accessors; `i < size()` is the caller's obligation.
  ///
  /// The row as a Fact, built on demand: GroundFact(pred, tuple(i)) for a
  /// ground row (one Conjunction::Point), a copy of constraint(i)
  /// otherwise. The result is a temporary — bind it before iterating over
  /// its parts. The join and reconciliation read arity(i), the columns and
  /// constraint(i) instead.
  Fact fact(size_t i) const;
  /// The values of ground row `i`, read from its columns.
  GroundTuple tuple(size_t i) const;
  /// The constraint of non-ground row `i` (ground rows keep none).
  const Conjunction& constraint(size_t i) const {
    const Chunk& chunk = *chunks_[i >> kChunkShift];
    return chunk.constraints[chunk.constraint_index[i & kChunkMask]];
  }
  int arity(size_t i) const {
    return chunks_[i >> kChunkShift]->arities[i & kChunkMask];
  }
  int birth(size_t i) const {
    return chunks_[i >> kChunkShift]->births[i & kChunkMask];
  }
  /// Whether the row is a ground tuple (CanonicalFact::ground(), decided
  /// once before insertion): every position's column holds its symbol or
  /// number, and the row's identity is that tuple.
  bool ground(size_t i) const {
    return chunks_[i >> kChunkShift]->ground[i & kChunkMask] != 0;
  }
  /// Provenance (Definition 2.2's derivation trees): the rule that derived
  /// this fact and the body facts used, in body-literal order. Empty rule
  /// label and parents for EDB facts. A row stores its label as an id into
  /// the relation's label table; the reference is valid until the next
  /// insert.
  const std::string& rule_label(size_t i) const {
    return labels_[chunks_[i >> kChunkShift]->label_ids[i & kChunkMask]];
  }
  const std::vector<FactRef>& parents(size_t i) const {
    return chunks_[i >> kChunkShift]->parents[i & kChunkMask];
  }

  /// Rebuilds this relation without the rows marked in `dead` (indexed by
  /// row; rows beyond dead.size() are kept), preserving the births and
  /// provenance of surviving rows — how a retraction removes facts from the
  /// service's EDB. Surviving rows are re-inserted in order, so chunk
  /// boundaries end up exactly as if only the survivors had ever been
  /// inserted.
  Relation Spliced(const std::vector<uint8_t>& dead) const;

  /// Column reads for the join pre-filter. `position` is 1-based; positions
  /// beyond the fact's arity read kAbsent. symbol_at / number_at are only
  /// meaningful when the tag is kSymbol / kNumber respectively.
  ColTag tag(size_t i, int position) const {
    const Chunk& chunk = *chunks_[i >> kChunkShift];
    size_t p = static_cast<size_t>(position - 1);
    if (p >= chunk.columns.size()) return ColTag::kAbsent;
    return static_cast<ColTag>(chunk.columns[p].tags[i & kChunkMask]);
  }
  SymbolId symbol_at(size_t i, int position) const {
    const Chunk& chunk = *chunks_[i >> kChunkShift];
    return chunk.columns[static_cast<size_t>(position - 1)]
        .symbols[i & kChunkMask];
  }
  const Rational& number_at(size_t i, int position) const {
    const Chunk& chunk = *chunks_[i >> kChunkShift];
    return chunk.columns[static_cast<size_t>(position - 1)]
        .numbers[i & kChunkMask];
  }

  /// The four probes below answer alike whether or not `position` is
  /// indexed (IndexPosition): the same rows in the same order, the same
  /// costs and the same `runs_pruned` count as a sealed index. An indexed
  /// position binary-searches its sorted values; an unindexed one walks the
  /// position's value column once (DESIGN.md §12).

  /// Number of rows Probe at 1-based `position` for `value` would return
  /// (bound matches plus every unbound and interval-bound row). Exact; used
  /// to pick the most selective bound position before probing.
  size_t ProbeCost(int position, const ArgSignature& value) const;

  /// Equality probe: writes to `*out` the row indexes, in ascending (=
  /// insertion) order, of facts that can match `value` at 1-based
  /// `position`. That is facts whose column binds the position to exactly
  /// the probed symbol/number, merged with facts whose column leaves the
  /// position unbound or only interval-bound — constraint facts restrict
  /// such positions only through their constraint part (e.g. `$1 > 0`), so
  /// they can match any probed value and are always enumerated.
  ///
  /// `value` must have a symbol or a number set (the symbol wins when both
  /// are). Enumerating the result under the caller's arity and column
  /// checks visits exactly the facts a linear scan over every row keeps
  /// after its column pre-filter at this position.
  void Probe(int position, const ArgSignature& value,
             std::vector<size_t>* out) const;

  /// Upper bound on the rows IntervalProbe at `position` with `query` would
  /// return: every symbol row, the number rows whose value `query` admits,
  /// and every unbound or interval-bound row — plus, on an indexed
  /// position, every bound row not yet sealed (those are not binary
  /// searched). Never under-reports, so callers can compare it against the
  /// scan size when choosing an access path.
  size_t IntervalProbeCost(int position, const Interval& query) const;

  /// Range probe (DESIGN.md §12): writes to `*out` the row indexes,
  /// ascending, of facts NOT provably excluded by `query` at 1-based
  /// `position`:
  ///  - point rows (ColTag::kNumber) whose value lies in `query` — an
  ///    indexed position binary-searches its sorted prefix, so out-of-range
  ///    sorted rows are never visited;
  ///  - ranged rows (kInterval) whose propagated bound summary intersects
  ///    `query`;
  ///  - every kSymbol / kUnbound row (never numerically excluded).
  /// A pruned row is one whose conjunction with any join state entailing
  /// `query` at this position is unsatisfiable, so enumerating the result
  /// makes exactly the derivations the full scan would, in the same order.
  /// When `runs_pruned` is non-null it counts the probe if `query` admits
  /// none of the position's sorted numbers (there being at least one) —
  /// on an unindexed position, none of its numbers.
  void IntervalProbe(int position, const Interval& query,
                     std::vector<size_t>* out,
                     long* runs_pruned = nullptr) const;

  /// True if any row at `position` carries numeric content the range probe
  /// can prune on (a point value or a finite bound summary). Read from
  /// per-position counts kept whether or not the position is indexed.
  bool CanRangePrune(int position) const;

  /// Whether 1-based `position` has an index. A relation starts with none;
  /// from IndexPosition on, InsertCanonical adds every row reaching the
  /// position to its index and Seal sorts them in.
  bool indexed(int position) const {
    size_t p = static_cast<size_t>(position - 1);
    return p < index_.size() && index_[p].built;
  }

  /// Builds the index of 1-based `position` from its value column, sealed.
  /// No-op when it exists. Changes no probe's result, only its cost. Like
  /// Seal, it mutates the relation: call it only on a relation the caller
  /// owns exclusively (the running evaluation's database, an epoch the
  /// service has not yet published), never on a published snapshot.
  void IndexPosition(int position);

  /// Indexes every position some stored row reaches and seals them all —
  /// how the service prepares an EDB epoch before publishing it, so the
  /// evaluations over it build no EDB index. Same ownership rule as Seal.
  void IndexEveryPosition();

  /// Sorts each indexed position's unsorted suffix and merges it into the
  /// sorted prefix, so later probes binary-search every bound row. Changes
  /// no probe's result, only its cost. Unindexed positions have nothing to
  /// sort. Mutates the indexes: call it only on a relation the caller owns
  /// exclusively (the running evaluation's database, an epoch the service
  /// has not yet published), never on a published snapshot.
  void Seal();

  /// True if every stored fact is ground. O(1).
  bool AllGround() const { return non_ground_rows_.empty(); }

  /// Row ids of the non-ground rows, ascending (= insertion order). Only
  /// these can subsume a distinct fact — a point implies only itself — so
  /// reconciliation walks this list, not the relation.
  const std::vector<size_t>& non_ground_rows() const {
    return non_ground_rows_;
  }

  /// Largest birth stamp ever stored (-2 while empty). A cheap
  /// delta-availability bound for semi-naive joins: no row of this relation
  /// can have birth == b when max_birth() < b. The bound is an
  /// over-approximation in the other direction — it never decreases, so it
  /// can exceed the birth of every *current* row; callers may only use it
  /// to prune, never to assert a delta exists.
  int max_birth() const { return max_birth_; }

  /// Approximate resident bytes of this relation: chunked columns,
  /// non-ground constraints, provenance, the label table, the identity
  /// table, and the position indexes. An estimate (heap allocator overhead
  /// and small-string storage are approximated), meant for bytes-per-fact
  /// trend reporting, not exact accounting. Chunks shared with other
  /// Relation copies are counted in full here.
  size_t ApproxBytes() const;

  /// One argument position's index (DESIGN.md §12). Its counts are kept
  /// for every position a stored row reaches; its entries only once the
  /// position is indexed (`built`), after which InsertCanonical adds every
  /// row whose arity reaches the position. Both probes binary-search the
  /// sorted prefix of `bound` and check its unsorted suffix row by row;
  /// every suffix row is newer than every sorted row, so results come out
  /// in ascending row order. Only a Relation holds one; the type is public
  /// so relation.cc's probe helpers can name its entries.
  struct PositionIndex {
    struct BoundEntry {
      PointValue value;
      size_t row;
    };
    struct UnboundEntry {
      size_t row;
      Interval bounds;  // propagated summary; the whole line for kUnbound
    };
    /// Whether the entries below are kept (IndexPosition). Until then they
    /// stay empty and the probes read the value column.
    bool built = false;
    /// The kSymbol and kNumber rows. The first `sorted` entries are ordered
    /// by value (symbols first), ties by row; the rest are in insertion
    /// order until the next Seal.
    std::vector<BoundEntry> bound;
    size_t sorted = 0;
    /// The kUnbound and kInterval rows, ascending.
    std::vector<UnboundEntry> unbound;
    /// The position's kNumber and kInterval rows, counted indexed or not.
    size_t numbers = 0;
    size_t ranged = 0;
  };

 private:
  /// Rows per chunk. Power of two so row -> (chunk, offset) is a shift and
  /// a mask on the hot accessors.
  static constexpr size_t kChunkShift = 8;
  static constexpr size_t kChunkRows = size_t{1} << kChunkShift;
  static constexpr size_t kChunkMask = kChunkRows - 1;

  /// One argument position's value column within a chunk; arrays are
  /// parallel to the chunk's row arrays (padded with kAbsent defaults for
  /// rows inserted before the column first appeared).
  struct Column {
    std::vector<uint8_t> tags;      // ColTag per row
    std::vector<SymbolId> symbols;  // valid where tag == kSymbol
    std::vector<Rational> numbers;  // valid where tag == kNumber
    /// The kInterval rows' propagated bound summaries, in row order (one
    /// per kInterval tag): what an unindexed range probe prunes on.
    std::vector<Interval> ranges;
  };

  /// A columnar segment of kChunkRows rows. Only the last chunk of a
  /// relation is ever appended to; a chunk reachable from more than one
  /// Relation is cloned before mutation (copy-on-write), so shared chunks
  /// are de-facto immutable.
  struct Chunk {
    std::vector<int> births;
    std::vector<int> arities;
    std::vector<uint8_t> ground;
    std::vector<uint32_t> label_ids;  // into Relation::labels_
    std::vector<std::vector<FactRef>> parents;
    std::vector<Column> columns;
    /// The non-ground rows' constraints, in row order; constraint_index
    /// gives a non-ground row's entry (a chunk has at most kChunkRows rows,
    /// so a byte holds it) and is 0 for a ground row.
    std::vector<Conjunction> constraints;
    std::vector<uint8_t> constraint_index;
  };
  static_assert(kChunkRows <= 256, "constraint_index must fit a byte");

  /// The index of 1-based `position`, or null when no stored row reaches it.
  const PositionIndex* IndexAt(int position) const;

  /// Calls visit(row, tag, column, offset, range) for each row whose arity
  /// reaches 1-based `position`, ascending: `column` is the row's chunk
  /// column and `offset` its place there; `range` is the row's bound
  /// summary when tag == kInterval, null otherwise. The probes' path for
  /// unindexed positions, and how IndexPosition reads a column.
  template <typename Visit>
  void ScanColumn(int position, const Visit& visit) const;

  /// The chunk the next row lands in, exclusively owned: starts a fresh
  /// chunk when the tail is full, clones the tail first when it is shared
  /// with another Relation copy (copy-on-write).
  Chunk* TailChunkForAppend();

  /// Approximate resident bytes of one chunk (rows, provenance, columns).
  static size_t ApproxChunkBytes(const Chunk& chunk);

  /// True if row `i` is the fact `fact` (exact; see Find).
  bool RowIs(size_t i, const CanonicalFact& fact) const;

  /// The id of `label` in labels_, added if new.
  uint32_t LabelId(const std::string& label);

  /// Fact identity: an open-addressing table of (64-bit hash, row) pairs
  /// with linear probing, at most half full. Distinct facts may share a
  /// hash; lookups compare every row with a matching hash exactly (RowIs).
  /// Rows are never removed (Spliced rebuilds), so there are no tombstones,
  /// and copying a Relation copies two flat arrays.
  struct IdentityTable {
    static constexpr size_t kEmpty = static_cast<size_t>(-1);
    std::vector<uint64_t> hashes;
    std::vector<size_t> rows;  // kEmpty marks a free slot
    size_t count = 0;

    void Add(uint64_t hash, size_t row);
    size_t bytes() const {
      return hashes.capacity() * sizeof(uint64_t) +
             rows.capacity() * sizeof(size_t);
    }
  };

  std::vector<std::shared_ptr<Chunk>> chunks_;
  size_t size_ = 0;
  PredId pred_ = SymbolTable::kNoPred;  // every row's predicate
  /// The distinct rule labels of the rows (a handful per relation: one per
  /// rule deriving the predicate, plus "" for base facts).
  std::vector<std::string> labels_;
  IdentityTable identity_;             // fact identity -> row
  std::vector<size_t> non_ground_rows_;  // ascending
  /// index_[p-1]; sized to the max arity seen (or a higher indexed
  /// position).
  std::vector<PositionIndex> index_;
  int max_birth_ = -2;
};

}  // namespace cqlopt

#endif  // CQLOPT_EVAL_RELATION_H_
