#include "eval/relation.h"

#include <algorithm>

namespace cqlopt {

namespace {

/// Rough heap footprint of one stored constraint: its linear atoms
/// (map-node overhead per coefficient), union-find / symbol maps, and the
/// struct itself. Allocator slack is folded into the per-node constants.
size_t ApproxConstraintBytes(const Conjunction& constraint) {
  constexpr size_t kMapNode = 48;  // red-black node + key/value payload
  size_t bytes = sizeof(Conjunction);
  for (const LinearConstraint& atom : constraint.linear()) {
    bytes += sizeof(LinearConstraint) + sizeof(Rational);
    bytes += atom.expr().coefficients().size() * kMapNode;
  }
  bytes += constraint.EqualityPairs().size() * kMapNode;
  bytes += constraint.SymbolBindings().size() * kMapNode;
  return bytes;
}

using BoundEntry = Relation::PositionIndex::BoundEntry;

/// Three-way order of index values: symbols before numbers, symbols by id,
/// numbers by value.
int CompareValues(const PointValue& a, const PointValue& b) {
  if (a.is_symbol != b.is_symbol) return a.is_symbol ? -1 : 1;
  if (a.is_symbol) {
    return a.symbol == b.symbol ? 0 : (a.symbol < b.symbol ? -1 : 1);
  }
  return a.number.Compare(b.number);
}

/// The order of a sealed prefix: by value, ties by row.
bool BoundLess(const BoundEntry& a, const BoundEntry& b) {
  int cmp = CompareValues(a.value, b.value);
  return cmp != 0 ? cmp < 0 : a.row < b.row;
}

/// The sub-range of the ascending numbers [first, last) whose values satisfy
/// `query`'s bounds — exact, by binary search.
std::pair<const BoundEntry*, const BoundEntry*> AdmittedRange(
    const BoundEntry* first, const BoundEntry* last, const Interval& query) {
  auto below = [](const BoundEntry& e, const Rational& v) {
    return e.value.number < v;
  };
  auto above = [](const Rational& v, const BoundEntry& e) {
    return v < e.value.number;
  };
  if (!query.lower_infinite()) {
    first = query.lower_strict()
                ? std::upper_bound(first, last, query.lower(), above)
                : std::lower_bound(first, last, query.lower(), below);
  }
  if (!query.upper_infinite()) {
    last = query.upper_strict()
               ? std::lower_bound(first, last, query.upper(), below)
               : std::upper_bound(first, last, query.upper(), above);
  }
  return {first, std::max(first, last)};
}

/// The probed value of an equality probe (the symbol wins when both are
/// set).
PointValue KeyValue(const Relation::ArgSignature& value) {
  return value.symbol.has_value() ? PointValue::Symbol(*value.symbol)
                                  : PointValue::Number(*value.number);
}

/// The sorted entries of `idx` holding exactly `key`, ascending by row.
std::pair<const BoundEntry*, const BoundEntry*> SortedMatches(
    const Relation::PositionIndex& idx, const PointValue& key) {
  const BoundEntry* first = idx.bound.data();
  const BoundEntry* last = first + idx.sorted;
  first = std::lower_bound(first, last, key,
                           [](const BoundEntry& e, const PointValue& v) {
                             return CompareValues(e.value, v) < 0;
                           });
  last = std::upper_bound(first, last, key,
                          [](const PointValue& v, const BoundEntry& e) {
                            return CompareValues(v, e.value) < 0;
                          });
  return {first, last};
}

/// The first sorted number of `idx` (sorted symbols come first).
const BoundEntry* SortedNumbers(const Relation::PositionIndex& idx) {
  const BoundEntry* first = idx.bound.data();
  return std::partition_point(
      first, first + idx.sorted,
      [](const BoundEntry& e) { return e.value.is_symbol; });
}

/// Whether a column row holding `t` (at `offset` of `col`) can match the
/// equality probe for `key`: a bound row holding exactly `key`, or any
/// unbound or interval-bound row.
template <typename Col>
bool ColumnMatches(Relation::ColTag t, const Col& col, size_t offset,
                   const PointValue& key) {
  switch (t) {
    case Relation::ColTag::kSymbol:
      return key.is_symbol && col.symbols[offset] == key.symbol;
    case Relation::ColTag::kNumber:
      return !key.is_symbol && col.numbers[offset] == key.number;
    default:
      return true;
  }
}

/// Whether a column row holding `t` survives the range probe for `query`
/// (see Relation::IntervalProbe); `range` is its summary when kInterval.
template <typename Col>
bool ColumnAdmits(Relation::ColTag t, const Col& col, size_t offset,
                  const Interval* range, const Interval& query) {
  switch (t) {
    case Relation::ColTag::kNumber:
      return query.Contains(col.numbers[offset]);
    case Relation::ColTag::kInterval:
      return query.Intersects(*range);
    default:
      return true;
  }
}

/// Adds `row`, which holds `t` (at `offset` of `col`; `range` is its
/// summary when kInterval), to the entries of an indexed position: a bound
/// row to the unsorted suffix, any other to the unbound list.
template <typename Col>
void AddEntry(Relation::PositionIndex* idx, size_t row, Relation::ColTag t,
              const Col& col, size_t offset, const Interval* range) {
  switch (t) {
    case Relation::ColTag::kSymbol:
      idx->bound.push_back({PointValue::Symbol(col.symbols[offset]), row});
      break;
    case Relation::ColTag::kNumber:
      idx->bound.push_back({PointValue::Number(col.numbers[offset]), row});
      break;
    case Relation::ColTag::kUnbound:
      idx->unbound.push_back({row, Interval()});
      break;
    default:  // kInterval
      idx->unbound.push_back({row, *range});
      break;
  }
}

}  // namespace

Relation::Chunk* Relation::TailChunkForAppend() {
  if (chunks_.empty() || chunks_.back()->births.size() == kChunkRows) {
    chunks_.push_back(std::make_shared<Chunk>());
  } else if (chunks_.back().use_count() > 1) {
    // The tail chunk is shared with a snapshot copy: clone it so the append
    // stays invisible to every other holder (copy-on-write).
    chunks_.back() = std::make_shared<Chunk>(*chunks_.back());
  }
  return chunks_.back().get();
}

InsertOutcome Relation::Insert(Fact fact, int birth,
                               const std::string& rule_label,
                               std::vector<FactRef> parents) {
  CanonicalFact canonical = Canonicalize(std::move(fact));
  const uint64_t hash = canonical.Hash();
  return InsertCanonical(std::move(canonical), hash, birth, rule_label,
                         std::move(parents));
}

Fact Relation::fact(size_t i) const {
  if (ground(i)) return GroundFact(pred_, tuple(i));
  return Fact(pred_, arity(i), constraint(i));
}

GroundTuple Relation::tuple(size_t i) const {
  const int n = arity(i);
  GroundTuple values;
  values.reserve(static_cast<size_t>(n));
  for (int p = 1; p <= n; ++p) {
    values.push_back(tag(i, p) == ColTag::kSymbol
                         ? PointValue::Symbol(symbol_at(i, p))
                         : PointValue::Number(number_at(i, p)));
  }
  return values;
}

uint32_t Relation::LabelId(const std::string& label) {
  for (size_t k = labels_.size(); k-- > 0;) {
    if (labels_[k] == label) return static_cast<uint32_t>(k);
  }
  labels_.push_back(label);
  return static_cast<uint32_t>(labels_.size() - 1);
}

void Relation::IdentityTable::Add(uint64_t hash, size_t row) {
  if ((count + 1) * 2 > rows.size()) {
    // Grow to keep the table at most half full, re-placing every entry.
    size_t capacity = rows.empty() ? 16 : rows.size() * 2;
    std::vector<uint64_t> old_hashes = std::move(hashes);
    std::vector<size_t> old_rows = std::move(rows);
    hashes.assign(capacity, 0);
    rows.assign(capacity, kEmpty);
    count = 0;
    for (size_t k = 0; k < old_rows.size(); ++k) {
      if (old_rows[k] != kEmpty) Add(old_hashes[k], old_rows[k]);
    }
  }
  size_t mask = rows.size() - 1;
  size_t k = static_cast<size_t>(hash) & mask;
  while (rows[k] != kEmpty) k = (k + 1) & mask;
  hashes[k] = hash;
  rows[k] = row;
  ++count;
}

bool Relation::RowIs(size_t i, const CanonicalFact& fact) const {
  if (arity(i) != fact.arity || ground(i) != fact.ground()) return false;
  if (!fact.ground()) return constraint(i).StructurallyEquals(fact.constraint);
  // A ground row's identity is its value columns.
  for (size_t p = 0; p < fact.tuple->size(); ++p) {
    const PointValue& v = (*fact.tuple)[p];
    int position = static_cast<int>(p + 1);
    if (v.is_symbol) {
      if (tag(i, position) != ColTag::kSymbol ||
          symbol_at(i, position) != v.symbol) {
        return false;
      }
    } else if (tag(i, position) != ColTag::kNumber ||
               number_at(i, position) != v.number) {
      return false;
    }
  }
  return true;
}

std::optional<size_t> Relation::Find(const CanonicalFact& fact,
                                     uint64_t hash) const {
  const IdentityTable& table = identity_;
  if (table.count == 0) return std::nullopt;
  size_t mask = table.rows.size() - 1;
  for (size_t k = static_cast<size_t>(hash) & mask;
       table.rows[k] != IdentityTable::kEmpty; k = (k + 1) & mask) {
    if (table.hashes[k] == hash && RowIs(table.rows[k], fact)) {
      return table.rows[k];
    }
  }
  return std::nullopt;
}

InsertOutcome Relation::InsertCanonical(CanonicalFact canonical,
                                        uint64_t hash, int birth,
                                        const std::string& rule_label,
                                        std::vector<FactRef> parents) {
  if (Find(canonical, hash).has_value()) return InsertOutcome::kDuplicate;
  const Conjunction& constraint = canonical.constraint;
  const bool is_ground = canonical.ground();
  const size_t arity = static_cast<size_t>(canonical.arity);

  // Append the row.
  size_t id = size_;
  identity_.Add(hash, id);
  if (!is_ground) non_ground_rows_.push_back(id);
  if (birth > max_birth_) max_birth_ = birth;
  if (size_ == 0) pred_ = canonical.pred;
  const uint32_t label_id = LabelId(rule_label);
  Chunk* tail = TailChunkForAppend();
  size_t row_in_chunk = tail->births.size();
  if (tail->columns.size() < arity) {
    tail->columns.resize(arity);
    // Columns added mid-chunk are padded so every column array stays
    // parallel to the chunk's row arrays.
    for (Column& col : tail->columns) {
      col.tags.resize(row_in_chunk, static_cast<uint8_t>(ColTag::kAbsent));
      col.symbols.resize(row_in_chunk, SymbolId{});
      col.numbers.resize(row_in_chunk);
    }
  }
  tail->births.push_back(birth);
  tail->arities.push_back(canonical.arity);
  tail->label_ids.push_back(label_id);
  tail->parents.push_back(std::move(parents));
  tail->ground.push_back(is_ground ? 1 : 0);
  ++size_;

  // Classify each argument position into its column (the tag). A ground
  // fact's columns are its tuple. Otherwise numerically constrained
  // positions get interval summaries: bound propagation runs at most once
  // per fact, lazily, and never for facts with no linear atoms (their
  // positions classify from the direct lookups alone). Each position the
  // row reaches is counted, and added to the entries of an indexed
  // position; bound rows join the unsorted suffix until the next Seal.
  if (index_.size() < arity) index_.resize(arity);
  std::optional<IntervalDomain> domain;
  for (size_t p = 0; p < tail->columns.size(); ++p) {
    Column& col = tail->columns[p];
    ColTag t = p < arity ? ColTag::kUnbound : ColTag::kAbsent;
    SymbolId sym{};
    Rational num;
    const VarId v = static_cast<VarId>(p + 1);
    if (t == ColTag::kAbsent) {
      // Beyond the row's arity.
    } else if (is_ground) {
      PointValue& value = (*canonical.tuple)[p];
      t = value.is_symbol ? ColTag::kSymbol : ColTag::kNumber;
      sym = value.symbol;
      num = std::move(value.number);
    } else if (auto bound = constraint.GetSymbol(v)) {
      t = ColTag::kSymbol;
      sym = *bound;
    } else if (auto point = constraint.QuickNumericValue(v)) {
      t = ColTag::kNumber;
      num = std::move(*point);
    } else if (!constraint.linear().empty()) {
      if (!domain.has_value()) {
        domain = IntervalDomain::Propagate(constraint.LinearWithEqualities());
      }
      const Interval& iv = domain->Of(constraint.Find(v));
      if (!iv.lower_infinite() || !iv.upper_infinite()) {
        t = ColTag::kInterval;
        col.ranges.push_back(iv);
      }
    }
    col.tags.push_back(static_cast<uint8_t>(t));
    col.symbols.push_back(sym);
    col.numbers.push_back(std::move(num));
    if (t == ColTag::kAbsent) continue;
    PositionIndex& idx = index_[p];
    if (t == ColTag::kNumber) ++idx.numbers;
    if (t == ColTag::kInterval) ++idx.ranged;
    if (idx.built) {
      AddEntry(&idx, id, t, col, row_in_chunk,
               t == ColTag::kInterval ? &col.ranges.back() : nullptr);
    }
  }
  if (is_ground) {
    tail->constraint_index.push_back(0);
  } else {
    tail->constraint_index.push_back(
        static_cast<uint8_t>(tail->constraints.size()));
    tail->constraints.push_back(std::move(canonical.constraint));
  }
  return InsertOutcome::kInserted;
}

Relation Relation::Spliced(const std::vector<uint8_t>& dead) const {
  Relation out;
  for (size_t i = 0; i < size_; ++i) {
    if (i < dead.size() && dead[i] != 0) continue;
    // Stored rows are canonical already; a ground row's tuple is its
    // columns.
    CanonicalFact row;
    if (ground(i)) {
      row = CanonicalFact::Ground(pred_, tuple(i));
    } else {
      row.pred = pred_;
      row.arity = arity(i);
      row.constraint = constraint(i);
    }
    const uint64_t hash = row.Hash();
    out.InsertCanonical(std::move(row), hash, birth(i), rule_label(i),
                        parents(i));
  }
  return out;
}

template <typename Visit>
void Relation::ScanColumn(int position, const Visit& visit) const {
  const size_t p = static_cast<size_t>(position - 1);
  for (size_t c = 0; c < chunks_.size(); ++c) {
    const Chunk& chunk = *chunks_[c];
    if (p >= chunk.columns.size()) continue;
    const Column& col = chunk.columns[p];
    const size_t rows = chunk.births.size();
    const Interval* range = col.ranges.data();
    for (size_t k = 0; k < rows; ++k) {
      const ColTag t = static_cast<ColTag>(col.tags[k]);
      if (t == ColTag::kAbsent) continue;
      const Interval* summary = t == ColTag::kInterval ? range++ : nullptr;
      visit(c * kChunkRows + k, t, col, k, summary);
    }
  }
}

void Relation::IndexPosition(int position) {
  const size_t p = static_cast<size_t>(position - 1);
  if (index_.size() <= p) index_.resize(p + 1);
  PositionIndex& idx = index_[p];
  if (idx.built) return;
  idx.built = true;
  ScanColumn(position, [&idx](size_t row, ColTag t, const Column& col,
                              size_t k, const Interval* range) {
    AddEntry(&idx, row, t, col, k, range);
  });
  std::sort(idx.bound.begin(), idx.bound.end(), BoundLess);
  idx.sorted = idx.bound.size();
}

void Relation::IndexEveryPosition() {
  for (size_t p = 0; p < index_.size(); ++p) {
    IndexPosition(static_cast<int>(p + 1));
  }
  Seal();
}

void Relation::Seal() {
  for (PositionIndex& idx : index_) {
    if (idx.sorted == idx.bound.size()) continue;
    auto middle = idx.bound.begin() + static_cast<ptrdiff_t>(idx.sorted);
    std::sort(middle, idx.bound.end(), BoundLess);
    std::inplace_merge(idx.bound.begin(), middle, idx.bound.end(), BoundLess);
    idx.sorted = idx.bound.size();
  }
}

const Relation::PositionIndex* Relation::IndexAt(int position) const {
  size_t p = static_cast<size_t>(position - 1);
  return p < index_.size() ? &index_[p] : nullptr;
}

size_t Relation::ProbeCost(int position, const ArgSignature& value) const {
  const PositionIndex* idx = IndexAt(position);
  if (idx == nullptr) return 0;
  const PointValue key = KeyValue(value);
  if (!idx->built) {
    size_t cost = 0;
    ScanColumn(position, [&](size_t, ColTag t, const Column& col, size_t k,
                             const Interval*) {
      cost += ColumnMatches(t, col, k, key) ? 1 : 0;
    });
    return cost;
  }
  auto [first, last] = SortedMatches(*idx, key);
  size_t cost = static_cast<size_t>(last - first) + idx->unbound.size();
  for (size_t k = idx->sorted; k < idx->bound.size(); ++k) {
    if (idx->bound[k].value == key) ++cost;
  }
  return cost;
}

void Relation::Probe(int position, const ArgSignature& value,
                     std::vector<size_t>* out) const {
  out->clear();
  const PositionIndex* idx = IndexAt(position);
  if (idx == nullptr) return;
  const PointValue key = KeyValue(value);
  if (!idx->built) {
    ScanColumn(position, [&](size_t row, ColTag t, const Column& col,
                             size_t k, const Interval*) {
      if (ColumnMatches(t, col, k, key)) out->push_back(row);
    });
    return;
  }
  // The bound matches come out ascending (sorted matches, then suffix
  // matches); merge the ascending unbound rows in front of each, so the
  // caller enumerates candidates in exactly the scan's order.
  auto unbound = idx->unbound.begin();
  auto take = [&](size_t row) {
    for (; unbound != idx->unbound.end() && unbound->row < row; ++unbound) {
      out->push_back(unbound->row);
    }
    out->push_back(row);
  };
  auto [first, last] = SortedMatches(*idx, key);
  for (const BoundEntry* e = first; e != last; ++e) take(e->row);
  for (size_t k = idx->sorted; k < idx->bound.size(); ++k) {
    if (idx->bound[k].value == key) take(idx->bound[k].row);
  }
  for (; unbound != idx->unbound.end(); ++unbound) {
    out->push_back(unbound->row);
  }
}

bool Relation::CanRangePrune(int position) const {
  const PositionIndex* idx = IndexAt(position);
  return idx != nullptr && (idx->numbers > 0 || idx->ranged > 0);
}

size_t Relation::IntervalProbeCost(int position, const Interval& query) const {
  const PositionIndex* idx = IndexAt(position);
  if (idx == nullptr) return 0;
  if (!idx->built) {
    // Exact, as a sealed index's cost is: every row but the excluded
    // numbers.
    size_t cost = 0;
    ScanColumn(position, [&](size_t, ColTag t, const Column& col, size_t k,
                             const Interval*) {
      cost += t != ColTag::kNumber || query.Contains(col.numbers[k]) ? 1 : 0;
    });
    return cost;
  }
  const BoundEntry* numbers = SortedNumbers(*idx);
  auto [first, last] =
      AdmittedRange(numbers, idx->bound.data() + idx->sorted, query);
  return static_cast<size_t>(numbers - idx->bound.data()) +
         static_cast<size_t>(last - first) +
         (idx->bound.size() - idx->sorted) + idx->unbound.size();
}

void Relation::IntervalProbe(int position, const Interval& query,
                             std::vector<size_t>* out,
                             long* runs_pruned) const {
  out->clear();
  const PositionIndex* idx = IndexAt(position);
  if (idx == nullptr) return;
  if (!idx->built) {
    // As a sealed index would, count the probe only if `query` admits no
    // number of the position at all.
    bool admitted_number = false;
    ScanColumn(position, [&](size_t row, ColTag t, const Column& col,
                             size_t k, const Interval* range) {
      if (!ColumnAdmits(t, col, k, range, query)) return;
      admitted_number = admitted_number || t == ColTag::kNumber;
      out->push_back(row);
    });
    if (runs_pruned != nullptr && idx->numbers > 0 && !admitted_number) {
      ++*runs_pruned;
    }
    return;
  }
  const BoundEntry* numbers = SortedNumbers(*idx);
  const BoundEntry* sorted_end = idx->bound.data() + idx->sorted;
  for (const BoundEntry* e = idx->bound.data(); e != numbers; ++e) {
    out->push_back(e->row);
  }
  auto [first, last] = AdmittedRange(numbers, sorted_end, query);
  if (first == last && numbers != sorted_end && runs_pruned != nullptr) {
    ++*runs_pruned;
  }
  for (const BoundEntry* e = first; e != last; ++e) out->push_back(e->row);
  for (size_t k = idx->sorted; k < idx->bound.size(); ++k) {
    const BoundEntry& e = idx->bound[k];
    if (e.value.is_symbol || query.Contains(e.value.number)) {
      out->push_back(e.row);
    }
  }
  for (const PositionIndex::UnboundEntry& e : idx->unbound) {
    bool whole_line = e.bounds.lower_infinite() && e.bounds.upper_infinite();
    if (whole_line || query.Intersects(e.bounds)) out->push_back(e.row);
  }
  // Candidates must come out in ascending row order: the trace-identity
  // contract requires probe enumeration to match the scan's insertion order
  // exactly.
  std::sort(out->begin(), out->end());
}

size_t Relation::ApproxChunkBytes(const Chunk& chunk) {
  size_t bytes = sizeof(Chunk);
  bytes += (chunk.births.capacity() + chunk.arities.capacity()) * sizeof(int);
  bytes += chunk.ground.capacity();
  bytes += chunk.label_ids.capacity() * sizeof(uint32_t);
  bytes += chunk.constraint_index.capacity();
  bytes += (chunk.constraints.capacity() - chunk.constraints.size()) *
           sizeof(Conjunction);
  for (const Conjunction& constraint : chunk.constraints) {
    bytes += ApproxConstraintBytes(constraint);
  }
  for (const auto& refs : chunk.parents) {
    bytes += sizeof(refs) + refs.capacity() * sizeof(FactRef);
  }
  for (const Column& col : chunk.columns) {
    bytes += col.tags.capacity();
    bytes += col.symbols.capacity() * sizeof(SymbolId);
    bytes += col.numbers.capacity() * sizeof(Rational);
    bytes += col.ranges.capacity() * sizeof(Interval);
  }
  return bytes;
}

size_t Relation::ApproxBytes() const {
  size_t bytes = sizeof(Relation);
  for (const auto& chunk : chunks_) bytes += ApproxChunkBytes(*chunk);
  bytes += labels_.capacity() * sizeof(std::string);
  for (const std::string& label : labels_) bytes += label.capacity();
  bytes += identity_.bytes() + non_ground_rows_.capacity() * sizeof(size_t);
  for (const PositionIndex& idx : index_) {
    bytes += idx.bound.capacity() * sizeof(PositionIndex::BoundEntry) +
             idx.unbound.capacity() * sizeof(PositionIndex::UnboundEntry);
  }
  return bytes;
}

}  // namespace cqlopt
