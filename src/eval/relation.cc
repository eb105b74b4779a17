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
  return InsertCanonical(Canonicalize(std::move(fact)), birth, rule_label,
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

InsertOutcome Relation::InsertCanonical(CanonicalFact canonical, int birth,
                                        const std::string& rule_label,
                                        std::vector<FactRef> parents) {
  const uint64_t hash = canonical.Hash();
  if (Find(canonical, hash).has_value()) return InsertOutcome::kDuplicate;
  const Conjunction& constraint = canonical.constraint;
  const bool is_ground = canonical.ground();

  // Classify each argument position (the column tag). A ground fact's
  // columns are its tuple. Otherwise collect interval summaries for
  // numerically constrained positions: bound propagation runs at most once
  // per fact, lazily, and never for facts with no linear atoms (their
  // positions classify from the direct lookups alone).
  size_t arity = static_cast<size_t>(canonical.arity);
  std::vector<ColTag> tags(arity, ColTag::kUnbound);
  std::vector<SymbolId> syms(arity, SymbolId{});
  std::vector<Rational> nums(arity);
  std::vector<std::pair<size_t, Interval>> summaries;  // (pos-1, bounds)
  std::optional<IntervalDomain> domain;
  for (size_t p = 0; p < arity; ++p) {
    if (is_ground) {
      PointValue& v = (*canonical.tuple)[p];
      tags[p] = v.is_symbol ? ColTag::kSymbol : ColTag::kNumber;
      syms[p] = v.symbol;
      nums[p] = std::move(v.number);
      continue;
    }
    VarId v = static_cast<VarId>(p + 1);
    if (auto sym = constraint.GetSymbol(v)) {
      tags[p] = ColTag::kSymbol;
      syms[p] = *sym;
      continue;
    }
    if (auto num = constraint.QuickNumericValue(v)) {
      tags[p] = ColTag::kNumber;
      nums[p] = std::move(*num);
      continue;
    }
    if (constraint.linear().empty()) continue;  // stays kUnbound
    if (!domain.has_value()) {
      domain = IntervalDomain::Propagate(constraint.LinearWithEqualities());
    }
    const Interval& iv = domain->Of(constraint.Find(v));
    if (!iv.lower_infinite() || !iv.upper_infinite()) {
      tags[p] = ColTag::kInterval;
      summaries.emplace_back(p, iv);
    }
  }

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
  tail->ground.push_back(is_ground ? 1 : 0);
  if (is_ground) {
    tail->constraint_index.push_back(0);
  } else {
    tail->constraint_index.push_back(
        static_cast<uint8_t>(tail->constraints.size()));
    tail->constraints.push_back(std::move(canonical.constraint));
  }
  tail->births.push_back(birth);
  tail->arities.push_back(canonical.arity);
  tail->label_ids.push_back(label_id);
  tail->parents.push_back(std::move(parents));
  for (size_t p = 0; p < tail->columns.size(); ++p) {
    Column& col = tail->columns[p];
    ColTag t = p < arity ? tags[p] : ColTag::kAbsent;
    col.tags.push_back(static_cast<uint8_t>(t));
    col.symbols.push_back(t == ColTag::kSymbol ? syms[p] : SymbolId{});
    col.numbers.push_back(t == ColTag::kNumber ? std::move(nums[p])
                                               : Rational());
  }
  ++size_;

  // Index the row at every position its arity reaches. Bound rows join
  // the unsorted suffix until the next Seal.
  if (index_.size() < arity) index_.resize(arity);
  for (size_t p = 0; p < arity; ++p) {
    PositionIndex& idx = index_[p];
    switch (tags[p]) {
      case ColTag::kSymbol:
        idx.bound.push_back({PointValue::Symbol(syms[p]), id});
        break;
      case ColTag::kNumber:
        idx.bound.push_back(
            {PointValue::Number(tail->columns[p].numbers[row_in_chunk]), id});
        ++idx.numbers;
        break;
      case ColTag::kUnbound:
        idx.unbound.push_back({id, Interval()});
        break;
      default:  // kInterval: indexed below with its bound summary
        break;
    }
  }
  for (auto& [p, iv] : summaries) {
    index_[p].unbound.push_back({id, std::move(iv)});
    ++index_[p].ranged;
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
    out.InsertCanonical(std::move(row), birth(i), rule_label(i), parents(i));
  }
  return out;
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
  auto [first, last] = SortedMatches(*idx, key);
  size_t cost = static_cast<size_t>(last - first) + idx->unbound.size();
  for (size_t k = idx->sorted; k < idx->bound.size(); ++k) {
    if (idx->bound[k].value == key) ++cost;
  }
  return cost;
}

void Relation::Probe(int position, const ArgSignature& value, size_t limit,
                     std::vector<size_t>* out) const {
  out->clear();
  const PositionIndex* idx = IndexAt(position);
  if (idx == nullptr) return;
  const PointValue key = KeyValue(value);
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
  out->erase(std::lower_bound(out->begin(), out->end(), limit), out->end());
}

bool Relation::CanRangePrune(int position) const {
  const PositionIndex* idx = IndexAt(position);
  return idx != nullptr && (idx->numbers > 0 || idx->ranged > 0);
}

size_t Relation::IntervalProbeCost(int position, const Interval& query) const {
  const PositionIndex* idx = IndexAt(position);
  if (idx == nullptr) return 0;
  const BoundEntry* numbers = SortedNumbers(*idx);
  auto [first, last] =
      AdmittedRange(numbers, idx->bound.data() + idx->sorted, query);
  return static_cast<size_t>(numbers - idx->bound.data()) +
         static_cast<size_t>(last - first) +
         (idx->bound.size() - idx->sorted) + idx->unbound.size();
}

void Relation::IntervalProbe(int position, const Interval& query,
                             size_t limit, std::vector<size_t>* out,
                             long* runs_pruned) const {
  out->clear();
  const PositionIndex* idx = IndexAt(position);
  if (idx == nullptr) return;
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
  // Candidates must come out in ascending row order: the emit-visibility
  // and trace-identity contracts require probe enumeration to match the
  // scan's insertion order exactly.
  std::sort(out->begin(), out->end());
  out->erase(std::lower_bound(out->begin(), out->end(), limit), out->end());
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

size_t Relation::SharedBytes() const {
  size_t bytes = 0;
  for (const auto& chunk : chunks_) {
    if (chunk.use_count() > 1) bytes += ApproxChunkBytes(*chunk);
  }
  return bytes;
}

}  // namespace cqlopt
