#include "eval/database.h"

namespace cqlopt {

Status Database::AddGroundFact(SymbolTable* symbols,
                               const std::string& pred_name,
                               const std::vector<Value>& values) {
  PredId pred = symbols->InternPredicate(pred_name);
  GroundTuple tuple;
  tuple.reserve(values.size());
  for (const Value& value : values) {
    tuple.push_back(
        value.is_symbol
            ? PointValue::Symbol(symbols->InternSymbol(value.symbol))
            : PointValue::Number(value.number));
  }
  CanonicalFact fact = CanonicalFact::Ground(pred, std::move(tuple));
  const uint64_t hash = fact.Hash();
  AddFact(std::move(fact), hash);
  return Status::OK();
}

Database::BatchOutcome Database::AddFacts(const std::vector<Fact>& batch,
                                          int birth) {
  BatchOutcome out;
  for (const Fact& fact : batch) {
    InsertOutcome o = relations_[fact.pred].Insert(fact, birth);
    if (o == InsertOutcome::kInserted) {
      ++out.inserted;
    } else {
      ++out.duplicates;
    }
  }
  return out;
}

const Relation* Database::Find(PredId pred) const {
  auto it = relations_.find(pred);
  return it == relations_.end() ? nullptr : &it->second;
}

size_t Database::TotalFacts() const {
  size_t total = 0;
  for (const auto& [pred, rel] : relations_) total += rel.size();
  return total;
}

size_t Database::FactsFor(PredId pred) const {
  const Relation* rel = Find(pred);
  return rel == nullptr ? 0 : rel->size();
}

void Database::Seal() {
  for (auto& [pred, rel] : relations_) rel.Seal();
}

void Database::IndexEveryPosition() {
  for (auto& [pred, rel] : relations_) rel.IndexEveryPosition();
}

size_t Database::ApproxBytes() const {
  size_t total = 0;
  for (const auto& [pred, rel] : relations_) total += rel.ApproxBytes();
  return total;
}

}  // namespace cqlopt
