#include "eval/database.h"

namespace cqlopt {

Status Database::AddGroundFact(SymbolTable* symbols,
                               const std::string& pred_name,
                               const std::vector<Value>& values) {
  PredId pred = symbols->InternPredicate(pred_name);
  Conjunction c;
  for (size_t i = 0; i < values.size(); ++i) {
    VarId position = static_cast<VarId>(i + 1);
    if (values[i].is_symbol) {
      CQLOPT_RETURN_IF_ERROR(
          c.BindSymbol(position, symbols->InternSymbol(values[i].symbol)));
    } else {
      LinearExpr expr = LinearExpr::Var(position) -
                        LinearExpr::Constant(values[i].number);
      CQLOPT_RETURN_IF_ERROR(c.AddLinear(LinearConstraint(expr, CmpOp::kEq)));
    }
  }
  AddFact(Fact(pred, static_cast<int>(values.size()), std::move(c)));
  return Status::OK();
}

Database::BatchOutcome Database::AddFacts(const std::vector<Fact>& batch,
                                          int birth) {
  BatchOutcome out;
  for (const Fact& fact : batch) {
    InsertOutcome o = relations_[fact.pred].Insert(
        fact, birth, /*rule_label=*/"", /*parents=*/{}, /*edb=*/true);
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

bool Database::AllGround() const {
  for (const auto& [pred, rel] : relations_) {
    if (!rel.AllGround()) return false;
  }
  return true;
}

long Database::IntervalBuildNs() const {
  long total = 0;
  for (const auto& [pred, rel] : relations_) total += rel.interval_build_ns();
  return total;
}

size_t Database::ApproxBytes() const {
  size_t total = 0;
  for (const auto& [pred, rel] : relations_) total += rel.ApproxBytes();
  return total;
}

size_t Database::SharedBytes() const {
  size_t total = 0;
  for (const auto& [pred, rel] : relations_) total += rel.SharedBytes();
  return total;
}

}  // namespace cqlopt
