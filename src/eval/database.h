#ifndef CQLOPT_EVAL_DATABASE_H_
#define CQLOPT_EVAL_DATABASE_H_

#include <map>
#include <string>
#include <vector>

#include "eval/relation.h"
#include "util/rational.h"

namespace cqlopt {

/// A finite set of relations (Section 2's database). Holds EDB facts given
/// as input and, during evaluation, the derived facts as well.
class Database {
 public:
  Database() = default;

  /// Inserts a fact; convenience for EDB loading (birth -1, no
  /// subsumption pruning so the EDB is taken verbatim).
  InsertOutcome AddFact(Fact fact) {
    return relations_[fact.pred].Insert(std::move(fact), /*birth=*/-1);
  }

  /// Inserts a fact already in canonical form under its identity hash
  /// (`hash` == fact.Hash(), Relation::InsertCanonical): an EDB fact by
  /// default (the loader's tuple path), or a derived fact with its birth
  /// iteration and provenance (the fixpoint's commit).
  InsertOutcome AddFact(CanonicalFact fact, uint64_t hash, int birth = -1,
                        const std::string& rule_label = "",
                        std::vector<Relation::FactRef> parents = {}) {
    PredId pred = fact.pred;
    return relations_[pred].InsertCanonical(std::move(fact), hash, birth,
                                            rule_label, std::move(parents));
  }

  /// Builds and inserts a ground fact from argument values, each either a
  /// number or a symbolic constant name (interned via `symbols`), as its
  /// value tuple directly: no projection, satisfiability decision or
  /// Conjunction.
  struct Value {
    static Value Number(Rational r) { return Value{false, std::move(r), ""}; }
    static Value Symbol(std::string name) {
      return Value{true, Rational(0), std::move(name)};
    }
    bool is_symbol;
    Rational number;
    std::string symbol;
  };
  Status AddGroundFact(SymbolTable* symbols, const std::string& pred_name,
                       const std::vector<Value>& values);

  /// Batch EDB ingest: inserts every fact verbatim (no subsumption pruning,
  /// like the single-fact AddFact; structural duplicates are dropped) with
  /// the given birth stamp. EDB loading uses birth -1; the incremental
  /// resume path (seminaive.h ResumeEvaluate) stamps the batch with the
  /// resuming iteration so the facts drive the semi-naive delta discipline.
  struct BatchOutcome {
    int inserted = 0;
    int duplicates = 0;
  };
  BatchOutcome AddFacts(const std::vector<Fact>& batch, int birth = -1);

  const Relation* Find(PredId pred) const;
  Relation* FindMutable(PredId pred) { return &relations_[pred]; }
  const std::map<PredId, Relation>& relations() const { return relations_; }

  size_t TotalFacts() const;
  size_t FactsFor(PredId pred) const;

  /// Seals every relation's indexed positions (Relation::Seal): only on a
  /// database the caller owns exclusively.
  void Seal();

  /// Indexes and seals every position of every relation
  /// (Relation::IndexEveryPosition): only on a database the caller owns
  /// exclusively.
  void IndexEveryPosition();

  /// Approximate resident bytes across all relations (chunked columns,
  /// non-ground constraints, provenance, label tables, indexes) — the
  /// bytes-per-fact numerator the benches report. An estimate, not exact
  /// allocator accounting.
  size_t ApproxBytes() const;

 private:
  std::map<PredId, Relation> relations_;
};

}  // namespace cqlopt

#endif  // CQLOPT_EVAL_DATABASE_H_
