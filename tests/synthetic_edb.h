#ifndef CQLOPT_TESTS_SYNTHETIC_EDB_H_
#define CQLOPT_TESTS_SYNTHETIC_EDB_H_

// The corpus-style EDB that test_corpus, test_stratified and test_service
// evaluate programs over.

#include <random>
#include <set>
#include <string>
#include <vector>

#include "ast/program.h"
#include "eval/database.h"

namespace cqlopt {

/// `count` numeric tuples with values in [0, 30) for each database
/// predicate of `program` (one that occurs in a rule body and in no rule
/// head), drawn from a generator seeded with `seed` plus the predicate id.
inline Database SyntheticEdb(const Program& program, uint64_t seed,
                             int count = 12) {
  std::set<PredId> heads;
  for (const Rule& rule : program.rules) heads.insert(rule.head.pred);
  std::set<PredId> base;
  for (const Rule& rule : program.rules) {
    for (const Literal& lit : rule.body) {
      if (heads.count(lit.pred) == 0) base.insert(lit.pred);
    }
  }
  Database db;
  for (PredId pred : base) {
    const std::string& name = program.symbols->PredicateName(pred);
    int arity = program.Arity(pred);
    std::mt19937_64 rng(seed + static_cast<uint64_t>(pred));
    for (int i = 0; i < count; ++i) {
      std::vector<Database::Value> values;
      for (int a = 0; a < arity; ++a) {
        values.push_back(Database::Value::Number(
            Rational(static_cast<int64_t>(rng() % 30))));
      }
      (void)db.AddGroundFact(program.symbols.get(), name, values);
    }
  }
  return db;
}

}  // namespace cqlopt

#endif  // CQLOPT_TESTS_SYNTHETIC_EDB_H_
