// Experiment E4 (DESIGN.md): Example 6.1 — the GMT grounding step as a
// fold/unfold sequence (procedure Ground_Fold_Unfold, Section 6.2).
//
// Paper claims reproduced:
//   - the bcf adornment gives p^cf and q^ccf;
//   - P^{ad,mg} has non-range-restricted magic rules (computes constraint
//     facts);
//   - Ground_Fold_Unfold produces the paper's 9-rule range-restricted
//     program {r41, r43, r51, r53, r61, r62, r11, r21, r31} with three
//     supplementary predicates, equivalent on the query (Theorem 6.2).

#include <random>

#include "ast/normalize.h"
#include "bench_util.h"
#include "transform/gmt.h"

namespace cqlopt {
namespace bench {
namespace {

const char* kExample61 =
    "r1: p(X, Y) :- U > 10, q(X, U, V), W > V, p(W, Y).\n"
    "r2: p(X, Y) :- u(X, Y).\n"
    "r3: q(X, Y, Z) :- q1(X, U), q2(W, Y), q3(U, W, Z).\n"
    "?- X > 10, p(X, Y).\n";

Database MakeEdb(SymbolTable* symbols, int n, uint64_t seed) {
  Database db;
  (void)AddBinaryRelation(symbols, "u", n, 40, seed, &db);
  (void)AddBinaryRelation(symbols, "q1", n, 40, seed + 1, &db);
  (void)AddBinaryRelation(symbols, "q2", n, 40, seed + 2, &db);
  // q3 is ternary.
  std::mt19937_64 rng(seed + 3);
  for (int i = 0; i < n; ++i) {
    (void)db.AddGroundFact(
        symbols, "q3",
        {Database::Value::Number(Rational(static_cast<int64_t>(rng() % 40))),
         Database::Value::Number(Rational(static_cast<int64_t>(rng() % 40))),
         Database::Value::Number(
             Rational(static_cast<int64_t>(rng() % 40)))});
  }
  return db;
}

void PrintReproduction() {
  ParsedInput in = ParseWithQueryOrDie(kExample61);
  auto gmt = ValueOrDie(GmtTransform(in.program, in.query), "gmt");
  std::printf("=== Example 6.1: GMT grounding via fold/unfold ===\n");
  std::printf("--- P^{ad,mg} (range-restricted: %s; paper: no) ---\n%s",
              IsRangeRestricted(gmt.magic) ? "yes (MISMATCH)" : "no",
              RenderProgram(gmt.magic).c_str());
  std::printf("--- P^{ad,mg,gr} (range-restricted: %s; paper: yes) ---\n%s",
              IsRangeRestricted(gmt.grounded) ? "yes" : "NO (MISMATCH)",
              RenderProgram(gmt.grounded).c_str());
  std::printf("rules: %zu (paper: 9)   supplementary predicates: %zu "
              "(paper: 3)\n",
              gmt.grounded.rules.size(), gmt.supplementary.size());

  // Query equivalence and ground-facts property on a synthetic EDB.
  Database db = MakeEdb(in.program.symbols.get(), 40, 17);
  EvalOptions eval;
  eval.max_iterations = 64;
  auto original = ValueOrDie(Evaluate(in.program, db, eval), "orig");
  auto grounded = ValueOrDie(Evaluate(gmt.grounded, db, eval), "grounded");
  auto a1 = ValueOrDie(QueryAnswers(original, in.query), "answers1");
  auto a2 = ValueOrDie(QueryAnswers(grounded, gmt.query), "answers2");
  std::printf("answers original=%zu grounded=%zu equal=%s "
              "(Theorem 6.2: query equivalent)\n",
              a1.size(), a2.size(), SameAnswers(a1, a2) ? "yes" : "NO");
  std::printf("grounded evaluation all-ground: %s   facts original=%zu "
              "grounded=%zu\n\n",
              grounded.stats.all_ground ? "yes" : "NO (MISMATCH)",
              original.db.TotalFacts() - db.TotalFacts(),
              grounded.db.TotalFacts() - db.TotalFacts());
}

}  // namespace
}  // namespace bench
}  // namespace cqlopt

int main() {
  cqlopt::bench::PrintReproduction();
  return 0;
}
