// Experiment E5 (DESIGN.md): Examples 7.1/D.1 and 7.2/D.2 — procedure
// Gen_Prop_QRP_constraints and constraint magic rewriting are NOT
// confluent: the order matters, and each order wins on one example.
//
// Paper claims reproduced:
//   - Example 7.1 (selection above the recursion): P^{qrp,mg} computes a
//     subset of the facts of P^{mg,qrp} — the magic rule mr2 of P^{qrp,mg}
//     carries X <= 4, the one of P^{mg,qrp} does not (Example D.1);
//   - Example 7.2 (selection below the query binding): P^{mg,qrp} computes
//     a subset of the facts of P^{qrp,mg} (Example D.2).

#include "bench_util.h"

namespace cqlopt {
namespace bench {
namespace {

const char* kExample71 =
    "r1: q(X, Y) :- a1(X, Y), X <= 4.\n"
    "r2: a1(X, Y) :- b1(X, Z), a2(Z, Y).\n"
    "r3: a2(X, Y) :- b2(X, Y).\n"
    "r4: a2(X, Y) :- b2(X, Z), a2(Z, Y).\n"
    "?- q(X, Y).\n";

const char* kExample72 =
    "r1: q(X, Y) :- a1(X, Y).\n"
    "r2: a1(X, Y) :- b1(X, Z), X <= 4, a2(Z, Y).\n"
    "r3: a2(X, Y) :- b2(X, Y).\n"
    "r4: a2(X, Y) :- b2(X, Z), a2(Z, Y).\n"
    "?- q(9, Y).\n";  // 9 violates X <= 4: the mg,qrp arm prunes m_a1

Database MakeEdb(SymbolTable* symbols, int n, uint64_t seed) {
  Database db;
  (void)AddBinaryRelation(symbols, "b1", n, 16, seed, &db);
  (void)AddBinaryRelation(symbols, "b2", n, 16, seed + 1, &db);
  return db;
}

void PrintOne(const char* title, const char* source, uint64_t seed) {
  std::printf("--- %s ---\n", title);
  std::printf("%8s %14s %14s %14s\n", "|EDB|", "qrp,mg", "mg,qrp",
              "pred,qrp,mg");
  for (int n : {20, 40, 80}) {
    ParsedInput in = ParseWithQueryOrDie(source);
    Database db = MakeEdb(in.program.symbols.get(), n, seed);
    EvalResult qrp_mg = RunPipeline(in, db, "qrp,mg", {}, 64);
    EvalResult mg_qrp = RunPipeline(in, db, "mg,qrp", {}, 64);
    EvalResult best = RunPipeline(in, db, "pred,qrp,mg", {}, 64);
    std::printf("%8d %14zu %14zu %14zu\n", n,
                qrp_mg.db.TotalFacts() - db.TotalFacts(),
                mg_qrp.db.TotalFacts() - db.TotalFacts(),
                best.db.TotalFacts() - db.TotalFacts());
  }
}

void PrintReproduction() {
  std::printf("=== Examples 7.1 / 7.2: the rewritings are not confluent "
              "===\n");
  PrintOne("Example 7.1 (paper: qrp,mg <= mg,qrp)", kExample71, 31);
  PrintOne("Example 7.2 (paper: mg,qrp <= qrp,mg)", kExample72, 37);
  std::printf("\n");
}

}  // namespace
}  // namespace bench
}  // namespace cqlopt

int main() {
  cqlopt::bench::PrintReproduction();
  return 0;
}
