// Experiment E3 (DESIGN.md): Examples 4.2 / 5.1 — predicate constraints
// enable the QRP fixpoint.
//
// Paper claims reproduced:
//   - on P (Example 4.2), Gen_QRP_constraints alone infers nothing for `a`
//     (widens to true): the recursive rule r3 has no explicit constraint;
//   - Gen_predicate_constraints infers $2 <= $1 for `a`; after propagating
//     it (program P1 of Example 5.1), the QRP fixpoint reaches the minimum
//     ($1 <= 10 & $2 <= $1) — and in 2-3 iterations, far below the
//     combinatorial bound n * 2^(2k^2+4k) of Theorem 5.1;
//   - the pred,qrp evaluation computes fewer `a` facts than qrp alone.

#include "bench_util.h"
#include "transform/qrp_constraints.h"

namespace cqlopt {
namespace bench {
namespace {

const char* kExample42 =
    "r1: q(X, Y) :- a(X, Y), X <= 10.\n"
    "r2: a(X, Y) :- p(X, Y), Y <= X.\n"
    "r3: a(X, Y) :- a(X, Z), a(Z, Y).\n"
    "?- q(X, Y).\n";

void PrintReproduction() {
  std::printf("=== Examples 4.2 / 5.1: predicate constraints enable QRP "
              "===\n");
  {
    ParsedInput in = ParseWithQueryOrDie(kExample42);
    PredId q = in.program.symbols->LookupPredicate("q");
    PredId a = in.program.symbols->LookupPredicate("a");
    auto qrp_only = ValueOrDie(GenQrpConstraints(in.program, q, {}), "qrp");
    std::printf("QRP[a] without pred step: %s (paper: unconstrained)\n",
                RenderConstraintSet(qrp_only.constraints.at(a),
                                    *in.program.symbols, DollarNames())
                    .c_str());
    ConstraintRewriteOptions options;
    auto full = ValueOrDie(ConstraintRewrite(in.program, q, options),
                           "constraint_rewrite");
    std::printf("QRP[a] with pred step:    %s (paper: $1<=10 & $2<=$1)\n",
                RenderConstraintSet(full.qrp_constraints.at(a),
                                    *in.program.symbols, DollarNames())
                    .c_str());
  }
  // Iteration counts vs the Theorem 5.1 bound (Example 5.1: at most 256
  // disjuncts for arity 2 and one constant; observed: 2-3 iterations).
  {
    ParsedInput in = ParseWithQueryOrDie(
        "r1: q(X, Y) :- a(X, Y), X <= 10, Y <= X.\n"
        "r2: a(X, Y) :- p(X, Y), Y <= X.\n"
        "r3: a(X, Y) :- a(X, Z), Z <= X, a(Z, Y), Y <= Z.\n"
        "?- q(X, Y).\n");
    PredId q = in.program.symbols->LookupPredicate("q");
    auto qrp = ValueOrDie(GenQrpConstraints(in.program, q, {}), "qrp P1");
    std::printf("Gen_QRP iterations on P1: %d (Example 5.1: terminates in 2; "
                "bound 256)\n",
                qrp.iterations);
  }
  // Fact counts: pred,qrp prunes a/p facts that qrp alone cannot.
  std::printf("\n%8s %18s %18s\n", "|p|", "qrp facts", "pred,qrp facts");
  for (int n : {16, 32, 64}) {
    ParsedInput in = ParseWithQueryOrDie(kExample42);
    Database db;
    (void)AddBinaryRelation(in.program.symbols.get(), "p", n, 30, 5, &db);
    EvalResult qrp = RunPipeline(in, db, "qrp", {}, 32);
    EvalResult both = RunPipeline(in, db, "pred,qrp", {}, 32);
    std::printf("%8d %18zu %18zu\n", n, qrp.db.TotalFacts() - db.TotalFacts(),
                both.db.TotalFacts() - db.TotalFacts());
  }
  std::printf("\n");
}

}  // namespace
}  // namespace bench
}  // namespace cqlopt

int main() {
  cqlopt::bench::PrintReproduction();
  return 0;
}
