// Experiment E8 (DESIGN.md): Section 5 / Theorem 5.1 — for constraint query
// languages restricted to order constraints (X op Y, X op c), the
// QRP-generation fixpoint always terminates: with predicates of arity k
// there are at most 2k^2 + 4k "simple" constraints, hence at most
// 2^(2k^2+4k) disjuncts per predicate, bounding the iteration count.
//
// We regenerate the observation of Example 5.1 — the procedure terminates
// in a couple of iterations, wildly below the combinatorial bound — across
// generated order-constraint programs of growing arity and recursion depth.

#include "bench_util.h"
#include "transform/qrp_constraints.h"

namespace cqlopt {
namespace bench {
namespace {

/// Generates an order-constraint chain program of `depth` derived
/// predicates of arity `k`: each p_i calls p_{i+1} with one more order
/// constraint between adjacent arguments, the last calls the EDB.
std::string OrderConstraintProgram(int k, int depth) {
  auto args = [&](int arity) {
    std::string out;
    for (int i = 0; i < arity; ++i) {
      if (i > 0) out += ", ";
      out += "X" + std::to_string(i);
    }
    return out;
  };
  std::string text = "q(" + args(k) + ") :- p0(" + args(k) + "), X0 <= 10.\n";
  for (int d = 0; d < depth; ++d) {
    std::string head = "p" + std::to_string(d);
    std::string callee =
        d + 1 < depth ? "p" + std::to_string(d + 1) : "base";
    text += head + "(" + args(k) + ") :- " + callee + "(" + args(k) + ")";
    // One order constraint per level, cycling over adjacent argument pairs.
    if (k >= 2) {
      int i = d % (k - 1);
      text += ", X" + std::to_string(i) + " <= X" + std::to_string(i + 1);
    }
    text += ".\n";
  }
  // A recursive tail to make the fixpoint non-trivial.
  text += "p0(" + args(k) + ") :- p0(" + args(k) + "), X0 <= 10.\n";
  text += "?- q(" + args(k) + ").\n";
  return text;
}

long TheoremBound(int n_preds, int k) {
  // n * 2^(2k^2 + 4k), saturated to avoid overflow in the printout.
  long exponent = 2L * k * k + 4L * k;
  if (exponent > 40) return -1;  // effectively astronomic
  return n_preds * (1L << exponent);
}

void PrintReproduction() {
  std::printf("=== Section 5: termination on the order-constraint class "
              "===\n");
  std::printf("%6s %6s %12s %16s %10s\n", "arity", "depth", "iterations",
              "bound n*2^(2k²+4k)", "converged");
  for (int k : {1, 2, 3}) {
    for (int depth : {2, 4, 8}) {
      ParsedInput in = ParseWithQueryOrDie(OrderConstraintProgram(k, depth));
      PredId q = in.program.symbols->LookupPredicate("q");
      InferenceOptions options;
      options.max_iterations = 512;
      options.max_disjuncts = 512;
      auto qrp = ValueOrDie(GenQrpConstraints(in.program, q, options), "qrp");
      long bound = TheoremBound(depth + 1, k);
      std::string bound_str = bound < 0 ? ">>10^12" : std::to_string(bound);
      std::printf("%6d %6d %12d %16s %10s\n", k, depth, qrp.iterations,
                  bound_str.c_str(),
                  qrp.converged ? "yes" : "NO (MISMATCH)");
    }
  }
  // Example 5.1 itself.
  {
    ParsedInput in = ParseWithQueryOrDie(
        "r1: q(X, Y) :- a(X, Y), X <= 10, Y <= X.\n"
        "r2: a(X, Y) :- p(X, Y), Y <= X.\n"
        "r3: a(X, Y) :- a(X, Z), Z <= X, a(Z, Y), Y <= Z.\n"
        "?- q(X, Y).\n");
    PredId q = in.program.symbols->LookupPredicate("q");
    auto qrp = ValueOrDie(GenQrpConstraints(in.program, q, {}), "qrp");
    std::printf("Example 5.1: iterations=%d converged=%s "
                "(paper: terminates in 2; bound 256)\n\n",
                qrp.iterations, qrp.converged ? "yes" : "NO");
  }
}

}  // namespace
}  // namespace bench
}  // namespace cqlopt

int main() {
  cqlopt::bench::PrintReproduction();
  return 0;
}
