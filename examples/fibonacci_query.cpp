// Backward Fibonacci (the paper's Examples 1.2 and 4.4): given a value V,
// find the N with fib(N) = V — a query that runs *backwards* through a
// recursive arithmetic program.
//
// The plain Magic Templates rewriting of this program never terminates
// (Table 1). Propagating the predicate constraint fib: $2 >= 1 first makes
// the same evaluation terminate (Table 2) — including answering "no" for
// values that are not Fibonacci numbers.
//
// Usage:
//   ./build/examples/fibonacci_query [value]     (default 5)

#include <cstdio>
#include <cstdlib>
#include <string>

#include "ast/parser.h"
#include "core/equivalence.h"
#include "transform/magic.h"
#include "transform/predicate_constraints.h"

using cqlopt::ConstraintSet;
using cqlopt::Conjunction;
using cqlopt::Database;
using cqlopt::EvalOptions;
using cqlopt::Fact;
using cqlopt::LinearConstraint;
using cqlopt::LinearExpr;
using cqlopt::MagicOptions;
using cqlopt::Rational;
using cqlopt::SipStrategy;

int main(int argc, char** argv) {
  long value = argc > 1 ? std::atol(argv[1]) : 5;

  auto parsed = cqlopt::ParseProgram(R"(
    r1: fib(0, 1).
    r2: fib(1, 1).
    r3: fib(N, X1 + X2) :- N > 1, fib(N - 1, X1), fib(N - 2, X2).
  )");
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  cqlopt::Program& program = parsed->program;
  const cqlopt::SymbolTable& symbols = *program.symbols;

  // The predicate constraint of Example 4.4: every Fibonacci value is >= 1.
  // (The *minimum* predicate constraint of fib has no finite representation
  // — Theorem 3.1 — so this sound, hand-supplied one is what makes
  // termination possible.)
  Conjunction at_least_one;
  LinearExpr e = LinearExpr::Constant(Rational(1)) - LinearExpr::Var(2);
  (void)at_least_one.AddLinear(LinearConstraint(e, cqlopt::CmpOp::kLe));
  std::map<cqlopt::PredId, ConstraintSet> given;
  given[symbols.LookupPredicate("fib")] = ConstraintSet::Of(at_least_one);
  auto pfib1 = PropagateGivenConstraints(program, given);
  if (!pfib1.ok()) return 1;

  auto query = cqlopt::ParseQueryText(
      "?- fib(N, " + std::to_string(value) + ").", &program);
  if (!query.ok()) {
    std::fprintf(stderr, "query: %s\n", query.status().ToString().c_str());
    return 1;
  }

  MagicOptions magic_options;
  magic_options.sips = SipStrategy::kFullLeftToRight;
  auto magic = MagicTemplates(*pfib1, *query, magic_options);
  if (!magic.ok()) return 1;

  EvalOptions eval;
  eval.max_iterations = 512;
  auto run = cqlopt::Evaluate(magic->program, Database(), eval);
  if (!run.ok()) {
    std::fprintf(stderr, "eval: %s\n", run.status().ToString().c_str());
    return 1;
  }
  if (!run->stats.reached_fixpoint) {
    std::printf("evaluation hit the iteration cap (value too large?)\n");
    return 1;
  }
  auto answers = cqlopt::QueryAnswers(*run, magic->query);
  if (!answers.ok()) return 1;
  if (answers->empty()) {
    std::printf("no: %ld is not a Fibonacci number "
                "(and the evaluation proved it in %d iterations)\n",
                value, run->stats.iterations);
  } else {
    for (const Fact& f : *answers) {
      std::printf("yes: %s\n", f.ToString(symbols).c_str());
    }
  }
  std::printf("stats: %s\n", run->stats.ToString(symbols).c_str());
  return 0;
}
