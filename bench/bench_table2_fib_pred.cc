// Experiment T2 (DESIGN.md): reproduces **Table 2** — derivations in a
// bottom-up evaluation of P_fib,1^mg: the backward Fibonacci program with
// the predicate constraint $2 >= 1 propagated into rule bodies
// (Example 4.4), then Magic-Templates-rewritten.
//
// The paper hand-picks $2 >= 1 ("though not the minimum" — fib's minimum
// predicate constraint has no finite representation, Theorem 3.1), so this
// bench supplies it via PropagateGivenConstraints.
//
// Paper claims reproduced:
//   - iteration 1 computes m_fib(N1, V1; N1 > 0, V1 >= 1, V1 <= 4);
//   - the answer fib(4, 5) is computed in iteration 7;
//   - the evaluation terminates after iteration 8;
//   - ?- fib(N, 6) terminates answering "no" (Example 4.4).

#include "bench_util.h"
#include "transform/magic.h"
#include "transform/predicate_constraints.h"

namespace cqlopt {
namespace bench {
namespace {

ConstraintSet SecondArgAtLeastOne() {
  Conjunction c;
  LinearExpr e = LinearExpr::Constant(Rational(1)) - LinearExpr::Var(2);
  (void)c.AddLinear(LinearConstraint(e, CmpOp::kLe));
  return ConstraintSet::Of(c);
}

Program Pfib1(const ParsedInput& in) {
  std::map<PredId, ConstraintSet> given;
  given[in.program.symbols->LookupPredicate("fib")] = SecondArgAtLeastOne();
  return ValueOrDie(PropagateGivenConstraints(in.program, given),
                    "propagate $2 >= 1");
}

void PrintReproduction() {
  ParsedInput in = ParseWithQueryOrDie(FibProgram());
  Program pfib1 = Pfib1(in);
  MagicOptions options;
  options.sips = SipStrategy::kFullLeftToRight;
  auto magic = ValueOrDie(MagicTemplates(pfib1, in.query, options), "magic");
  std::printf("=== Table 2: derivations in a bottom-up evaluation of "
              "P_fib,1^mg ===\n");
  std::printf("--- program P_fib,1^mg ---\n%s",
              RenderProgram(magic.program).c_str());
  EvalOptions eval;
  eval.max_iterations = 40;
  eval.record_trace = true;
  auto run = ValueOrDie(Evaluate(magic.program, Database(), eval), "eval");
  std::printf("--- derivations ---\n%s", RenderTrace(run.trace).c_str());
  std::printf("fixpoint reached: %s after %d iterations "
              "(paper: terminates after iteration 8)\n",
              run.stats.reached_fixpoint ? "yes" : "NO (MISMATCH)",
              run.stats.iterations - 1);
  auto answers = ValueOrDie(QueryAnswers(run, magic.query), "answers");
  for (const Fact& f : answers) {
    std::printf("answer: %s\n", f.ToString(*in.program.symbols).c_str());
  }

  // Example 4.4's second claim: ?- fib(N, 6) terminates with "no".
  Program program = in.program;
  auto query6 = ValueOrDie(ParseQueryText("?- fib(N, 6).", &program),
                           "query fib(N, 6)");
  auto magic6 = ValueOrDie(MagicTemplates(pfib1, query6, options), "magic6");
  EvalOptions eval6;
  eval6.max_iterations = 64;
  auto run6 = ValueOrDie(Evaluate(magic6.program, Database(), eval6), "eval6");
  auto answers6 = ValueOrDie(QueryAnswers(run6, magic6.query), "answers6");
  std::printf("?- fib(N, 6): fixpoint=%s answers=%zu "
              "(paper: terminates, answers no)\n",
              run6.stats.reached_fixpoint ? "yes" : "NO (MISMATCH)",
              answers6.size());

  // Extension beyond the paper: the pred step derives the predicate
  // constraint by widening instead of hand-picking $2 >= 1.
  InferenceResult widened;
  auto auto_propagated = ValueOrDie(
      PropagatePredicateConstraints(in.program, {}, {}, &widened), "pred");
  PredId fib = in.program.symbols->LookupPredicate("fib");
  std::printf("\n--- extension: widening-derived predicate constraint ---\n");
  std::printf("fib: %s (paper hand-picks $2 >= 1; converged=%s)\n",
              RenderConstraintSet(widened.constraints.at(fib),
                                  *in.program.symbols, DollarNames())
                  .c_str(),
              widened.converged ? "yes" : "NO");
  auto auto_magic =
      ValueOrDie(MagicTemplates(auto_propagated, in.query, options), "magic");
  EvalOptions auto_eval;
  auto_eval.max_iterations = 64;
  auto auto_run =
      ValueOrDie(Evaluate(auto_magic.program, Database(), auto_eval), "eval");
  auto auto_answers =
      ValueOrDie(QueryAnswers(auto_run, auto_magic.query), "answers");
  std::printf("fully automatic Table 2: fixpoint=%s answers=%zu\n\n",
              auto_run.stats.reached_fixpoint ? "yes" : "NO (MISMATCH)",
              auto_answers.size());

  // Tentpole comparison on the terminating program: both strategies reach
  // the same fixpoint; the index resolves the constant-bound magic
  // literals.
  PrintStratifiedComparison(magic.program, Database(), "P_fib,1^mg", 40);
  std::printf("\n");
}

}  // namespace
}  // namespace bench
}  // namespace cqlopt

int main() {
  cqlopt::bench::PrintReproduction();
  return 0;
}
