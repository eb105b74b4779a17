// Experiment T1 (DESIGN.md): reproduces **Table 1** — the per-iteration
// derivations of the semi-naive bottom-up evaluation of P_fib^mg, the Magic
// Templates rewriting (complete left-to-right sips) of the backward
// Fibonacci program queried with ?- fib(N, 5).
//
// Paper claims reproduced:
//   - iteration 0 derives the seed m_fib(N1, 5);
//   - iteration 1 derives the constraint fact m_fib(N1, V1; N1 > 0);
//   - the answer fib(4, 5) appears in iteration 7;
//   - subsumed facts (the paper's boldface; our *...*) are discarded;
//   - the evaluation computes constraint facts and NEVER terminates —
//     shown here by running to an iteration cap without a fixpoint.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "transform/magic.h"

namespace cqlopt {
namespace bench {
namespace {

MagicResult RewriteFib() {
  ParsedInput in = ParseWithQueryOrDie(FibProgram());
  MagicOptions options;
  options.sips = SipStrategy::kFullLeftToRight;
  return ValueOrDie(MagicTemplates(in.program, in.query, options), "magic");
}

void PrintReproduction() {
  ParsedInput in = ParseWithQueryOrDie(FibProgram());
  MagicResult magic = RewriteFib();
  std::printf("=== Table 1: derivations in a bottom-up evaluation of "
              "P_fib^mg ===\n");
  std::printf("--- program P_fib^mg ---\n%s",
              RenderProgram(magic.program).c_str());
  EvalOptions eval;
  eval.max_iterations = 9;  // the table shows iterations 0..8
  eval.record_trace = true;
  auto run = ValueOrDie(Evaluate(magic.program, Database(), eval), "eval");
  std::printf("--- derivations (paper's boldface rendered as *fact*) ---\n%s",
              RenderTrace(run.trace).c_str());
  std::printf("fixpoint reached: %s (paper: evaluation does not terminate)\n",
              run.stats.reached_fixpoint ? "YES (MISMATCH)" : "no");
  std::printf("ground facts only: %s (paper: constraint facts for m_fib)\n",
              run.stats.all_ground ? "YES (MISMATCH)" : "no");
  auto answers = ValueOrDie(QueryAnswers(run, magic.query), "answers");
  for (const Fact& f : answers) {
    std::printf("answer: %s (paper: fib(4,5) in iteration 7)\n",
                f.ToString(*in.program.symbols).c_str());
  }
  std::printf("\n");

  // Plan comparison at the same iteration cap: m_fib and fib form one SCC,
  // so the stratified run coincides with the global plan's trace; the
  // index counters show the hash index resolving the constant-bound
  // m_fib/fib literals of r1, r2 and the second magic rule without
  // scanning every fact.
  PrintStratifiedComparison(magic.program, Database(),
                            "P_fib^mg, capped at 9 iterations", 9);
  std::printf("\n");
}

void BM_MagicRewriteFib(benchmark::State& state) {
  ParsedInput in = ParseWithQueryOrDie(FibProgram());
  MagicOptions options;
  options.sips = SipStrategy::kFullLeftToRight;
  for (auto _ : state) {
    auto magic = MagicTemplates(in.program, in.query, options);
    benchmark::DoNotOptimize(magic.ok());
  }
}
BENCHMARK(BM_MagicRewriteFib);

void BM_EvaluateFibMagicCapped(benchmark::State& state) {
  MagicResult magic = RewriteFib();
  EvalOptions eval;
  eval.max_iterations = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto run = Evaluate(magic.program, Database(), eval);
    benchmark::DoNotOptimize(run.ok());
  }
  state.SetLabel("iterations=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_EvaluateFibMagicCapped)->Arg(9)->Arg(16)->Arg(24);

void BM_EvaluateFibMagicCappedStratified(benchmark::State& state) {
  MagicResult magic = RewriteFib();
  EvalOptions eval;
  eval.max_iterations = static_cast<int>(state.range(0));
  eval.strategy = EvalStrategy::kStratified;
  for (auto _ : state) {
    auto run = Evaluate(magic.program, Database(), eval);
    benchmark::DoNotOptimize(run.ok());
  }
  state.SetLabel("iterations=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_EvaluateFibMagicCappedStratified)->Arg(9)->Arg(16)->Arg(24);

}  // namespace
}  // namespace bench
}  // namespace cqlopt

int main(int argc, char** argv) {
  bool json = cqlopt::bench::StripJsonFlag(&argc, argv);
  cqlopt::bench::PrintReproduction();
  if (json) {
    cqlopt::MagicResult magic = cqlopt::bench::RewriteFib();
    // The evaluation never terminates (the point of Table 1); measure the
    // same capped prefix google-benchmark times below.
    cqlopt::bench::WriteBenchJson("table1_fib_magic", magic.program,
                                  cqlopt::Database(), /*max_iterations=*/24);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
