#ifndef CQLOPT_BENCH_BENCH_UTIL_H_
#define CQLOPT_BENCH_BENCH_UTIL_H_

// Shared helpers for the paper reproductions. Each bench binary prints the
// paper artifact it regenerates (table rows / fact counts / derivation
// traces); none of them times anything (perfbench/run.py does).
// EXPERIMENTS.md records paper-vs-measured for each binary.

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "ast/printer.h"
#include "core/equivalence.h"
#include "core/workload.h"
#include "eval/seminaive.h"
#include "transform/pipeline.h"

namespace cqlopt {
namespace bench {

struct ParsedInput {
  Program program;
  Query query;
};

inline ParsedInput ParseWithQueryOrDie(const std::string& text) {
  auto parsed = ParseProgram(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.status().ToString().c_str());
    std::abort();
  }
  if (parsed->queries.size() != 1) {
    std::fprintf(stderr, "expected exactly one query\n");
    std::abort();
  }
  return ParsedInput{parsed->program, parsed->queries[0]};
}

template <typename T>
T ValueOrDie(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

/// The paper's Example 1.1 / 4.3 flights program.
inline const char* FlightsProgram() {
  return "r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.\n"
         "r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.\n"
         "r3: flight(S, D, T, C) :- singleleg(S, D, T, C), C > 0, T > 0.\n"
         "r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), "
         "flight(D1, D, T2, C2), T = T1 + T2 + 30, C = C1 + C2.\n"
         "?- cheaporshort(a5, a9, Time, Cost).\n";
}

/// The paper's Example 1.2 backward-Fibonacci program.
inline const char* FibProgram() {
  return "r1: fib(0, 1).\n"
         "r2: fib(1, 1).\n"
         "r3: fib(N, X1 + X2) :- N > 1, fib(N - 1, X1), fib(N - 2, X2).\n"
         "?- fib(N, 5).\n";
}

/// Runs a rewritten pipeline on a database and returns the evaluation.
inline EvalResult RunPipeline(const ParsedInput& in, const Database& db,
                              const char* spec,
                              const PipelineOptions& options = {},
                              int max_iterations = 256) {
  auto steps = ValueOrDie(ParseSteps(spec), "steps");
  auto rewritten =
      ValueOrDie(ApplyPipeline(in.program, in.query, steps, options), spec);
  EvalOptions eval;
  eval.max_iterations = max_iterations;
  return ValueOrDie(Evaluate(rewritten.program, db, eval), spec);
}

/// Plan comparison: evaluates `program` under the global semi-naive plan
/// (EvalStrategy::kSemiNaive) and under EvalStrategy::kStratified, verifies
/// both compute the same final fact sets, and prints the stratified run's
/// join access-path counters. The
/// "scan-equivalent" column is what the linear scans replaced by index
/// probes would have enumerated, so indexed vs scan-equivalent is the
/// candidate-enumeration saving of the hash indexes on this workload.
inline void PrintStratifiedComparison(const Program& program,
                                      const Database& edb, const char* label,
                                      int max_iterations = 64) {
  EvalOptions global_opts;
  global_opts.max_iterations = max_iterations;
  EvalResult global = ValueOrDie(Evaluate(program, edb, global_opts), label);
  EvalOptions strat_opts;
  strat_opts.max_iterations = max_iterations;
  strat_opts.strategy = EvalStrategy::kStratified;
  EvalResult strat = ValueOrDie(Evaluate(program, edb, strat_opts), label);

  // Per-predicate canonical key sets; on mismatch fall back to the semantic
  // check (reconciliation may keep different but equivalent representatives).
  bool same = global.stats.reached_fixpoint == strat.stats.reached_fixpoint;
  std::set<PredId> preds;
  for (const auto& [pred, rel] : global.db.relations()) preds.insert(pred);
  for (const auto& [pred, rel] : strat.db.relations()) preds.insert(pred);
  for (PredId pred : preds) {
    std::set<std::string> a;
    std::set<std::string> b;
    std::vector<Fact> fa;
    std::vector<Fact> fb;
    if (const Relation* rel = global.db.Find(pred)) {
      for (size_t i = 0; i < rel->size(); ++i) {
        a.insert(rel->fact(i).Key());
        fa.push_back(rel->fact(i));
      }
    }
    if (const Relation* rel = strat.db.Find(pred)) {
      for (size_t i = 0; i < rel->size(); ++i) {
        b.insert(rel->fact(i).Key());
        fb.push_back(rel->fact(i));
      }
    }
    if (a == b) continue;
    if (fa.empty() != fb.empty() || !SameAnswers(fa, fb)) same = false;
  }

  const EvalStats& s = strat.stats;
  std::printf("--- SCC-stratified vs global semi-naive (%s) ---\n", label);
  std::printf("same final facts: %s   sccs=%zu   iterations: seminaive=%d "
              "stratified=%d\n",
              same ? "yes" : "NO (MISMATCH)", s.scc_iterations.size(),
              global.stats.iterations, s.iterations);
  double ratio = s.index_candidates > 0
                     ? static_cast<double>(s.indexed_scan_equivalent) /
                           static_cast<double>(s.index_candidates)
                     : 0.0;
  std::printf("join candidates at indexed probes: enumerated=%ld "
              "scan-equivalent=%ld (%.1fx fewer); scan-path probes=%ld "
              "candidates=%ld\n",
              s.index_candidates, s.indexed_scan_equivalent, ratio,
              s.scan_probes, s.scan_candidates);
  long lookups = s.cache_hits + s.cache_misses;
  if (lookups > 0) {
    std::printf("decision cache: hits=%ld misses=%ld hit-rate=%.1f%%",
                s.cache_hits, s.cache_misses,
                100.0 * static_cast<double>(s.cache_hits) /
                    static_cast<double>(lookups));
    if (s.cache_evictions > 0) {
      std::printf(" evictions=%ld", s.cache_evictions);
    }
    std::printf("\n");
  }
}

}  // namespace bench
}  // namespace cqlopt

#endif  // CQLOPT_BENCH_BENCH_UTIL_H_
