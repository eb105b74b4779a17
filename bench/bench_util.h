#ifndef CQLOPT_BENCH_BENCH_UTIL_H_
#define CQLOPT_BENCH_BENCH_UTIL_H_

// Shared helpers for the benchmark harnesses. Each bench binary first
// prints the paper artifact it regenerates (table rows / fact counts /
// derivation traces), then runs google-benchmark timings of the underlying
// computation. EXPERIMENTS.md records paper-vs-measured for each binary.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "ast/printer.h"
#include "constraint/decision_cache.h"
#include "constraint/decision_scope.h"
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

/// Removes `--json` from argv (so google-benchmark never sees it) and
/// reports whether it was present. Call before benchmark::Initialize.
inline bool StripJsonFlag(int* argc, char** argv) {
  bool found = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      found = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return found;
}

/// One measured arm of a WriteBenchJson report.
struct JsonArm {
  std::string label;
  EvalStrategy strategy = EvalStrategy::kStratified;
  bool cache = true;
  bool interval = true;
};

/// `--json` mode: evaluates `program` once per arm — the global semi-naive
/// plan, the stratified plan, and stratified cache-off /
/// interval-index-off ablations — and writes
/// BENCH_<name>.json with the wall-clock and the
/// derivation/probe/cache/interval counters of each arm, plus the
/// columnar-storage footprint (approximate resident bytes and bytes per
/// stored fact of the final database). The decision cache is cleared before
/// every arm so each measures a cold start (hits within an arm are real
/// re-decisions saved, not leftovers of the previous arm). `extra_sections`,
/// when nonempty, is spliced into the report as additional top-level JSON
/// members (no leading comma) — bench_flights uses it for the
/// constrained-join interval ablation.
inline void WriteBenchJson(const char* name, const Program& program,
                           const Database& edb, int max_iterations = 64,
                           const std::string& extra_sections = "") {
  const JsonArm arms[] = {
      {"seminaive", EvalStrategy::kSemiNaive, true, true},
      {"stratified", EvalStrategy::kStratified, true, true},
      {"stratified-nocache", EvalStrategy::kStratified, false, true},
      {"stratified-nointerval", EvalStrategy::kStratified, true, false},
  };
  std::string json = "{\n  \"bench\": \"" + std::string(name) +
                     "\",\n  \"arms\": [\n";
  bool first = true;
  for (const JsonArm& arm : arms) {
    DecisionScope tiers({.cache = arm.cache});
    DecisionCache::Instance().Clear();
    EvalOptions opts;
    opts.max_iterations = max_iterations;
    opts.strategy = arm.strategy;
    opts.interval_index = arm.interval;
    auto start = std::chrono::steady_clock::now();
    EvalResult run = ValueOrDie(Evaluate(program, edb, opts),
                                arm.label.c_str());
    double wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    const EvalStats& s = run.stats;
    size_t resident = run.db.ApproxBytes();
    size_t facts = run.db.TotalFacts();
    double bytes_per_fact =
        facts > 0 ? static_cast<double>(resident) / facts : 0.0;
    char row[1280];
    std::snprintf(
        row, sizeof(row),
        "    {\"label\": \"%s\", \"cache\": %s, "
        "\"interval\": %s, \"wall_ms\": %.3f, "
        "\"derivations\": %ld, "
        "\"inserted\": %ld, \"subsumed\": %ld, \"duplicates\": %ld, "
        "\"iterations\": %d, \"index_probes\": %ld, \"scan_probes\": %ld, "
        "\"interval_probes\": %ld, \"interval_candidates\": %ld, "
        "\"interval_scan_equivalent\": %ld, \"interval_runs_pruned\": %ld, "
        "\"interval_build_ms\": %.3f, "
        "\"resident_bytes\": %zu, \"bytes_per_fact\": %.1f, "
        "\"cache_hits\": %ld, \"cache_misses\": %ld, "
        "\"cache_evictions\": %ld}",
        arm.label.c_str(), arm.cache ? "true" : "false",
        arm.interval ? "true" : "false",
        wall_ms, s.derivations, s.inserted,
        s.subsumed, s.duplicates, s.iterations, s.index_probes, s.scan_probes,
        s.interval_probes, s.interval_candidates, s.interval_scan_equivalent,
        s.interval_runs_pruned, s.interval_index_build_ns / 1e6,
        resident, bytes_per_fact,
        s.cache_hits, s.cache_misses, s.cache_evictions);
    if (!first) json += ",\n";
    json += row;
    first = false;
  }
  json += "\n  ]";
  if (!extra_sections.empty()) json += ",\n  " + extra_sections;
  json += "\n}\n";
  std::string path = "BENCH_" + std::string(name) + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::abort();
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

/// Measures the interval-index ablation on one workload — stratified,
/// interval pruning on vs off, cold decision cache, median
/// of `reps` runs — and returns it as a one-line JSON member
/// `"constrained_join": {...}` for WriteBenchJson's extra_sections. The
/// headline numbers: `speedup` (wall off / wall on) and `candidate_cut`
/// (scan-equivalent candidates / candidates actually enumerated at interval
/// probes), i.e. how many join candidates the sorted-run binary searches
/// skipped without touching them.
inline std::string MeasureIntervalAblation(const char* label,
                                           const Program& program,
                                           const Database& edb,
                                           int max_iterations = 64,
                                           int reps = 5) {
  double wall[2] = {0, 0};  // [0] = interval on, [1] = off.
  EvalStats stats[2];
  for (int arm = 0; arm < 2; ++arm) {
    std::vector<double> walls;
    for (int rep = 0; rep < reps; ++rep) {
      DecisionCache::Instance().Clear();
      EvalOptions opts;
      opts.max_iterations = max_iterations;
      opts.strategy = EvalStrategy::kStratified;
      opts.interval_index = arm == 0;
      auto start = std::chrono::steady_clock::now();
      EvalResult run = ValueOrDie(Evaluate(program, edb, opts), label);
      walls.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
      stats[arm] = run.stats;
    }
    std::sort(walls.begin(), walls.end());
    wall[arm] = walls[walls.size() / 2];
  }
  const EvalStats& on = stats[0];
  double speedup = wall[0] > 0 ? wall[1] / wall[0] : 0.0;
  double cut = on.interval_candidates > 0
                   ? static_cast<double>(on.interval_scan_equivalent) /
                         static_cast<double>(on.interval_candidates)
                   : 0.0;
  char row[768];
  std::snprintf(
      row, sizeof(row),
      "\"constrained_join\": {\"label\": \"%s\", \"reps\": %d, "
      "\"speedup\": %.2f, \"candidate_cut\": %.1f, "
      "\"wall_ms_interval_on\": %.3f, \"wall_ms_interval_off\": %.3f, "
      "\"interval_probes\": %ld, \"interval_candidates\": %ld, "
      "\"interval_scan_equivalent\": %ld, \"interval_runs_pruned\": %ld, "
      "\"interval_build_ms\": %.3f}",
      label, reps, speedup, cut, wall[0], wall[1], on.interval_probes,
      on.interval_candidates, on.interval_scan_equivalent,
      on.interval_runs_pruned, on.interval_index_build_ns / 1e6);
  std::printf("interval ablation (%s): on=%.3fms off=%.3fms speedup=%.2fx "
              "candidates=%ld scan-equivalent=%ld cut=%.1fx runs-pruned=%ld\n",
              label, wall[0], wall[1], speedup, on.interval_candidates,
              on.interval_scan_equivalent, cut, on.interval_runs_pruned);
  return row;
}

}  // namespace bench
}  // namespace cqlopt

#endif  // CQLOPT_BENCH_BENCH_UTIL_H_
