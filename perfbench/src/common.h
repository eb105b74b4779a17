#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the three workloads: command-line options, the metric
// report every run prints, cold-start resets, and counter snapshots of the
// process-wide decision tiers.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "eval/seminaive.h"
#include "trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for span logs, WAL directories and
  /// the serve loop's unix socket.
  std::string workdir = ".";
  /// The checkout root, where programs/ lives.
  std::string root = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports. Both metric lists are filled on every run; the
/// caller prints `end_to_end` with --trace 0 and `per_layer` with
/// --trace 1. Per-layer metrics a workload does not exercise stay 0.
struct Report {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> end_to_end;
  std::map<std::string, double> per_layer;
  /// Human-readable lines printed before the result (sample counts,
  /// accepted/rejected inputs, which percentile a tail metric is).
  std::vector<std::string> notes;

  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

/// The per-layer metric names every run reports, in print order, with
/// their units. BENCHMARK.json's per_layer list mirrors this table.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// The end-to-end metric names every run reports, with their units.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

/// The paper's Example 1.1 / 4.3 flights program (no query line).
const char* FlightsRules();

/// Clears the process-wide DecisionCache and the prepass verdict memo, so
/// the next request starts cold.
void ResetDecisionState();

/// Process-wide decision-tier counters (DecisionCache + prepass); the
/// difference of two snapshots around one single-threaded request is that
/// request's work.
struct DecisionCounters {
  long cache_hits = 0;
  long cache_misses = 0;
  long prepass_conclusive = 0;
  long prepass_fallback = 0;

  static DecisionCounters Now();
  DecisionCounters operator-(const DecisionCounters& before) const;
};

/// Adds one request's evaluation and decision counters to the per-layer
/// sums (eval.*, constraint.*). Ratios are derived by FinishLayerMetrics.
void AccumulateEval(const cqlopt::EvalResult& eval,
                    std::map<std::string, double>* sums);
void AccumulateDecisions(const DecisionCounters& d,
                         std::map<std::string, double>* sums);

/// Turns per-layer sums over `requests` into per-request means and fills
/// the ratio metrics (eval.useful_ratio, constraint.*_ratio,
/// constraint.decisions_per_derivation, eval.bytes_per_fact from the
/// "eval.bytes" / "eval.facts" sums).
void FinishLayerMetrics(long requests, std::map<std::string, double>* sums);

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

double MsSince(int64_t start_ns);

std::string Fmt(const char* format, double value);

/// "N samples, min X, p10 X, ..., p99 X ms": the shape of one latency
/// sample, for the notes.
std::string Quantiles(const std::vector<double>& ms);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
