#include "common.h"

#include <sys/resource.h>

#include <cstdio>

#include "constraint/decision_cache.h"
#include "constraint/interval.h"
#include "stats.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"query_fast_ms", "ms"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"ast.parse_ms", "ms"},
      {"transform.pipeline_ms", "ms"},
      {"transform.pred_ms", "ms"},
      {"transform.qrp_ms", "ms"},
      {"transform.mg_ms", "ms"},
      {"transform.balbin_ms", "ms"},
      {"transform.gmt_ms", "ms"},
      {"transform.rules_out", "count"},
      {"transform.rewrite_ms_geomean", "ms"},
      {"eval.load_ms", "ms"},
      {"eval.evaluate_ms", "ms"},
      {"eval.answers_ms", "ms"},
      {"eval.run_ms_geomean", "ms"},
      {"eval.derivations", "count"},
      {"eval.inserted", "count"},
      {"eval.useful_ratio", "ratio"},
      {"eval.iterations", "count"},
      {"eval.index_candidates", "count"},
      {"eval.scan_candidates", "count"},
      {"eval.interval_candidates", "count"},
      {"eval.interval_runs_pruned", "count"},
      {"eval.interval_build_ms", "ms"},
      {"eval.bytes_per_fact", "B"},
      {"constraint.cache_hits", "count"},
      {"constraint.cache_misses", "count"},
      {"constraint.cache_hit_ratio", "ratio"},
      {"constraint.prepass_conclusive", "count"},
      {"constraint.prepass_fallback", "count"},
      {"constraint.prepass_conclusive_ratio", "ratio"},
      {"constraint.decisions_per_derivation", "ratio"},
      {"service.execute_ms.epoch-hit", "ms"},
      {"service.execute_ms.resumed", "ms"},
      {"service.catchup_ms.retract", "ms"},
      {"service.resumed_iterations", "count"},
      {"service.retract_resumes", "count"},
      {"service.execute_ms.cold", "ms"},
      {"service.prepared_hit_ratio", "ratio"},
      {"service.ingest_ms", "ms"},
      {"service.retract_ms", "ms"},
      {"service.wal_bytes_per_batch", "B"},
      {"service.sched_wait_ms", "ms"},
      {"service.sched_run_ms", "ms"},
      {"service.server_ms", "ms"},
      {"client.query_p50_ms", "ms"},
      {"client.query_tail_ms", "ms"},
      {"client.queries_per_s", "1/s"},
      {"client.ingest_p50_ms", "ms"},
      {"client.ingest_tail_ms", "ms"},
      {"client.retract_p50_ms", "ms"},
      {"client.failed_frac", "ratio"},
      {"bench.generator_lag_ms", "ms"},
      {"bench.utilisation", "ratio"},
      {"bench.trace_overhead_pct", "%"},
      {"bench.uncovered_frac", "ratio"},
  };
  return kMetrics;
}

const char* FlightsRules() {
  return "r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.\n"
         "r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.\n"
         "r3: flight(S, D, T, C) :- singleleg(S, D, T, C), C > 0, T > 0.\n"
         "r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), "
         "flight(D1, D, T2, C2), T = T1 + T2 + 30, C = C1 + C2.\n";
}

void ResetDecisionState() {
  cqlopt::DecisionCache::Instance().Clear();
  cqlopt::prepass::ClearMemo();
}

DecisionCounters DecisionCounters::Now() {
  cqlopt::DecisionCache::Counters cache =
      cqlopt::DecisionCache::Instance().Snapshot();
  cqlopt::prepass::Counters pre = cqlopt::prepass::Snapshot();
  DecisionCounters out;
  out.cache_hits = cache.hits;
  out.cache_misses = cache.misses;
  out.prepass_conclusive = pre.conclusive();
  out.prepass_fallback = pre.fallback;
  return out;
}

DecisionCounters DecisionCounters::operator-(
    const DecisionCounters& before) const {
  DecisionCounters d;
  d.cache_hits = cache_hits - before.cache_hits;
  d.cache_misses = cache_misses - before.cache_misses;
  d.prepass_conclusive = prepass_conclusive - before.prepass_conclusive;
  d.prepass_fallback = prepass_fallback - before.prepass_fallback;
  return d;
}

void AccumulateEval(const cqlopt::EvalResult& eval,
                    std::map<std::string, double>* sums) {
  const cqlopt::EvalStats& s = eval.stats;
  auto& m = *sums;
  m["eval.derivations"] += static_cast<double>(s.derivations);
  m["eval.inserted"] += static_cast<double>(s.inserted);
  m["eval.iterations"] += s.iterations;
  m["eval.index_candidates"] += static_cast<double>(s.index_candidates);
  m["eval.scan_candidates"] += static_cast<double>(s.scan_candidates);
  m["eval.interval_candidates"] += static_cast<double>(s.interval_candidates);
  m["eval.interval_runs_pruned"] +=
      static_cast<double>(s.interval_runs_pruned);
  m["eval.interval_build_ms"] +=
      static_cast<double>(s.interval_index_build_ns) / 1e6;
  m["eval.bytes"] += static_cast<double>(eval.db.ApproxBytes());
  m["eval.facts"] += static_cast<double>(eval.db.TotalFacts());
}

void AccumulateDecisions(const DecisionCounters& d,
                         std::map<std::string, double>* sums) {
  auto& m = *sums;
  m["constraint.cache_hits"] += static_cast<double>(d.cache_hits);
  m["constraint.cache_misses"] += static_cast<double>(d.cache_misses);
  m["constraint.prepass_conclusive"] +=
      static_cast<double>(d.prepass_conclusive);
  m["constraint.prepass_fallback"] += static_cast<double>(d.prepass_fallback);
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void FinishLayerMetrics(long requests, std::map<std::string, double>* sums) {
  auto& m = *sums;
  double hits = m["constraint.cache_hits"];
  double misses = m["constraint.cache_misses"];
  double conclusive = m["constraint.prepass_conclusive"];
  double fallback = m["constraint.prepass_fallback"];
  double derivations = m["eval.derivations"];
  m["eval.useful_ratio"] = Ratio(m["eval.inserted"], derivations);
  m["eval.bytes_per_fact"] = Ratio(m["eval.bytes"], m["eval.facts"]);
  m["constraint.cache_hit_ratio"] = Ratio(hits, hits + misses);
  m["constraint.prepass_conclusive_ratio"] =
      Ratio(conclusive, conclusive + fallback);
  m["constraint.decisions_per_derivation"] =
      Ratio(hits + misses + conclusive, derivations);
  m.erase("eval.bytes");
  m.erase("eval.facts");
  static const char* kPerRequest[] = {
      "eval.derivations",       "eval.inserted",
      "eval.iterations",        "eval.index_candidates",
      "eval.scan_candidates",   "eval.interval_candidates",
      "eval.interval_runs_pruned", "eval.interval_build_ms",
      "constraint.cache_hits",  "constraint.cache_misses",
      "constraint.prepass_conclusive", "constraint.prepass_fallback",
  };
  if (requests <= 0) return;
  for (const char* name : kPerRequest) {
    m[name] /= static_cast<double>(requests);
  }
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

std::string Quantiles(const std::vector<double>& ms) {
  std::string out = std::to_string(ms.size()) + " samples, min " +
                    Fmt("%.3f", NearestRank(ms, 0).value);
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    out += ", p" + Fmt("%g", 100 * q) + " " +
           Fmt("%.3f", NearestRank(ms, q).value);
  }
  return out + " ms";
}

}  // namespace perfbench
