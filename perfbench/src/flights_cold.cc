// flights_cold: the cold one-shot query on the original Example 1.1 flights
// program over ROADMAP's flights-48 network (12 airports, 48 legs). A
// closed loop with one caller; every request parses the program and the
// EDB text, applies the empty pipeline, evaluates SCC-stratified on a fresh
// database, and extracts the answers, with the decision cache and the
// prepass memo cleared first.
//
// The seed relabels the airports, shuffles the order the legs are listed
// in, and picks the queried airport pair. The network itself stays the one
// network generator seed 42 draws: other generator seeds give networks
// whose evaluation costs 0.6x to 10x as much, which would swamp every
// comparison between two runs.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>

#include "common.h"
#include "core/equivalence.h"
#include "core/workload.h"
#include "eval/loader.h"
#include "stats.h"
#include "testing/oracle.h"
#include "transform/pipeline.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cqlopt::Database;
using cqlopt::EvalOptions;
using cqlopt::EvalResult;
using cqlopt::Fact;

constexpr int kAirports = 12;
constexpr int kLegs = 48;
constexpr uint64_t kNetworkSeed = 42;
/// query_fast_ms is the fastest request of the run. Every request does the
/// same work, and a request costs ~0.4-0.7 s here, so a 30 s run holds
/// 40-75 samples. On a shared 4-vCPU x86-64 VM the speed of a request
/// flips between two modes ~1.5x apart every few seconds, process CPU time
/// included, so the request latencies of one run form two humps: the
/// median lands in either, by whichever mode held the machine for more
/// than half of the run, and moved by 0.2-0.3 of itself between runs.
/// Interference only ever slows a request, so the fastest one is the
/// steadiest reading of its cost: over 41 runs in windows of ten, its
/// spread was 0.05-0.12 of its median, p10's 0.05-0.32.

struct Inputs {
  std::string program_text;  // rules plus the seeded query
  std::string edb_text;      // the relabelled, shuffled legs
};

/// Set-up samples taken after the last request, besides one before each.
constexpr int kSetups = 25;
/// Requests answered and checked but not timed: a process's first seconds
/// ran up to a quarter slower on a shared 4-vCPU x86-64 VM.
constexpr int kWarmUp = 2;

/// Builds the request inputs from the seed: the benchmark's own work, not
/// timed.
Inputs MakeInputs(uint64_t seed) {
  auto parsed = cqlopt::ParseProgram(FlightsRules());
  Database base;
  cqlopt::FlightNetworkSpec spec;
  spec.airports = kAirports;
  spec.legs = kLegs;
  spec.seed = kNetworkSeed;
  (void)cqlopt::AddFlightNetwork(parsed->program.symbols.get(), spec, &base);

  std::mt19937_64 rng(seed);
  std::vector<int> label(kAirports);
  std::iota(label.begin(), label.end(), 0);
  std::shuffle(label.begin(), label.end(), rng);

  std::vector<std::string> legs;
  const cqlopt::Relation* rel = base.Find(
      parsed->program.symbols->LookupPredicate("singleleg"));
  for (size_t i = 0; rel != nullptr && i < rel->size(); ++i) {
    std::string text = rel->fact(i).ToString(*parsed->program.symbols);
    int src = 0, dst = 0, time = 0, cost = 0;
    if (std::sscanf(text.c_str(), "singleleg(a%d, a%d, %d, %d)", &src, &dst,
                    &time, &cost) != 4) {
      continue;
    }
    legs.push_back("singleleg(a" + std::to_string(label[src]) + ", a" +
                   std::to_string(label[dst]) + ", " + std::to_string(time) +
                   ", " + std::to_string(cost) + ").\n");
  }
  std::shuffle(legs.begin(), legs.end(), rng);

  // The queried pair, in the generator's airport order (a leg only goes
  // from a lower to a higher airport, so only those pairs can connect).
  std::uniform_int_distribution<int> pick(0, kAirports - 1);
  int from = pick(rng);
  int to = pick(rng);
  if (from == to) to = (to + 1) % kAirports;
  if (from > to) std::swap(from, to);

  Inputs in;
  in.program_text = std::string(FlightsRules()) + "?- cheaporshort(a" +
                    std::to_string(label[from]) + ", a" +
                    std::to_string(label[to]) + ", Time, Cost).\n";
  for (const std::string& leg : legs) in.edb_text += leg;
  return in;
}

struct RequestResult {
  bool ok = false;
  std::string error;
  double latency_ms = 0;
  double pipeline_ms = 0;
  double run_ms = 0;  // Evaluate + QueryAnswers
  size_t rules_out = 0;
  std::vector<Fact> answers;
  std::shared_ptr<cqlopt::SymbolTable> symbols;
  DecisionCounters decisions;
  EvalResult eval;
};

/// One cold request. With tracing on, spans cover each public call, as
/// children of one request span.
RequestResult RunRequest(const Inputs& in, Tracer* tracer, int64_t request) {
  RequestResult r;
  ResetDecisionState();
  DecisionCounters before = DecisionCounters::Now();
  int64_t start = NowNs();
  ScopedSpan root(tracer, "request", request);

  cqlopt::Result<cqlopt::ParseResult> parsed = [&] {
    ScopedSpan s(tracer, "ast.parse", request, root.id());
    return cqlopt::ParseProgram(in.program_text);
  }();
  if (!parsed.ok() || parsed->queries.size() != 1) {
    r.error = "parse failed";
    return r;
  }
  Database db;
  {
    ScopedSpan s(tracer, "eval.load", request, root.id());
    auto loaded =
        cqlopt::LoadDatabaseText(in.edb_text, parsed->program.symbols, &db);
    if (!loaded.ok()) {
      r.error = "EDB load failed: " + loaded.status().ToString();
      return r;
    }
  }
  int64_t pipeline_start = NowNs();
  cqlopt::Result<cqlopt::PipelineResult> rewritten = [&] {
    ScopedSpan s(tracer, "transform.pipeline", request, root.id());
    return cqlopt::ApplyPipeline(parsed->program, parsed->queries[0], {}, {});
  }();
  r.pipeline_ms = MsSince(pipeline_start);
  if (!rewritten.ok()) {
    r.error = "ApplyPipeline failed: " + rewritten.status().ToString();
    return r;
  }
  r.rules_out = rewritten->program.rules.size();
  int64_t run_start = NowNs();
  EvalOptions options;
  options.strategy = cqlopt::EvalStrategy::kStratified;
  cqlopt::Result<EvalResult> eval = [&] {
    ScopedSpan s(tracer, "eval.evaluate", request, root.id());
    return cqlopt::Evaluate(rewritten->program, db, options);
  }();
  if (!eval.ok()) {
    r.error = "Evaluate failed: " + eval.status().ToString();
    return r;
  }
  cqlopt::Result<std::vector<Fact>> answers = [&] {
    ScopedSpan s(tracer, "eval.answers", request, root.id());
    return cqlopt::QueryAnswers(*eval, rewritten->query);
  }();
  r.run_ms = MsSince(run_start);
  r.latency_ms = MsSince(start);
  if (!answers.ok()) {
    r.error = "QueryAnswers failed";
    return r;
  }
  r.decisions = DecisionCounters::Now() - before;
  r.answers = std::move(*answers);
  r.symbols = parsed->program.symbols;
  r.eval = std::move(*eval);
  r.ok = true;
  return r;
}

/// The reference: the independent naive oracle's answers. The oracle
/// evaluates the pred,qrp rewrite of the program, because on the original
/// program it needs ~25 s for flights-48, close to a whole run; the
/// rewrite's query-equivalence is what the rewrite_equiv property and
/// test_corpus pin.
bool OracleAgrees(const Inputs& in, const RequestResult& engine,
                  std::string* why) {
  auto parsed = cqlopt::ParseProgram(in.program_text,
                                     engine.symbols);  // shared symbol ids
  if (!parsed.ok()) {
    *why = "oracle: parse failed";
    return false;
  }
  Database db;
  if (!cqlopt::LoadDatabaseText(in.edb_text, parsed->program.symbols, &db)
           .ok()) {
    *why = "oracle: EDB load failed";
    return false;
  }
  auto steps = cqlopt::ParseSteps("pred,qrp");
  auto rewritten =
      cqlopt::ApplyPipeline(parsed->program, parsed->queries[0], *steps, {});
  if (!rewritten.ok()) {
    *why = "oracle: pred,qrp rewrite failed";
    return false;
  }
  std::vector<Fact> edb;
  for (const auto& [pred, rel] : db.relations()) {
    for (size_t i = 0; i < rel.size(); ++i) edb.push_back(rel.fact(i));
  }
  auto oracle = cqlopt::testing::OracleEvaluate(rewritten->program, edb);
  if (!oracle.ok() || !oracle->reached_fixpoint) {
    *why = "oracle: evaluation failed or capped";
    return false;
  }
  auto expected =
      cqlopt::testing::OracleQueryAnswers(*oracle, rewritten->query);
  if (!expected.ok()) {
    *why = "oracle: answer extraction failed";
    return false;
  }
  if (!cqlopt::SameAnswers(*expected, engine.answers)) {
    *why = "engine answers (" + std::to_string(engine.answers.size()) +
           ") differ from the oracle's (" + std::to_string(expected->size()) +
           ")";
    return false;
  }
  return true;
}

}  // namespace

void RunFlightsCold(const Args& args, Report* report) {
  const Inputs in = MakeInputs(args.seed);
  // Set-up is the program taking the inputs in (ParseProgram and
  // LoadDatabaseText). It is sampled before every measured request and
  // again after the last, and the fastest sample is reported, for the
  // reason query_fast_ms is the fastest request.
  std::vector<double> setup_s;
  auto set_up = [&](int samples) {
    for (int i = 0; i < samples; ++i) {
      int64_t t = NowNs();
      auto parsed = cqlopt::ParseProgram(in.program_text);
      Database db;
      bool ok = parsed.ok() && cqlopt::LoadDatabaseText(
                                   in.edb_text, parsed->program.symbols, &db)
                                   .ok();
      setup_s.push_back(MsSince(t) / 1e3);
      if (!ok) {
        report->Fail("set-up: the inputs do not parse or load");
        return;
      }
    }
  };

  Tracer tracer(args.trace);
  Tracer off(false);
  std::vector<double> latency, traced_latency, pipeline_ms, run_ms;
  std::map<std::string, double> sums;
  long traced_requests = 0;
  long measured = 0;
  RequestResult first;
  bool have_first = false;

  int64_t loop_start = NowNs();
  int64_t measure_start = loop_start;
  for (int64_t request = 0;; ++request) {
    if (request > 0 && MsSince(loop_start) >= args.seconds * 1e3) break;
    bool warm_up = request < kWarmUp;
    if (request == kWarmUp) measure_start = NowNs();
    if (!warm_up) {
      set_up(1);
      ++measured;
    }
    // With --trace 1, odd requests are traced and even ones are not, so
    // the two medians give the tracing overhead under the same conditions.
    bool traced = args.trace && request % 2 == 1;
    RequestResult r = RunRequest(in, traced ? &tracer : &off, request);
    ++report->attempted;
    if (!r.ok) {
      ++report->failed;
      report->Fail("request " + std::to_string(request) + ": " + r.error);
      continue;
    }
    if (r.decisions.cache_misses <= 0) {
      ++report->failed;
      report->Fail("request " + std::to_string(request) +
                   " recorded no decision-cache misses: not cold");
      continue;
    }
    if (!have_first) {
      first = std::move(r);
      have_first = true;
      continue;
    }
    if (!cqlopt::SameAnswers(first.answers, r.answers)) {
      ++report->failed;
      report->Fail("request " + std::to_string(request) +
                   " answered differently from the first request");
      continue;
    }
    if (warm_up) continue;
    if (traced) {
      traced_latency.push_back(r.latency_ms);
      ++traced_requests;
      AccumulateEval(r.eval, &sums);
      AccumulateDecisions(r.decisions, &sums);
      sums["transform.rules_out"] += static_cast<double>(r.rules_out);
    } else {
      latency.push_back(r.latency_ms);
      pipeline_ms.push_back(r.pipeline_ms);
      run_ms.push_back(r.run_ms);
    }
  }
  double measure_s = MsSince(measure_start) / 1e3;
  double peak_rss = PeakRssMb();
  set_up(kSetups);

  if (have_first) {
    std::string why;
    if (!OracleAgrees(in, first, &why)) {
      ++report->failed;
      report->Fail(why);
    }
    report->Note("answers: " + std::to_string(first.answers.size()) +
                 " (equal to the naive oracle's), derivations " +
                 std::to_string(first.eval.stats.derivations) + ", facts " +
                 std::to_string(first.eval.stats.inserted));
  }

  Percentile tail = HighestQualifying(latency);
  double queries_per_s = static_cast<double>(measured) / measure_s;
  report->Note("untraced query latency: " + Quantiles(latency) +
               "; client.query_tail_ms is p" +
               Fmt("%g", 100 * tail.quantile) + " with " +
               std::to_string(tail.beyond) + " samples beyond it; " +
               Fmt("%.3f", queries_per_s) + " requests/s");
  report->end_to_end = {
      {"setup_s", Fastest(setup_s), "s"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"query_fast_ms", Fastest(latency), "ms"},
  };

  if (args.trace) {
    sums["client.query_p50_ms"] = Median(latency);
    sums["client.query_tail_ms"] = tail.value;
    sums["client.queries_per_s"] = queries_per_s;
    std::map<std::string, double> self = tracer.SelfMsByName();
    double requests = static_cast<double>(std::max<long>(traced_requests, 1));
    for (const auto& [name, ms] : self) {
      if (name != "request") sums[name + "_ms"] = ms / requests;
    }
    sums["transform.rules_out"] /= requests;
    // One input: the geometric means over inputs are its medians.
    sums["transform.rewrite_ms_geomean"] = Median(pipeline_ms);
    sums["eval.run_ms_geomean"] = Median(run_ms);
    FinishLayerMetrics(traced_requests, &sums);
    double request_total = 0;
    for (const Span& s : tracer.spans()) {
      if (s.name == "request") request_total += (s.end_ns - s.start_ns) / 1e6;
    }
    sums["bench.uncovered_frac"] =
        request_total > 0 ? self["request"] / request_total : 0;
    double untraced = Median(latency);
    sums["bench.trace_overhead_pct"] =
        untraced > 0 ? 100.0 * (Median(traced_latency) - untraced) / untraced
                     : 0;
    report->per_layer = sums;
    (void)tracer.WriteTsv(args.workdir + "/spans-flights_cold.tsv");
  }
}

}  // namespace perfbench
