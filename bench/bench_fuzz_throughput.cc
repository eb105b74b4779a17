// Fuzzing-harness throughput: how many random cases the generator can
// produce per second, and how many metamorphic property checks per second
// each registered property sustains on generated cases. These numbers size
// the CI smoke budget (200 iterations) and the nightly random-seed run
// (10k iterations): nightly-iters ~= wall-budget * checks/sec.
//
//   bench_fuzz_throughput [--json]   # --json also writes BENCH_fuzz.json

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "constraint/decision_scope.h"
#include "constraint/interval.h"
#include "testing/generator.h"
#include "testing/properties.h"

namespace cqlopt {
namespace bench {
namespace {

using cqlopt::testing::AllProperties;
using cqlopt::testing::FuzzCase;
using cqlopt::testing::FuzzOptions;
using cqlopt::testing::GenerateCase;
using cqlopt::testing::PropertyInfo;
using cqlopt::testing::Rng;

constexpr uint64_t kSeed = 42;
constexpr int kGenCases = 2000;
constexpr int kCheckCases = 16;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct PropertyRate {
  std::string name;
  double checks_per_sec = 0;
  int checked = 0;
  int skipped = 0;
};

void PrintAndMaybeWriteJson(bool json) {
  // Generator throughput.
  auto gen_start = std::chrono::steady_clock::now();
  size_t total_rules = 0;
  for (int i = 0; i < kGenCases; ++i) {
    FuzzCase c = GenerateCase(Rng::DeriveSeed(kSeed, i), {});
    total_rules += c.program.rules.size();
  }
  double gen_secs = Seconds(gen_start);
  double gen_per_sec = static_cast<double>(kGenCases) / gen_secs;

  // Per-property check throughput over a shared case set.
  std::vector<FuzzCase> cases;
  for (int i = 0; i < kCheckCases; ++i) {
    cases.push_back(GenerateCase(Rng::DeriveSeed(kSeed, i), {}));
  }
  FuzzOptions fuzz;
  std::vector<PropertyRate> rates;
  double total_checks_per_sec = 0;
  for (const PropertyInfo& info : AllProperties()) {
    PropertyRate rate;
    rate.name = info.name;
    auto start = std::chrono::steady_clock::now();
    for (const FuzzCase& c : cases) {
      auto outcome = info.fn(c, fuzz);
      if (!outcome.ok) {
        std::fprintf(stderr, "property %s FAILED during bench: %s\n",
                     info.name, outcome.message.c_str());
        std::abort();
      }
      outcome.skipped ? ++rate.skipped : ++rate.checked;
    }
    double secs = Seconds(start);
    rate.checks_per_sec =
        secs > 0 ? static_cast<double>(kCheckCases) / secs : 0;
    total_checks_per_sec += rate.checks_per_sec;
    rates.push_back(rate);
  }

  std::printf("=== fuzz harness throughput (seed %llu) ===\n",
              static_cast<unsigned long long>(kSeed));
  std::printf("generator: %.0f programs/sec (%d cases, avg %.1f rules)\n",
              gen_per_sec, kGenCases,
              static_cast<double>(total_rules) / kGenCases);
  std::printf("%-22s %14s %8s %8s\n", "property", "checks/sec", "checked",
              "skipped");
  for (const PropertyRate& rate : rates) {
    std::printf("%-22s %14.1f %8d %8d\n", rate.name.c_str(),
                rate.checks_per_sec, rate.checked, rate.skipped);
  }
  std::printf("all-properties pipeline: %.2f cases/sec\n\n",
              1.0 / [&] {
                double total = 0;
                for (const PropertyRate& r : rates) {
                  if (r.checks_per_sec > 0) total += 1.0 / r.checks_per_sec;
                }
                return total > 0 ? total : 1.0;
              }());

  // Interval-prepass ablation on the heaviest differential property: runs
  // oracle_equiv over the shared case set with the prepass on vs off and
  // reports the constraint-decision split of the fast tier.
  const PropertyInfo* oracle = cqlopt::testing::FindProperty("oracle_equiv");
  double arm_ms[2] = {0, 0};
  cqlopt::prepass::Counters split[2];
  for (int arm = 0; arm < 2; ++arm) {
    cqlopt::DecisionScope tiers({.prepass = arm == 0});
    cqlopt::prepass::Counters before = cqlopt::prepass::Snapshot();
    auto start = std::chrono::steady_clock::now();
    for (const FuzzCase& c : cases) {
      auto outcome = oracle->fn(c, fuzz);
      if (!outcome.ok) {
        std::fprintf(stderr, "oracle_equiv FAILED during prepass bench: %s\n",
                     outcome.message.c_str());
        std::abort();
      }
    }
    arm_ms[arm] = 1000.0 * Seconds(start);
    cqlopt::prepass::Counters after = cqlopt::prepass::Snapshot();
    split[arm].sat = after.sat - before.sat;
    split[arm].unsat = after.unsat - before.unsat;
    split[arm].implied = after.implied - before.implied;
    split[arm].not_implied = after.not_implied - before.not_implied;
    split[arm].fallback = after.fallback - before.fallback;
  }
  double fuzz_delta_pct =
      arm_ms[1] > 0 ? 100.0 * (arm_ms[1] - arm_ms[0]) / arm_ms[1] : 0.0;
  long fuzz_decisions = split[0].conclusive() + split[0].fallback;
  double fuzz_rate =
      fuzz_decisions > 0
          ? static_cast<double>(split[0].conclusive()) / fuzz_decisions
          : 0.0;
  std::printf("prepass ablation (oracle_equiv x %d cases): on=%.1fms "
              "off=%.1fms delta=%.1f%% conclusive=%ld fallback=%ld\n\n",
              kCheckCases, arm_ms[0], arm_ms[1], fuzz_delta_pct,
              split[0].conclusive(), split[0].fallback);

  if (!json) return;
  {
    char row[512];
    std::snprintf(
        row, sizeof(row),
        "{\"workload\": \"fuzz_oracle_equiv\", \"reps\": 1, "
        "\"delta_pct\": %.1f, \"conclusive_rate\": %.4f, \"arms\": ["
        "{\"label\": \"prepass-on\", \"wall_ms\": %.3f, "
        "\"prepass_conclusive\": %ld, \"prepass_fallback\": %ld}, "
        "{\"label\": \"prepass-off\", \"wall_ms\": %.3f, "
        "\"prepass_conclusive\": %ld, \"prepass_fallback\": %ld}]}",
        fuzz_delta_pct, fuzz_rate, arm_ms[0], split[0].conclusive(),
        split[0].fallback, arm_ms[1], split[1].conclusive(),
        split[1].fallback);
    MergePrepassWorkload("fuzz_oracle_equiv", row);
  }
  std::string out = "{\n  \"bench\": \"fuzz\",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"generated_programs_per_sec\": %.1f,\n", gen_per_sec);
  out += buf;
  out += "  \"property_checks_per_sec\": [\n";
  bool first = true;
  for (const PropertyRate& rate : rates) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"property\": \"%s\", \"checks_per_sec\": %.1f, "
                  "\"checked\": %d, \"skipped\": %d}",
                  rate.name.c_str(), rate.checks_per_sec, rate.checked,
                  rate.skipped);
    if (!first) out += ",\n";
    out += buf;
    first = false;
  }
  out += "\n  ]\n}\n";
  FILE* f = std::fopen("BENCH_fuzz.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_fuzz.json\n");
    std::abort();
  }
  std::fputs(out.c_str(), f);
  std::fclose(f);
  std::printf("wrote BENCH_fuzz.json\n");
}

void BM_GenerateCase(benchmark::State& state) {
  uint64_t i = 0;
  for (auto _ : state) {
    FuzzCase c = GenerateCase(Rng::DeriveSeed(kSeed, i++), {});
    benchmark::DoNotOptimize(c.program.rules.size());
  }
}
BENCHMARK(BM_GenerateCase);

void BM_OracleEquivCheck(benchmark::State& state) {
  FuzzCase c = GenerateCase(Rng::DeriveSeed(kSeed, 0), {});
  const PropertyInfo* oracle = cqlopt::testing::FindProperty("oracle_equiv");
  FuzzOptions fuzz;
  for (auto _ : state) {
    auto outcome = oracle->fn(c, fuzz);
    benchmark::DoNotOptimize(outcome.ok);
  }
}
BENCHMARK(BM_OracleEquivCheck);

}  // namespace
}  // namespace bench
}  // namespace cqlopt

int main(int argc, char** argv) {
  bool json = cqlopt::bench::StripJsonFlag(&argc, argv);
  cqlopt::bench::PrintAndMaybeWriteJson(json);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
