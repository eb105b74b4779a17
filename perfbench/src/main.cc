// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload flights_cold|rewrite|serve_mixed --seed N
//             --seconds S --trace 0|1 [--workdir DIR] [--root DIR]
//
// Prints human-readable notes and a metric table, then, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the per-layer ones. Exits 1 when any check failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--root") {
      args->root = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

/// JSON number with all its digits (never rounded to a constant).
std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR] [--root DIR]\n");
    return 2;
  }
  perfbench::Report report;
  if (args.workload == "flights_cold") {
    perfbench::RunFlightsCold(args, &report);
  } else if (args.workload == "rewrite") {
    perfbench::RunRewrite(args, &report);
  } else if (args.workload == "serve_mixed") {
    perfbench::RunServeMixed(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::printf("== %s seed=%llu seconds=%g trace=%d ==\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }
  double failed_frac =
      report.attempted > 0
          ? static_cast<double>(report.failed) / report.attempted
          : 1.0;
  std::printf("  %-40s %14.6f %s\n", "failed_frac", failed_frac, "ratio");
  for (const perfbench::Metric& m : report.end_to_end) {
    std::printf("  %-40s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::string metrics;
  if (args.trace) {
    for (const auto& [name, unit] : perfbench::PerLayerMetrics()) {
      auto it = report.per_layer.find(name);
      double value = it == report.per_layer.end() ? 0 : it->second;
      std::printf("  %-40s %14.6f %s\n", name.c_str(), value, unit.c_str());
      if (!metrics.empty()) metrics += ", ";
      metrics += "\"" + name + "\": {\"value\": " + Number(value) +
                 ", \"unit\": \"" + unit + "\"}";
    }
  } else {
    for (const auto& [name, unit] : perfbench::EndToEndMetrics()) {
      double value = 0;
      for (const perfbench::Metric& m : report.end_to_end) {
        if (m.name == name) value = m.value;
      }
      if (!metrics.empty()) metrics += ", ";
      metrics += "\"" + name + "\": {\"value\": " + Number(value) +
                 ", \"unit\": \"" + unit + "\"}";
    }
  }
  bool correct = report.correct && report.failed == 0 && report.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", report.attempted, report.failed,
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
