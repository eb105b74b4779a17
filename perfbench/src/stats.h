#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The benchmark's own arithmetic: medians, the percentile rule, and the
// geometric mean. Header-only so the self-test links it without cqlopt.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty sample.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// The smallest of `values`; 0 for an empty sample. The benchmark's timings
/// of identical work report it: interference from a shared machine only
/// ever adds time, so the fastest sample is the steadiest reading of the
/// work's cost.
inline double Fastest(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return *std::min_element(values.begin(), values.end());
}

/// One nearest-rank percentile of a sample. The rank is ceil(q * n), so
/// `beyond` samples lie strictly above it in sorted order. The percentile
/// counts as supported by the sample ("qualifies") only when at least
/// kMinBeyond samples lie beyond it: with fewer, a "p99" is just one of the
/// last few samples, often the maximum.
struct Percentile {
  static constexpr size_t kMinBeyond = 10;
  double quantile = 0;
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
  bool qualifies() const { return beyond >= kMinBeyond; }
};

/// The nearest-rank percentile at quantile `q` in (0, 1].
inline Percentile NearestRank(std::vector<double> values, double q) {
  Percentile p;
  p.quantile = q;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  double exact = q * static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, values.size());
  p.value = values[rank - 1];
  p.beyond = values.size() - rank;
  return p;
}

/// The highest of p75, p90, p95, p99 and p99.9 that qualifies: the tail a
/// sample of this size supports. The median (quantile 0.5) when none does,
/// that is under 40 samples.
inline Percentile HighestQualifying(const std::vector<double>& values) {
  Percentile best = NearestRank(values, 0.5);
  for (double q : {0.75, 0.9, 0.95, 0.99, 0.999}) {
    Percentile p = NearestRank(values, q);
    if (!p.qualifies()) break;
    best = p;
  }
  return best;
}

/// Geometric mean of positive values; 0 when empty or when any value is not
/// positive (the caller treats that as a failed measurement).
inline double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) {
    if (!(v > 0)) return 0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// The geometric mean over inputs of each input's nearest-rank percentile
/// at `q`: one row per input, so a cheap input weighs as much as a costly
/// one. Inputs without samples are skipped; 0 when none has any.
inline double GeoMeanOfPercentiles(
    const std::vector<std::vector<double>>& per_input, double q) {
  std::vector<double> rows;
  for (const std::vector<double>& samples : per_input) {
    if (!samples.empty()) rows.push_back(NearestRank(samples, q).value);
  }
  return GeoMean(rows);
}

/// Mean; 0 for an empty sample.
inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
