// Tests of the benchmark's own arithmetic: the percentile rule, the
// geometric mean, and span self time with nested and overlapping children.
// Exits non-zero on the first failed check; run.py runs it after every
// build and `python3 perfbench/run.py --selftest` runs it alone.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestMedian() {
  Check(Near(perfbench::Median({3, 1, 2}), 2), "median of odd sample");
  Check(Near(perfbench::Median({4, 1, 3, 2}), 2.5), "median of even sample");
  Check(Near(perfbench::Median({}), 0), "median of empty sample");
  Check(Near(perfbench::Fastest({3, 1, 2}), 1), "fastest of a sample");
  Check(Near(perfbench::Fastest({}), 0), "fastest of empty sample");
}

void TestPercentileRule() {
  using perfbench::NearestRank;
  // 100 samples: p90 is the 90th value with exactly 10 beyond it.
  perfbench::Percentile p90 = NearestRank(OneTo(100), 0.9);
  Check(Near(p90.value, 90), "p90 of 1..100 is 90");
  Check(p90.beyond == 10 && p90.qualifies(), "p90 of 100 samples qualifies");
  // 100 samples: p99 has one sample beyond it and does not qualify.
  perfbench::Percentile p99 = NearestRank(OneTo(100), 0.99);
  Check(Near(p99.value, 99) && p99.beyond == 1 && !p99.qualifies(),
        "p99 of 100 samples does not qualify");
  // 1000 samples: p99 qualifies with exactly 10 beyond.
  perfbench::Percentile big = NearestRank(OneTo(1000), 0.99);
  Check(Near(big.value, 990) && big.beyond == 10 && big.qualifies(),
        "p99 of 1000 samples qualifies");
  // 60 samples (bench_service's load points): p99 and p99.9 are the max.
  Check(Near(NearestRank(OneTo(60), 0.99).value, 60) &&
            Near(NearestRank(OneTo(60), 0.999).value, 60),
        "p99 and p99.9 of 60 samples are the maximum");
  Check(!NearestRank(OneTo(60), 0.99).qualifies(),
        "p99 of 60 samples does not qualify");
  Check(Near(NearestRank(OneTo(60), 0.5).value, 30), "p50 of 60 samples");
  // Rounding: q * n = 10.000000000000002 must not become rank 11.
  Check(NearestRank(OneTo(100), 0.1).beyond == 90, "rank uses ceil(q*n)");
  Check(NearestRank({}, 0.5).samples == 0, "empty sample");
  // 40 samples (a flights_cold run): p75 qualifies, p90 does not.
  Check(NearestRank(OneTo(40), 0.75).qualifies() &&
            !NearestRank(OneTo(40), 0.9).qualifies(),
        "p75 but not p90 of 40 samples qualifies");

  // The highest qualifying percentile for a sample size.
  using perfbench::HighestQualifying;
  Check(Near(HighestQualifying(OneTo(40)).quantile, 0.75) &&
            Near(HighestQualifying(OneTo(40)).value, 30),
        "40 samples support p75");
  Check(Near(HighestQualifying(OneTo(199)).quantile, 0.9),
        "199 samples support p90 but not p95");
  Check(Near(HighestQualifying(OneTo(200)).quantile, 0.95),
        "200 samples support p95");
  perfbench::Percentile big_tail = HighestQualifying(OneTo(2000));
  Check(Near(big_tail.quantile, 0.99) && big_tail.beyond == 20 &&
            big_tail.samples == 2000,
        "2000 samples support p99 but not p99.9");
  Check(Near(HighestQualifying(OneTo(10000)).quantile, 0.999),
        "10000 samples support p99.9");
  perfbench::Percentile few = HighestQualifying(OneTo(13));
  Check(Near(few.quantile, 0.5) && Near(few.value, 7) && !few.qualifies(),
        "13 samples support no tail: the median, marked as not qualifying");
}

void TestGeoMean() {
  Check(Near(perfbench::GeoMean({2, 8}), 4), "geomean of 2 and 8");
  Check(Near(perfbench::GeoMean({5}), 5), "geomean of one value");
  Check(std::fabs(perfbench::GeoMean({1, 10, 100}) - 10) < 1e-9,
        "geomean of 1, 10, 100");
  Check(Near(perfbench::GeoMean({}), 0), "geomean of nothing");
  Check(Near(perfbench::GeoMean({3, 0}), 0), "geomean with a zero");

  // query_fast_ms: per input the p10, then the geomean across inputs. Under
  // ten samples (a rewrite input over its rounds) the p10 is the minimum.
  using perfbench::GeoMeanOfPercentiles;
  Check(Near(GeoMeanOfPercentiles({{9, 2}, {8, 32}}, 0.1), 4),
        "p10 of two samples is the smaller; geomean of 2 and 8");
  Check(Near(GeoMeanOfPercentiles({OneTo(100), {}, {10}}, 0.1), 10),
        "p10 of 1..100 is 10; an input without samples is skipped");
  Check(Near(GeoMeanOfPercentiles({{}, {}}, 0.1), 0), "no samples at all");
}

perfbench::Span MakeSpan(int id, int parent, int64_t start, int64_t end) {
  perfbench::Span s;
  s.name = std::to_string(id);
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTime() {
  // root [0,100): children [10,30) and [20,50) overlap -> union 40;
  // child [60,70) -> covered 50, root self 50. Child 1 [10,30) has a
  // grandchild [12,18) -> self 14. Child 3 [60,70) has a grandchild that
  // runs past its parent [65,90) -> clipped to [65,70), self 5.
  std::vector<perfbench::Span> spans = {
      MakeSpan(0, -1, 0, 100), MakeSpan(1, 0, 10, 30), MakeSpan(2, 0, 20, 50),
      MakeSpan(3, 0, 60, 70),  MakeSpan(4, 1, 12, 18), MakeSpan(5, 3, 65, 90),
  };
  std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  Check(self[0] == 50, "root self time with overlapping children");
  Check(self[1] == 14, "nested child self time");
  Check(self[2] == 30, "leaf self time");
  Check(self[3] == 5, "child clipped to its parent");
  Check(self[4] == 6 && self[5] == 25, "leaves keep their whole duration");

  // A child identical to its parent leaves no self time; a child entirely
  // outside its parent covers nothing.
  std::vector<perfbench::Span> edge = {MakeSpan(0, -1, 0, 10),
                                       MakeSpan(1, 0, 0, 10),
                                       MakeSpan(2, -1, 20, 30),
                                       MakeSpan(3, 2, 40, 50)};
  std::vector<int64_t> edge_self = perfbench::SelfTimesNs(edge);
  Check(edge_self[0] == 0, "fully covered parent");
  Check(edge_self[2] == 10, "child outside its parent covers nothing");

  // Self times by name through the tracer.
  perfbench::Tracer tracer(true);
  {
    perfbench::ScopedSpan outer(&tracer, "outer", 1);
    perfbench::ScopedSpan inner(&tracer, "inner", 1, outer.id());
  }
  auto by_name = tracer.SelfMsByName();
  Check(by_name.count("outer") == 1 && by_name.count("inner") == 1 &&
            by_name["outer"] >= 0 && by_name["inner"] >= 0,
        "tracer records nested spans");
  perfbench::Tracer off(false);
  {
    perfbench::ScopedSpan s(&off, "x", 1);
    Check(s.id() == -1, "disabled tracer hands out no span");
  }
  Check(off.spans().empty(), "disabled tracer records nothing");
}

}  // namespace

int main() {
  TestMedian();
  TestPercentileRule();
  TestGeoMean();
  TestSelfTime();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: all checks passed\n");
  return 0;
}
