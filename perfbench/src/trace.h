#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Spans recorded by the benchmark around its calls into cqlopt's public
// functions. Nothing inside the program is instrumented: a span covers one
// call as seen from outside, and a layer's self time is its span's duration
// minus the part of that interval its child spans cover.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t request = 0;  // spans of one request share this id
  int id = 0;
  int parent = -1;  // -1 for a root span
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-span self time: duration minus the union of its direct children's
/// intervals, each clipped to the parent's interval. Overlapping children
/// (work the caller ran concurrently) are counted once, and grandchildren
/// are already inside their parent's interval. Indexed like `spans`, whose
/// ids must equal their positions.
inline std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    int64_t lo = std::max(s.start_ns, p.start_ns);
    int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

/// In-memory span log. Disabled recorders hand out no spans and cost one
/// branch per call site, which is the untraced configuration.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (or -1 when disabled).
  int Begin(const std::string& name, int64_t request, int parent) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.request = request;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  void End(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Total self time per span name over all recorded spans, in ms.
  std::map<std::string, double> SelfMsByName() const {
    std::vector<int64_t> self = SelfTimesNs(spans_);
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += static_cast<double>(self[i]) / 1e6;
    }
    return out;
  }

  /// Writes one tab-separated line per span (name, request, id, parent,
  /// start and end in ns) to `path`. Returns false on an I/O error.
  bool WriteTsv(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "name\trequest\tid\tparent\tstart_ns\tend_ns\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%s\t%lld\t%d\t%d\t%lld\t%lld\n", s.name.c_str(),
                   static_cast<long long>(s.request), s.id, s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span: opened on construction, closed on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t request,
             int parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
