#ifndef CQLOPT_SERVICE_PREPARED_H_
#define CQLOPT_SERVICE_PREPARED_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "eval/seminaive.h"
#include "transform/pipeline.h"

namespace cqlopt {

/// One prepared program: the memoized outcome of ApplyPipeline for a
/// (program, query, step sequence) key, plus the latest materialized
/// evaluation of the rewritten program against some database epoch.
///
/// Concurrency: the pipeline fields (`prepared`, `fingerprint`,
/// `canonical`) are immutable after construction. The materialization
/// (`eval`, `eval_epoch`, `answers`) is read and replaced only under
/// `mutex`, and never leaves it: a query copies the answer lines out, and a
/// resume consumes `eval` in place.
struct PreparedEntry {
  uint64_t fingerprint = 0;
  /// The exact canonical text the fingerprint digests; hits verify it so a
  /// 64-bit collision degrades to a miss instead of serving the wrong
  /// program (the Relation-index lesson: exact keys where a mixup would
  /// corrupt results).
  std::string canonical;
  PipelineResult prepared;

  /// Guards the materialization fields below.
  std::mutex mutex;
  /// Last evaluation of `prepared.program`, or empty if never evaluated.
  std::optional<EvalResult> eval;
  /// Epoch of the database `eval` was computed against (-1 = none).
  int64_t eval_epoch = -1;
  /// The rendered, sorted answer lines of `eval` for `prepared.query` (or
  /// the error QueryAnswers returned for it), set together with `eval`: an
  /// epoch hit copies them instead of extracting and rendering again, so
  /// its work is bounded by the size of the answer.
  Result<std::vector<std::string>> answers = std::vector<std::string>();
};

/// The prepared-program cache: canonical-fingerprint keyed, bounded, with
/// least-recently-used wholesale eviction of single entries. Entries are
/// shared_ptrs so an evicted entry stays valid for sessions still holding
/// it. All methods are thread-safe.
class PreparedCache {
 public:
  explicit PreparedCache(size_t capacity = 64) : capacity_(capacity) {}

  /// Looks up `fingerprint`, verifying the canonical text on a hit.
  /// Returns null on miss (or on a fingerprint collision, which then takes
  /// the insert path and replaces the colliding entry).
  std::shared_ptr<PreparedEntry> Find(uint64_t fingerprint,
                                      const std::string& canonical);

  /// Inserts a freshly prepared entry, evicting the least-recently-used
  /// entry when full. If a concurrent session inserted the same key first,
  /// that session's entry wins and is returned (pipeline outputs for equal
  /// keys compute the same answers; QueryService inserts under its pipeline
  /// lock, so the winner is also the one whose fresh predicate names
  /// answers render).
  std::shared_ptr<PreparedEntry> Insert(std::shared_ptr<PreparedEntry> entry);

  /// Number of cached entries.
  size_t size() const;

 private:
  struct Slot {
    std::shared_ptr<PreparedEntry> entry;
    uint64_t last_used = 0;
  };

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, Slot> entries_;
  uint64_t tick_ = 0;
};

}  // namespace cqlopt

#endif  // CQLOPT_SERVICE_PREPARED_H_
