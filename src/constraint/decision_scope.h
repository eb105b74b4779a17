#ifndef CQLOPT_CONSTRAINT_DECISION_SCOPE_H_
#define CQLOPT_CONSTRAINT_DECISION_SCOPE_H_

namespace cqlopt {

/// The calling thread's current constraint-decision context (DESIGN.md §7):
/// whether the DecisionCache is on, and how many cache lookups of each kind
/// ran inside it — the only way to turn the cache off or attribute decision
/// counts to a run. Each evaluation and inference entry point installs one;
/// fm:: and Implies read the innermost through a thread_local pointer. One
/// query evaluates serially on one thread, so a scope sees exactly its own
/// call's decisions. Scopes are stack objects and never cross threads.
class DecisionScope {
 public:
  /// Requested tiers. A scope's effective tier is its parent's AND its
  /// request, so a nested scope can only turn the cache off (an outer "off"
  /// wins). Outside any scope the cache is on.
  struct Tiers {
    bool cache = true;
  };

  /// Decisions made while the scope was current, nested scopes included
  /// (the process-wide Snapshot() totals are bumped alongside).
  struct Counts {
    long cache_hits = 0;
    long cache_misses = 0;
    long cache_evictions = 0;
  };

  explicit DecisionScope(Tiers requested)
      : parent_(current_),
        tiers_{requested.cache && cache_on()} {
    current_ = this;
  }
  /// Reinstates the parent and adds this scope's counts to it.
  ~DecisionScope() {
    current_ = parent_;
    if (parent_ != nullptr) AddTo(&parent_->counts_);
  }
  DecisionScope(const DecisionScope&) = delete;
  DecisionScope& operator=(const DecisionScope&) = delete;

  /// The effective tier of the calling thread's current scope.
  static bool cache_on() {
    return current_ == nullptr || current_->tiers_.cache;
  }

  /// Adds `n` to `field` of the current scope (dropped outside any scope).
  static void Count(long Counts::*field, long n = 1) {
    if (current_ != nullptr) current_->counts_.*field += n;
  }

  /// Adds this scope's counts so far to `sink`'s fields of the same names
  /// (EvalStats, InferenceResult, a parent's Counts).
  template <typename Sink>
  void AddTo(Sink* sink) const {
    sink->cache_hits += counts_.cache_hits;
    sink->cache_misses += counts_.cache_misses;
    sink->cache_evictions += counts_.cache_evictions;
  }

 private:
  static inline thread_local DecisionScope* current_ = nullptr;

  DecisionScope* const parent_;
  const Tiers tiers_;
  Counts counts_;
};

}  // namespace cqlopt

#endif  // CQLOPT_CONSTRAINT_DECISION_SCOPE_H_
