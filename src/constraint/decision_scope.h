#ifndef CQLOPT_CONSTRAINT_DECISION_SCOPE_H_
#define CQLOPT_CONSTRAINT_DECISION_SCOPE_H_

namespace cqlopt {

/// The calling thread's current constraint-decision context (DESIGN.md §7):
/// which decision tiers (the interval prepass, the DecisionCache) are on,
/// and how many decisions of each kind ran inside it — the only way to turn
/// a tier off or attribute decision counts to a run. Each evaluation and
/// inference entry point installs one; fm::, prepass:: and Implies read the
/// innermost through a thread_local pointer. One query evaluates serially
/// on one thread, so a scope sees exactly its own call's decisions. Scopes
/// are stack objects and never cross threads.
class DecisionScope {
 public:
  /// Requested tiers. A scope's effective tier is its parent's AND its
  /// request, so a nested scope can only turn a tier off (an outer "off"
  /// wins). Outside any scope both tiers are on.
  struct Tiers {
    bool prepass = true;
    bool cache = true;
  };

  /// Decisions made while the scope was current, nested scopes included
  /// (the process-wide Snapshot() totals are bumped alongside).
  struct Counts {
    long cache_hits = 0;
    long cache_misses = 0;
    long cache_evictions = 0;
    long prepass_conclusive = 0;
    long prepass_fallback = 0;
  };

  explicit DecisionScope(Tiers requested)
      : parent_(current_),
        tiers_{requested.prepass && prepass_on(),
               requested.cache && cache_on()} {
    current_ = this;
  }
  /// Reinstates the parent and adds this scope's counts to it.
  ~DecisionScope() {
    current_ = parent_;
    if (parent_ != nullptr) AddTo(&parent_->counts_);
  }
  DecisionScope(const DecisionScope&) = delete;
  DecisionScope& operator=(const DecisionScope&) = delete;

  /// The effective tiers of the calling thread's current scope.
  static bool prepass_on() {
    return current_ == nullptr || current_->tiers_.prepass;
  }
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
    sink->prepass_conclusive += counts_.prepass_conclusive;
    sink->prepass_fallback += counts_.prepass_fallback;
  }

 private:
  static inline thread_local DecisionScope* current_ = nullptr;

  DecisionScope* const parent_;
  const Tiers tiers_;
  Counts counts_;
};

}  // namespace cqlopt

#endif  // CQLOPT_CONSTRAINT_DECISION_SCOPE_H_
