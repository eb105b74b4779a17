#ifndef CQLOPT_CONSTRAINT_DECISION_SCOPE_H_
#define CQLOPT_CONSTRAINT_DECISION_SCOPE_H_

#include "constraint/decision_cache.h"
#include "constraint/interval.h"

namespace cqlopt {

/// Attributes the process-wide constraint-decision counters — DecisionCache
/// hits / misses / evictions and interval-prepass conclusive / fallback
/// verdicts — to one run by differencing them around it: construct at the
/// run's entry, AddTo the run's counters at its end. With `prepass` false
/// it also holds the process-wide prepass flag down for its lifetime (the
/// EvalOptions::prepass toggle).
///
/// This is the one place an evaluation or inference entry point touches
/// the process-wide counters.
class DecisionScope {
 public:
  explicit DecisionScope(bool prepass)
      : prepass_off_(!prepass), prepass_was_enabled_(prepass::enabled()) {
    if (prepass_off_) prepass::set_enabled(false);
    cache_before_ = DecisionCache::Instance().Snapshot();
    prepass_before_ = prepass::Snapshot();
  }
  ~DecisionScope() {
    if (prepass_off_) prepass::set_enabled(prepass_was_enabled_);
  }
  DecisionScope(const DecisionScope&) = delete;
  DecisionScope& operator=(const DecisionScope&) = delete;

  /// Adds the activity since construction to `sink`'s cache_hits,
  /// cache_misses, cache_evictions, prepass_conclusive and
  /// prepass_fallback (EvalStats, InferenceResult).
  template <typename Sink>
  void AddTo(Sink* sink) const {
    DecisionCache::Counters cache = DecisionCache::Instance().Snapshot();
    prepass::Counters pre = prepass::Snapshot();
    sink->cache_hits += cache.hits - cache_before_.hits;
    sink->cache_misses += cache.misses - cache_before_.misses;
    sink->cache_evictions += cache.evictions - cache_before_.evictions;
    sink->prepass_conclusive += pre.conclusive() - prepass_before_.conclusive();
    sink->prepass_fallback += pre.fallback - prepass_before_.fallback;
  }

 private:
  const bool prepass_off_;
  const bool prepass_was_enabled_;
  DecisionCache::Counters cache_before_;
  prepass::Counters prepass_before_;
};

}  // namespace cqlopt

#endif  // CQLOPT_CONSTRAINT_DECISION_SCOPE_H_
