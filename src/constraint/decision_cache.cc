#include "constraint/decision_cache.h"

#include "constraint/decision_scope.h"

namespace cqlopt {

DecisionCache& DecisionCache::Instance() {
  static DecisionCache* cache = new DecisionCache();  // never destroyed
  return *cache;
}

std::optional<bool> DecisionCache::Lookup(uint64_t key) {
  std::optional<bool> hit;
  {
    Shard& shard = ShardOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) hit = it->second;
  }
  if (!hit.has_value()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    DecisionScope::Count(&DecisionScope::Counts::cache_misses);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  DecisionScope::Count(&DecisionScope::Counts::cache_hits);
  return hit;
}

void DecisionCache::Store(uint64_t key, bool value) {
  long evicted = 0;
  {
    Shard& shard = ShardOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.map.size() >= capacity_.load(std::memory_order_relaxed) &&
        shard.map.find(key) == shard.map.end()) {
      evicted = static_cast<long>(shard.map.size());
      shard.map.clear();
    }
    shard.map.emplace(key, value);
  }
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    DecisionScope::Count(&DecisionScope::Counts::cache_evictions, evicted);
  }
}

DecisionCache::Counters DecisionCache::Snapshot() const {
  Counters out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.entries += static_cast<long>(shard.map.size());
  }
  return out;
}

void DecisionCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
  }
}

}  // namespace cqlopt
