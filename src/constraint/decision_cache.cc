#include "constraint/decision_cache.h"

#include "constraint/decision_scope.h"

namespace cqlopt {

std::optional<uint8_t> VerdictTable::Lookup(uint64_t key) const {
  const Shard& shard = shards_[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return std::nullopt;
  return it->second;
}

long VerdictTable::Store(uint64_t key, uint8_t value) {
  Shard& shard = shards_[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  long evicted = 0;
  if (shard.map.size() >= capacity_.load(std::memory_order_relaxed) &&
      shard.map.find(key) == shard.map.end()) {
    evicted = static_cast<long>(shard.map.size());
    shard.map.clear();
  }
  shard.map.emplace(key, value);
  return evicted;
}

long VerdictTable::size() const {
  long entries = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    entries += static_cast<long>(shard.map.size());
  }
  return entries;
}

void VerdictTable::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
  }
}

DecisionCache& DecisionCache::Instance() {
  static DecisionCache* cache = new DecisionCache();  // never destroyed
  return *cache;
}

std::optional<bool> DecisionCache::Lookup(uint64_t key) {
  std::optional<uint8_t> hit = table_.Lookup(key);
  if (!hit.has_value()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    DecisionScope::Count(&DecisionScope::Counts::cache_misses);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  DecisionScope::Count(&DecisionScope::Counts::cache_hits);
  return *hit != 0;
}

void DecisionCache::Store(uint64_t key, bool value) {
  if (long evicted = table_.Store(key, value ? 1 : 0)) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    DecisionScope::Count(&DecisionScope::Counts::cache_evictions, evicted);
  }
}

DecisionCache::Counters DecisionCache::Snapshot() const {
  Counters out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.entries = table_.size();
  return out;
}

}  // namespace cqlopt
