#ifndef CQLOPT_CONSTRAINT_DECISION_CACHE_H_
#define CQLOPT_CONSTRAINT_DECISION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace cqlopt {

/// Process-wide memo table for boolean constraint decisions — the answers
/// of fm::IsSatisfiable, fm::ImpliesAtom, and Implies(Conjunction,
/// Conjunction) keyed by the fingerprints of their inputs
/// (constraint/fingerprint.h).
///
/// Why process-wide rather than per-evaluation: the same conjunctions recur
/// across rule applications, across fixpoint iterations, across the
/// subsumption checks of reconciliation, and across the Gen_*_constraints
/// transform fixpoints — and the decision procedures are pure, so an answer
/// computed anywhere is valid everywhere. Campagna et al. and Greco et al.
/// both identify exactly this redundancy as the dominant cost of bottom-up
/// CLP evaluation. Use and attribution are per call: the deciders skip the
/// cache when the current DecisionScope turns it off, and each count below
/// is also added to that scope.
///
/// Storage is kShardCount shards of at most kMaxEntriesPerShard entries,
/// each shard behind its own mutex, so queries evaluated concurrently
/// (cqld's scheduler workers) share entries without one hot lock. An insert
/// into a full shard clears that shard first (wholesale eviction — entries
/// are single bools keyed by uint64, so tracking recency would cost more
/// than recomputing the evicted decisions). Counters are relaxed atomics;
/// evicted entry counts are reported so benches can see thrash.
class DecisionCache {
 public:
  static constexpr int kShardCount = 16;
  static constexpr size_t kMaxEntriesPerShard = 1u << 15;

  /// Monotonic counter snapshot (entries is a point-in-time gauge).
  struct Counters {
    long hits = 0;
    long misses = 0;
    long evictions = 0;
    long entries = 0;
  };

  static DecisionCache& Instance();

  std::optional<bool> Lookup(uint64_t key);
  void Store(uint64_t key, bool value);

  /// Entries a shard may hold before Store evicts it wholesale; 0 restores
  /// kMaxEntriesPerShard. Tests override it (capacity 1 turns every insert
  /// into an eviction, the worst-case thrash the cache-equivalence property
  /// pins byte-identical results under).
  void set_capacity_per_shard_for_testing(size_t n) {
    capacity_.store(n == 0 ? kMaxEntriesPerShard : n,
                    std::memory_order_relaxed);
  }

  /// Process-wide totals since start-up, across all threads.
  Counters Snapshot() const;

  /// Drops all entries (counters keep accumulating): cold-start runs in
  /// benches and differential properties.
  void Clear();

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, bool> map;
  };

  DecisionCache() = default;

  Shard& ShardOf(uint64_t key) {
    // The fingerprints are already well mixed; fold the high bits so shard
    // choice is independent of the map's own bucket choice (low bits).
    return shards_[static_cast<size_t>((key >> 48) ^ (key >> 32)) %
                   static_cast<size_t>(kShardCount)];
  }

  Shard shards_[kShardCount];
  std::atomic<size_t> capacity_{kMaxEntriesPerShard};
  std::atomic<long> hits_{0};
  std::atomic<long> misses_{0};
  std::atomic<long> evictions_{0};
};

/// RAII guard pinning the per-shard capacity in a scope (tests). Clears the
/// cache on entry and exit so no run observes entries stored under the
/// other capacity regime.
class DecisionCacheCapacityOverride {
 public:
  explicit DecisionCacheCapacityOverride(size_t capacity) {
    DecisionCache::Instance().Clear();
    DecisionCache::Instance().set_capacity_per_shard_for_testing(capacity);
  }
  ~DecisionCacheCapacityOverride() {
    DecisionCache::Instance().set_capacity_per_shard_for_testing(0);
    DecisionCache::Instance().Clear();
  }
  DecisionCacheCapacityOverride(const DecisionCacheCapacityOverride&) = delete;
  DecisionCacheCapacityOverride& operator=(
      const DecisionCacheCapacityOverride&) = delete;
};

}  // namespace cqlopt

#endif  // CQLOPT_CONSTRAINT_DECISION_CACHE_H_
