#include "service/prepared.h"

namespace cqlopt {

std::shared_ptr<PreparedEntry> PreparedCache::Find(
    uint64_t fingerprint, const std::string& canonical) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(fingerprint);
  if (it == entries_.end() || it->second.entry->canonical != canonical) {
    return nullptr;
  }
  it->second.last_used = ++tick_;
  return it->second.entry;
}

std::shared_ptr<PreparedEntry> PreparedCache::Insert(
    std::shared_ptr<PreparedEntry> entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(entry->fingerprint);
  if (it != entries_.end()) {
    if (it->second.entry->canonical == entry->canonical) {
      // Lost a prepare race: keep the established entry (its
      // materialization may already be warm).
      it->second.last_used = ++tick_;
      return it->second.entry;
    }
    // Fingerprint collision: the newer key takes the slot.
    it->second = Slot{std::move(entry), ++tick_};
    return it->second.entry;
  }
  if (entries_.size() >= capacity_ && capacity_ > 0) {
    auto victim = entries_.begin();
    for (auto cand = entries_.begin(); cand != entries_.end(); ++cand) {
      if (cand->second.last_used < victim->second.last_used) victim = cand;
    }
    entries_.erase(victim);
  }
  uint64_t fingerprint = entry->fingerprint;
  auto [slot, inserted] =
      entries_.emplace(fingerprint, Slot{std::move(entry), ++tick_});
  (void)inserted;
  return slot->second.entry;
}

size_t PreparedCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace cqlopt
