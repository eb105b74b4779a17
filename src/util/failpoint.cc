#include "util/failpoint.h"

namespace cqlopt {
namespace failpoint {
namespace {

struct SiteState {
  bool armed = false;
  long skip = 0;   // hits to pass through before firing
  long times = 0;  // firings remaining; <= 0 while armed means unlimited
  bool unlimited = false;
  long hits = 0;  // total hits, armed or not
};

struct Registry {
  std::atomic<int> armed_count{0};
  std::mutex mu;
  std::map<std::string, SiteState> sites;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

}  // namespace

void Arm(const std::string& site, long skip, long times) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  SiteState& state = registry.sites[site];
  if (!state.armed) registry.armed_count.fetch_add(1, std::memory_order_relaxed);
  state.armed = true;
  state.skip = skip;
  state.times = times;
  state.unlimited = times <= 0;
}

void Disarm(const std::string& site) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.sites.find(site);
  if (it == registry.sites.end() || !it->second.armed) return;
  it->second.armed = false;
  registry.armed_count.fetch_sub(1, std::memory_order_relaxed);
}

void DisarmAll() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (auto& entry : registry.sites) {
    if (entry.second.armed) {
      registry.armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
    entry.second = SiteState();
  }
}

bool ShouldFail(const std::string& site) {
  Registry& registry = GetRegistry();
  // Fast path: nothing armed anywhere -> skip the map lookup AND the hit
  // count. Counters are only meaningful to harnesses that armed something,
  // so the production cost of a disarmed failpoint stays at one relaxed
  // load.
  if (registry.armed_count.load(std::memory_order_relaxed) == 0) return false;
  std::lock_guard<std::mutex> lock(registry.mu);
  SiteState& state = registry.sites[site];
  ++state.hits;
  if (!state.armed) return false;
  if (state.skip > 0) {
    --state.skip;
    return false;
  }
  if (state.unlimited) return true;
  if (state.times <= 0) return false;
  if (--state.times == 0) {
    state.armed = false;
    registry.armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
  return true;
}

long Hits(const std::string& site) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.sites.find(site);
  return it == registry.sites.end() ? 0 : it->second.hits;
}

}  // namespace failpoint
}  // namespace cqlopt
