#include "patlabor/engine/cache.hpp"

#include <cstdlib>
#include <mutex>
#include <string_view>

#include "patlabor/obs/obs.hpp"

namespace patlabor::engine {

bool cache_enabled(const CacheOptions& options) {
  const char* env = std::getenv("PATLABOR_CACHE");
  return options.enabled.value_or(env == nullptr ||
                                  std::string_view(env) != "0") &&
         options.capacity > 0;
}

FrontierCache::FrontierCache(std::size_t capacity) : capacity_(capacity) {
  const std::size_t n = stripe_count(capacity);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->capacity = capacity / n + (i < capacity % n ? 1 : 0);
  }
}

FrontierCache::Shard& FrontierCache::shard_of(std::uint64_t key) {
  // Fibonacci mix so nearby keys spread across stripes.
  const std::uint64_t mixed = key * 0x9e3779b97f4a7c15ULL;
  return *shards_[(mixed >> 32) & (shards_.size() - 1)];
}

std::optional<CacheEntry> FrontierCache::find(
    std::uint64_t key, const std::vector<geom::Point>& pins) {
  if (capacity_ == 0) return std::nullopt;
  Shard& sh = shard_of(key);
  std::lock_guard<obs::TimedMutex> lock(sh.mu);
  const auto it = sh.index.find(key);
  if (it == sh.index.end() || it->second->second.pins != pins) {
    ++sh.misses;
    PL_COUNT("engine.cache.miss", 1);
    return std::nullopt;
  }
  sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
  ++sh.hits;
  PL_COUNT("engine.cache.hit", 1);
  return it->second->second;
}

void FrontierCache::insert(std::uint64_t key, CacheEntry entry) {
  if (capacity_ == 0) return;
  Shard& sh = shard_of(key);
  bool evicted = false;
  {
    std::lock_guard<obs::TimedMutex> lock(sh.mu);
    if (const auto it = sh.index.find(key); it != sh.index.end()) {
      it->second->second = std::move(entry);
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
      return;
    }
    sh.lru.emplace_front(key, std::move(entry));
    sh.index.emplace(key, sh.lru.begin());
    // Every share is >= 1, so one eviction restores the bound.
    if (sh.lru.size() > sh.capacity) {
      sh.index.erase(sh.lru.back().first);
      sh.lru.pop_back();
      ++sh.evictions;
      evicted = true;
    }
  }
  if (evicted) {
    PL_COUNT("engine.cache.evict", 1);
  } else {
    PL_GAUGE_SET("engine.cache.entries",
                 population_.fetch_add(1, std::memory_order_relaxed) + 1);
  }
}

CacheStats FrontierCache::stats() const {
  CacheStats s;
  s.shards.reserve(shards_.size());
  for (const auto& sh : shards_) {
    ShardStats ss;
    // Lock counters first, so this call's own acquisition is not counted.
    ss.lock = sh->mu.stats();
    {
      std::lock_guard<obs::TimedMutex> lock(sh->mu);
      ss.entries = sh->lru.size();
      ss.hits = sh->hits;
      ss.misses = sh->misses;
      ss.evictions = sh->evictions;
    }
    s.hits += ss.hits;
    s.misses += ss.misses;
    s.evictions += ss.evictions;
    s.entries += ss.entries;
    s.shards.push_back(std::move(ss));
  }
  return s;
}

void FrontierCache::clear() {
  for (const auto& sh : shards_) {
    std::lock_guard<obs::TimedMutex> lock(sh->mu);
    sh->lru.clear();
    sh->index.clear();
  }
  population_.store(0, std::memory_order_relaxed);
  PL_GAUGE_SET("engine.cache.entries", 0);
}

}  // namespace patlabor::engine
