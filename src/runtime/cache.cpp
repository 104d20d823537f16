#include "runtime/cache.hpp"

#include <bit>
#include <thread>

namespace pmcast::runtime {

ResultCache::ResultCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity) {
  std::size_t count = shards;
  if (count == 0) {
    // Auto-pick: scale with the machine, not a constant. A fixed 16-way
    // split measured *slower* than a single mutex on a 1-core CI box
    // (threads timeslice instead of contending, so sharding buys nothing
    // and costs locality); match the shard count to the parallelism that
    // can actually collide.
    std::size_t hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    count = capacity >= kShardThreshold
                ? std::min(kMaxAutoShards, std::bit_ceil(hw))
                : 1;
  }
  if (count > capacity && capacity > 0) count = capacity;
  if (count == 0) count = 1;  // capacity 0: one inert shard
  shards_.reserve(count);
  // Aggregate capacity is preserved exactly: the remainder of
  // capacity / shards goes to the first shards, one entry each.
  const std::size_t base = capacity / count;
  const std::size_t extra = capacity % count;
  for (std::size_t i = 0; i < count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = base + (i < extra ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

std::optional<PortfolioResult> ResultCache::get(const InstanceKey& key) {
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.heat.misses;
    return std::nullopt;
  }
  ++shard.heat.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // refresh
  PortfolioResult copy = it->second->result;
  copy.from_cache = true;
  return copy;
}

void ResultCache::put(const InstanceKey& key, const PortfolioResult& result) {
  if (capacity_ == 0 || !result.ok) return;
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->result = result;
    it->second->result.from_cache = false;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.capacity == 0) return;
  if (shard.lru.size() >= shard.capacity) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.heat.evictions;
  }
  shard.lru.push_front(Entry{key, result});
  shard.lru.front().result.from_cache = false;
  shard.index[key] = shard.lru.begin();
}

CacheMetrics ResultCache::metrics() const {
  CacheMetrics out;
  out.shards = shards_.size();
  out.shard_heat.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    CacheMetrics::ShardHeat heat = shard->heat;
    heat.entries = shard->lru.size();
    out.hits += heat.hits;
    out.misses += heat.misses;
    out.evictions += heat.evictions;
    out.entries += heat.entries;
    out.shard_heat.push_back(heat);
  }
  return out;
}

void ResultCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
  }
}

}  // namespace pmcast::runtime
