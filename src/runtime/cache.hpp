#pragma once
/// \file cache.hpp
/// Thread-safe LRU cache of portfolio results keyed by the canonical
/// 128-bit instance key (graph/hash.hpp). Serving workloads repeat
/// instances heavily (the same platform with the same target set is asked
/// for again and again); re-running a portfolio that ends in dozens of LP
/// solves to re-derive a value the engine certified seconds ago is the
/// single biggest throughput lever in the runtime.
///
/// Sharding: a serving engine probes the cache once per request from every
/// worker thread, and a single global mutex serialises exactly the moment
/// the pool is busiest (a batch of hot duplicates arriving together). The
/// cache therefore splits into key-hashed shards, each with its own mutex
/// and LRU list; aggregate capacity and the hit/miss/eviction accounting
/// semantics are preserved (metrics() sums the shards). Recency is per
/// shard — an entry can only evict entries of its own shard — which is the
/// standard sharded-LRU approximation of global LRU. Small caches (below
/// kShardThreshold entries) keep a single shard and exact global LRU.

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "graph/hash.hpp"
#include "pmcast/service.hpp"
#include "runtime/portfolio.hpp"

namespace pmcast::runtime {

class ResultCache {
 public:
  /// Cap on the automatic shard count; caches below kShardThreshold
  /// entries always use one shard (exact LRU, and a per-shard capacity of
  /// a handful of entries would make eviction behaviour surprising).
  static constexpr std::size_t kMaxAutoShards = 16;
  static constexpr std::size_t kShardThreshold = 256;

  /// \p capacity = max cached results across all shards; 0 disables
  /// caching entirely. \p shards = 0 picks automatically: the smallest
  /// power of two >= hardware_concurrency, capped at kMaxAutoShards — so a
  /// 1-core box gets a single mutex (sharding there is pure overhead: the
  /// threads timeslice instead of contending) and a 16-way box gets 16
  /// shards. The chosen count is reported via shard_count().
  explicit ResultCache(std::size_t capacity, std::size_t shards = 0);

  /// Look up \p key; a hit refreshes recency and returns a copy with
  /// from_cache set.
  std::optional<PortfolioResult> get(const InstanceKey& key);

  /// Insert (or refresh) \p result under \p key, evicting the least
  /// recently used entry of the key's shard when that shard is full.
  /// Uncertified results are not cached: a result that failed for budget
  /// reasons should be retried, not remembered.
  void put(const InstanceKey& key, const PortfolioResult& result);

  /// Totals plus per-shard heat (index == shard id), read in one pass with
  /// each shard's lock held while it is read. A skewed hit/entry
  /// distribution across shard_heat is how a bad shard hash or a too-small
  /// per-shard capacity shows up.
  CacheMetrics metrics() const;
  void clear();

  std::size_t shard_count() const { return shards_.size(); }

 private:
  // MRU at the front. The map points into the list; list nodes carry the
  // key back so eviction can erase its map entry.
  struct Entry {
    InstanceKey key;
    PortfolioResult result;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::size_t capacity = 0;
    std::list<Entry> lru;
    std::unordered_map<InstanceKey, std::list<Entry>::iterator> index;
    /// hits/misses/evictions; entries is read off `lru` by metrics().
    CacheMetrics::ShardHeat heat;
  };

  Shard& shard_of(const InstanceKey& key) {
    return *shards_[shard_index(key)];
  }
  std::size_t shard_index(const InstanceKey& key) const {
    // The instance key is already a high-quality 128-bit hash, so any
    // 64-bit half spreads keys evenly across shards.
    return shards_.size() == 1
               ? 0
               : static_cast<std::size_t>(key.hi) % shards_.size();
  }

  std::size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace pmcast::runtime
