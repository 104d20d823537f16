#include "runtime/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <thread>

namespace pmcast::runtime {
namespace {

InstanceKey key(std::uint64_t id) { return InstanceKey{id, ~id}; }

PortfolioResult certified(double period) {
  PortfolioResult r;
  r.ok = true;
  r.period = period;
  r.winner = StrategyId::Mcph;
  return r;
}

TEST(ResultCache, MissThenHit) {
  ResultCache cache(8);
  EXPECT_FALSE(cache.get(key(1)).has_value());
  cache.put(key(1), certified(3.0));
  auto hit = cache.get(key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->from_cache);
  EXPECT_DOUBLE_EQ(hit->period, 3.0);
  CacheMetrics stats = cache.metrics();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.put(key(1), certified(1.0));
  cache.put(key(2), certified(2.0));
  ASSERT_TRUE(cache.get(key(1)).has_value());  // refresh 1: LRU is now 2
  cache.put(key(3), certified(3.0));           // evicts 2
  EXPECT_TRUE(cache.get(key(1)).has_value());
  EXPECT_FALSE(cache.get(key(2)).has_value());
  EXPECT_TRUE(cache.get(key(3)).has_value());
  EXPECT_EQ(cache.metrics().evictions, 1u);
}

TEST(ResultCache, DoesNotCacheFailedResults) {
  ResultCache cache(8);
  PortfolioResult failed;
  failed.ok = false;
  cache.put(key(1), failed);
  EXPECT_FALSE(cache.get(key(1)).has_value());
}

TEST(ResultCache, ZeroCapacityDisables) {
  ResultCache cache(0);
  cache.put(key(1), certified(1.0));
  EXPECT_FALSE(cache.get(key(1)).has_value());
}

TEST(ResultCache, PutRefreshesExistingEntry) {
  ResultCache cache(2);
  cache.put(key(1), certified(1.0));
  cache.put(key(2), certified(2.0));
  cache.put(key(1), certified(1.5));  // refresh + overwrite: LRU is 2
  cache.put(key(3), certified(3.0));  // evicts 2
  auto hit = cache.get(key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->period, 1.5);
  EXPECT_FALSE(cache.get(key(2)).has_value());
}

TEST(ResultCache, SmallCachesStayUnshardedForExactLru) {
  // Below the shard threshold the cache keeps one shard, so the exact
  // global-LRU eviction semantics of the tests above are preserved.
  EXPECT_EQ(ResultCache(8).shard_count(), 1u);
  EXPECT_EQ(ResultCache(ResultCache::kShardThreshold - 1).shard_count(), 1u);
}

TEST(ResultCache, AutoShardCountScalesWithHardwareConcurrency) {
  // The auto-pick matches the parallelism that can actually collide: the
  // next power of two >= hardware_concurrency, capped at kMaxAutoShards.
  // On a 1-core box that is a single mutex — a fixed 16-way split measured
  // 0.9x vs one mutex there.
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  const std::size_t expected =
      std::min(ResultCache::kMaxAutoShards, std::bit_ceil(hw));
  ResultCache cache(1024);
  EXPECT_EQ(cache.shard_count(), expected);
  EXPECT_EQ(cache.metrics().shards, expected);
  // Explicit shard counts are honoured verbatim and reported in metrics.
  EXPECT_EQ(ResultCache(1024, 4).shard_count(), 4u);
  EXPECT_EQ(ResultCache(1024, 4).metrics().shards, 4u);
  EXPECT_EQ(ResultCache(1024, 1).metrics().shards, 1u);
}

TEST(ResultCache, LargeCachesShardWithAggregateCapacity) {
  ResultCache cache(1024, ResultCache::kMaxAutoShards);
  EXPECT_EQ(cache.shard_count(), ResultCache::kMaxAutoShards);
  // Aggregate capacity: inserting far more unique keys than capacity
  // keeps the total entry count at (or under) the configured capacity —
  // never above it, and with a uniform key hash never far below.
  for (std::uint64_t id = 0; id < 4096; ++id) {
    cache.put(key(id), certified(static_cast<double>(id)));
  }
  CacheMetrics stats = cache.metrics();
  EXPECT_LE(stats.entries, 1024u);
  EXPECT_GE(stats.entries, 1000u);  // instance keys spread ~uniformly
  EXPECT_EQ(stats.evictions, 4096u - stats.entries);
}

TEST(ResultCache, ShardedHitMissAccountingAggregates) {
  ResultCache cache(1024, 16);
  for (std::uint64_t id = 0; id < 32; ++id) {
    cache.put(key(id), certified(1.0));
  }
  for (std::uint64_t id = 0; id < 32; ++id) {
    EXPECT_TRUE(cache.get(key(id)).has_value());
  }
  for (std::uint64_t id = 100; id < 116; ++id) {
    EXPECT_FALSE(cache.get(key(id)).has_value());
  }
  CacheMetrics stats = cache.metrics();
  EXPECT_EQ(stats.hits, 32u);
  EXPECT_EQ(stats.misses, 16u);
  EXPECT_EQ(stats.entries, 32u);
  cache.clear();
  EXPECT_EQ(cache.metrics().entries, 0u);
  // hit/miss history survives clear() (same semantics as before sharding).
  EXPECT_EQ(cache.metrics().hits, 32u);
}

TEST(ResultCache, ShardedConcurrentHammer) {
  // Heavy mixed traffic across every shard; runs under the TSan lane.
  ResultCache cache(1024);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 2000; ++i) {
        std::uint64_t id = static_cast<std::uint64_t>((t * 131 + i) % 512);
        if (i % 2 == 0) {
          cache.put(key(id), certified(static_cast<double>(id)));
        } else if (auto hit = cache.get(key(id))) {
          EXPECT_DOUBLE_EQ(hit->period, static_cast<double>(id));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(cache.metrics().entries, 1024u);
}

TEST(ResultCache, HotInstancesSpreadAcrossShardStats) {
  // Eight explicit shards so shard ownership (key.hi % shards) is
  // deterministic regardless of hardware_concurrency. 64 hot instances
  // cover every residue class, so a hit-dominated multi-thread workload
  // must leave hit counts on ALL shards — a skewed shard_heat here would
  // mean the key half feeding shard_index lost its spread.
  ResultCache cache(1024, 8);
  ASSERT_EQ(cache.metrics().shard_heat.size(), 8u);
  for (std::uint64_t id = 0; id < 64; ++id) {
    cache.put(key(id), certified(static_cast<double>(id)));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 4000; ++i) {
        std::uint64_t id = static_cast<std::uint64_t>((t * 131 + i * 7) % 64);
        auto hit = cache.get(key(id));
        if (!hit) {
          ADD_FAILURE() << "hot instance " << id << " missed";
        } else {
          EXPECT_DOUBLE_EQ(hit->period, static_cast<double>(id));
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  const CacheMetrics metrics = cache.metrics();
  ASSERT_EQ(metrics.shard_heat.size(), 8u);
  std::size_t total_hits = 0, total_entries = 0, shards_hit = 0;
  for (const CacheMetrics::ShardHeat& s : metrics.shard_heat) {
    total_hits += s.hits;
    total_entries += s.entries;
    if (s.hits > 0) ++shards_hit;
    // The hot set fits with headroom; no shard may have evicted.
    EXPECT_EQ(s.evictions, 0u);
  }
  EXPECT_EQ(shards_hit, 8u);  // every shard served part of the hot set
  EXPECT_EQ(total_entries, 64u);
  EXPECT_EQ(total_hits, 8u * 4000u);  // hit-dominated: no misses after warmup
  // The totals must equal the per-shard breakdown.
  EXPECT_EQ(metrics.hits, total_hits);
  EXPECT_EQ(metrics.entries, total_entries);
}

TEST(ResultCache, ConcurrentMixedTraffic) {
  ResultCache cache(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        std::uint64_t id = static_cast<std::uint64_t>((t * 31 + i) % 100);
        if (i % 3 == 0) {
          cache.put(key(id), certified(static_cast<double>(id)));
        } else if (auto hit = cache.get(key(id))) {
          // A hit must carry the value that was stored under this key.
          EXPECT_DOUBLE_EQ(hit->period, static_cast<double>(id));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(cache.metrics().entries, 64u);
}

}  // namespace
}  // namespace pmcast::runtime
