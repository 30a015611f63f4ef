// Caching Service: LRU/FIFO eviction order, byte accounting with attached
// hash tables, hit/miss statistics, capacity edge cases.

#include "cache/caching_service.hpp"

#include <atomic>
#include <random>
#include <thread>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace orv {
namespace {

SchemaPtr small_schema() {
  return Schema::make({{"k", AttrType::Int32}});
}

std::shared_ptr<const SubTable> table_of(std::size_t rows, ChunkId id) {
  auto st = std::make_shared<SubTable>(small_schema(), SubTableId{1, id});
  for (std::size_t i = 0; i < rows; ++i) {
    const Value v[] = {Value(static_cast<std::int32_t>(i))};
    st->append_values(v);
  }
  return st;
}

TEST(Cache, HitAndMissStats) {
  CachingService cache(1024);
  EXPECT_EQ(cache.get({1, 0}), nullptr);
  cache.put({1, 0}, table_of(4, 0));
  EXPECT_NE(cache.get({1, 0}), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
}

TEST(Cache, StatsArithmeticCoversEveryField) {
  // Distinct values per field, so a field dropped or crossed over by the
  // operators cannot cancel out.
  const CachingService::Stats a{10, 20, 30, 40, 50, 60};
  const CachingService::Stats b{1, 2, 3, 4, 5, 6};
  CachingService::Stats sum = a;
  sum += b;
  EXPECT_EQ(sum.hits, 11u);
  EXPECT_EQ(sum.misses, 22u);
  EXPECT_EQ(sum.evictions, 33u);
  EXPECT_EQ(sum.bytes_evicted, 44u);
  EXPECT_EQ(sum.puts, 55u);
  EXPECT_EQ(sum.invalidations, 66u);
  const CachingService::Stats diff = sum - a;
  EXPECT_EQ(diff.hits, b.hits);
  EXPECT_EQ(diff.misses, b.misses);
  EXPECT_EQ(diff.evictions, b.evictions);
  EXPECT_EQ(diff.bytes_evicted, b.bytes_evicted);
  EXPECT_EQ(diff.puts, b.puts);
  EXPECT_EQ(diff.invalidations, b.invalidations);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  // Each table: 25 rows * 4 bytes = 100 bytes; capacity for 2.
  CachingService cache(200, CachePolicy::LRU);
  cache.put({1, 0}, table_of(25, 0));
  cache.put({1, 1}, table_of(25, 1));
  EXPECT_NE(cache.get({1, 0}), nullptr);  // refresh 0: 1 is now LRU
  cache.put({1, 2}, table_of(25, 2));     // evicts 1
  EXPECT_TRUE(cache.contains({1, 0}));
  EXPECT_FALSE(cache.contains({1, 1}));
  EXPECT_TRUE(cache.contains({1, 2}));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(Cache, FifoIgnoresRecency) {
  CachingService cache(200, CachePolicy::FIFO);
  cache.put({1, 0}, table_of(25, 0));
  cache.put({1, 1}, table_of(25, 1));
  EXPECT_NE(cache.get({1, 0}), nullptr);  // does not refresh under FIFO
  cache.put({1, 2}, table_of(25, 2));     // evicts 0 (first in)
  EXPECT_FALSE(cache.contains({1, 0}));
  EXPECT_TRUE(cache.contains({1, 1}));
}

TEST(Cache, ByteAccounting) {
  CachingService cache(1000);
  cache.put({1, 0}, table_of(25, 0));  // 100 bytes
  EXPECT_EQ(cache.used_bytes(), 100u);
  cache.put({1, 1}, table_of(50, 1));  // 200 bytes
  EXPECT_EQ(cache.used_bytes(), 300u);
  cache.clear();
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_EQ(cache.num_entries(), 0u);
}

TEST(Cache, ReplaceInPlaceAdjustsBytes) {
  CachingService cache(1000);
  cache.put({1, 0}, table_of(25, 0));
  cache.put({1, 0}, table_of(50, 0));  // replace with a bigger one
  EXPECT_EQ(cache.num_entries(), 1u);
  EXPECT_EQ(cache.used_bytes(), 200u);
}

TEST(Cache, OversizedEntryAdmittedAlone) {
  CachingService cache(150);
  cache.put({1, 0}, table_of(25, 0));   // 100 bytes
  cache.put({1, 1}, table_of(100, 1));  // 400 bytes > capacity
  EXPECT_FALSE(cache.contains({1, 0}));
  EXPECT_TRUE(cache.contains({1, 1}));  // kept so the QES can proceed
  EXPECT_GT(cache.used_bytes(), cache.capacity_bytes());
  cache.put({1, 2}, table_of(1, 2));    // next insert evicts the giant
  EXPECT_FALSE(cache.contains({1, 1}));
}

TEST(Cache, AttachHashTableCountsBytes) {
  CachingService cache(100000);
  auto left = table_of(100, 0);
  cache.put({1, 0}, left);
  const auto before = cache.used_bytes();
  auto ht = std::make_shared<const BuiltHashTable>(
      left, std::vector<std::string>{"k"});
  cache.attach_hash_table({1, 0}, ht);
  EXPECT_EQ(cache.used_bytes(), before + ht->table_bytes());
  EXPECT_EQ(cache.get_hash_table({1, 0}), ht);
}

TEST(Cache, AttachToEvictedEntryIsNoop) {
  CachingService cache(100);
  auto left = table_of(100, 0);  // 400 bytes, oversized: alone in cache
  cache.put({1, 0}, left);
  cache.put({1, 1}, table_of(4, 1));  // evicts 0
  auto ht = std::make_shared<const BuiltHashTable>(
      left, std::vector<std::string>{"k"});
  cache.attach_hash_table({1, 0}, ht);  // no crash, no entry
  EXPECT_EQ(cache.get_hash_table({1, 0}), nullptr);
}

TEST(Cache, EvictionDropsHashTableWithEntry) {
  CachingService cache(200);
  auto left = table_of(25, 0);
  cache.put({1, 0}, left);
  cache.attach_hash_table({1, 0},
                          std::make_shared<const BuiltHashTable>(
                              left, std::vector<std::string>{"k"}));
  cache.put({1, 1}, table_of(45, 1));  // 180 bytes; evicts entry 0
  EXPECT_FALSE(cache.contains({1, 0}));
  EXPECT_EQ(cache.get_hash_table({1, 0}), nullptr);
}

TEST(Cache, Validation) {
  EXPECT_THROW(CachingService(0), InvalidArgument);
  CachingService cache(100);
  EXPECT_THROW(cache.put({1, 0}, nullptr), InvalidArgument);
}

TEST(Cache, InvalidateDropsEntryAndBytes) {
  CachingService cache(1000);
  cache.put({1, 0}, table_of(25, 0));  // 100 bytes
  cache.put({1, 1}, table_of(25, 1));
  EXPECT_TRUE(cache.invalidate({1, 0}));
  EXPECT_FALSE(cache.contains({1, 0}));
  EXPECT_TRUE(cache.contains({1, 1}));
  EXPECT_EQ(cache.used_bytes(), 100u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // Invalidation is not an eviction: the entry was dropped as suspect,
  // not displaced by capacity pressure.
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_FALSE(cache.invalidate({1, 0}));  // already gone
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(Cache, InvalidateDropsAttachedHashTableBytes) {
  CachingService cache(100000);
  auto left = table_of(100, 0);
  cache.put({1, 0}, left);
  cache.attach_hash_table({1, 0},
                          std::make_shared<const BuiltHashTable>(
                              left, std::vector<std::string>{"k"}));
  EXPECT_TRUE(cache.invalidate({1, 0}));
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_EQ(cache.get_hash_table({1, 0}), nullptr);
}

TEST(Cache, StatsStayConsistentUnderConcurrentEviction) {
  // Hammer one small cache from several threads so every lookup races
  // against evictions and invalidations, then check the counting
  // invariant: every get() classified as exactly one of hit or miss, so
  // hits + misses == lookups even though entries vanished mid-stream.
  CachingService cache(400);  // room for ~4 tables → constant eviction
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20000;
  std::atomic<std::uint64_t> lookups{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &lookups, t] {
      std::mt19937_64 rng(1000 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const ChunkId id = static_cast<ChunkId>(rng() % 16);
        switch (rng() % 4) {
          case 0:
            cache.put({1, id}, table_of(25, id));
            break;
          case 1:
            cache.invalidate({1, id});
            break;
          default:
            cache.get({1, id});
            lookups.fetch_add(1, std::memory_order_relaxed);
            break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, lookups.load());
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.misses, 0u);
  EXPECT_GT(s.evictions, 0u);
  // Byte accounting survived the contention too.
  std::uint64_t live = 0;
  for (ChunkId id = 0; id < 16; ++id) {
    if (auto st = cache.get({1, id})) live += st->size_bytes();
  }
  EXPECT_EQ(cache.used_bytes(), live);
}

TEST(CachePin, PinnedEntriesSkipEviction) {
  // Capacity for 2 tables; pin the LRU victim and watch eviction pass it
  // over in favour of the next-oldest unpinned entry.
  CachingService cache(200, CachePolicy::LRU);
  cache.put({1, 0}, table_of(25, 0));
  cache.put({1, 1}, table_of(25, 1));
  ASSERT_TRUE(cache.pin({1, 0}));  // also refreshes recency; 1 is now LRU
  ASSERT_TRUE(cache.pin({1, 1}));
  cache.unpin({1, 1});  // pin+unpin must leave 1 evictable
  cache.put({1, 2}, table_of(25, 2));  // must evict 1, not pinned 0
  EXPECT_TRUE(cache.contains({1, 0}));
  EXPECT_FALSE(cache.contains({1, 1}));
  EXPECT_TRUE(cache.contains({1, 2}));
  EXPECT_EQ(cache.pinned_count(), 1u);
  cache.unpin({1, 0});
  EXPECT_EQ(cache.pinned_count(), 0u);
}

TEST(CachePin, AllPinnedOvershootsCapacityRatherThanEvict) {
  // When every resident entry is pinned the insert is still admitted: the
  // prefetcher's claim wins over the capacity bound, temporarily.
  CachingService cache(200, CachePolicy::LRU);
  cache.put_pinned({1, 0}, table_of(25, 0));
  cache.put_pinned({1, 1}, table_of(25, 1));
  cache.put_pinned({1, 2}, table_of(25, 2));
  EXPECT_EQ(cache.used_bytes(), 300u);  // over the 200-byte capacity
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.unpin({1, 0});
  cache.put({1, 3}, table_of(25, 3));  // now 0 is fair game again
  EXPECT_FALSE(cache.contains({1, 0}));
  EXPECT_LE(cache.used_bytes(), 300u);
  cache.unpin({1, 1});
  cache.unpin({1, 2});
}

TEST(CachePin, InvalidateOnPinnedDefersUntilUnpin) {
  CachingService cache(1024);
  cache.put_pinned({1, 0}, table_of(4, 0));
  EXPECT_TRUE(cache.invalidate({1, 0}));
  // Doomed: no longer served, but the entry (and its pin) still exists.
  EXPECT_FALSE(cache.contains({1, 0}));
  EXPECT_EQ(cache.get({1, 0}), nullptr);
  EXPECT_EQ(cache.get_hash_table({1, 0}), nullptr);
  EXPECT_FALSE(cache.pin({1, 0}));              // new pins refused
  EXPECT_FALSE(cache.invalidate({1, 0}));       // second doom is a no-op
  EXPECT_EQ(cache.num_entries(), 1u);           // removal deferred
  EXPECT_GT(cache.used_bytes(), 0u);
  cache.unpin({1, 0});                          // last pin → removed
  EXPECT_EQ(cache.num_entries(), 0u);
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(CachePin, PutOnDoomedIdReplacesBytesAndClearsDoom) {
  CachingService cache(1024);
  cache.put_pinned({1, 0}, table_of(4, 0));
  cache.attach_hash_table({1, 0},
                          std::make_shared<const BuiltHashTable>(
                              table_of(4, 0), std::vector<std::string>{"k"}));
  ASSERT_TRUE(cache.invalidate({1, 0}));
  // A re-fetch supersedes the doom: fresh bytes are served again and the
  // hash table built on the suspect bytes is gone.
  cache.put({1, 0}, table_of(8, 0));
  EXPECT_TRUE(cache.contains({1, 0}));
  auto st = cache.get({1, 0});
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->num_rows(), 8u);
  EXPECT_EQ(cache.get_hash_table({1, 0}), nullptr);
  EXPECT_EQ(cache.pinned_count(), 1u);  // the original pin carried over
  cache.unpin({1, 0});
  EXPECT_TRUE(cache.contains({1, 0}));  // no longer doomed → unpin keeps it
}

TEST(CachePin, StatsStayExactUnderPinStress) {
  // Four threads mix lookups, inserts, pin/unpin cycles, and invalidations
  // on a cache small enough that eviction pressure is constant. The
  // counting invariant (hits + misses == lookups) and the pin ledger
  // (every pin matched by one unpin → pinned_count() == 0) must survive.
  CachingService cache(400);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20000;
  std::atomic<std::uint64_t> lookups{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &lookups, t] {
      std::mt19937_64 rng(2000 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const ChunkId id = static_cast<ChunkId>(rng() % 16);
        switch (rng() % 6) {
          case 0:
            cache.put({1, id}, table_of(25, id));
            break;
          case 1:
            cache.invalidate({1, id});
            break;
          case 2: {
            // Balanced pin/unpin with work in between, mimicking a
            // prefetched pair being consumed while other threads churn.
            if (cache.pin({1, id})) {
              cache.get({1, id});
              lookups.fetch_add(1, std::memory_order_relaxed);
              cache.unpin({1, id});
            }
            break;
          }
          case 3:
            cache.put_pinned({1, id}, table_of(25, id));
            cache.unpin({1, id});
            break;
          default:
            cache.get({1, id});
            lookups.fetch_add(1, std::memory_order_relaxed);
            break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, lookups.load());
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.misses, 0u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_EQ(cache.pinned_count(), 0u);
  // Byte accounting survived: no doomed stragglers remain (all pins were
  // released), so live bytes == accounted bytes.
  std::uint64_t live = 0;
  for (ChunkId id = 0; id < 16; ++id) {
    if (auto st = cache.get({1, id})) live += st->size_bytes();
  }
  EXPECT_EQ(cache.used_bytes(), live);
}

}  // namespace
}  // namespace orv
