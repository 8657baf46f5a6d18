#include "serve/result_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/config.hpp"
#include "search/checkpoint.hpp"

namespace qhdl::serve {
namespace {

namespace fs = std::filesystem;

search::SweepConfig config_with_seed(std::uint64_t seed) {
  search::SweepConfig config = core::test_scale();
  config.search.seed = seed;
  return config;
}

/// A synthetic completed unit so tests can populate entries without
/// training anything.
void record_unit(search::StudyCheckpoint& checkpoint, std::size_t candidate) {
  search::CandidateResult result;
  result.spec = search::ModelSpec::make_classical({2});
  checkpoint.record(search::UnitKey{"classical", 4, 0, candidate}, result);
}

class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("qhdl_cache_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(ResultCacheTest, SameConfigHashSharesOneEntry) {
  ResultCache cache{"", 4};
  const search::SweepConfig config = config_with_seed(1);
  auto a = cache.checkpoint_for(config);
  // threads does not affect results, so it must not split the cache.
  search::SweepConfig same = config;
  same.search.threads = 7;
  auto b = cache.checkpoint_for(same);
  EXPECT_EQ(a.get(), b.get());
  // A result-affecting change is a different entry.
  auto c = cache.checkpoint_for(config_with_seed(2));
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.metrics().at("cache.entries"), 2u);
}

TEST_F(ResultCacheTest, MemoryOnlyEvictionDiscardsResults) {
  ResultCache cache{"", 2};
  auto a = cache.checkpoint_for(config_with_seed(1));
  record_unit(*a, 0);
  (void)cache.checkpoint_for(config_with_seed(2));
  (void)cache.checkpoint_for(config_with_seed(3));  // evicts seed-1 (LRU)
  EXPECT_EQ(cache.metrics().at("cache.entries"), 2u);
  EXPECT_EQ(cache.metrics().at("cache.evictions"), 1u);
  auto a2 = cache.checkpoint_for(config_with_seed(1));
  EXPECT_EQ(a2->completed_units(), 0u) << "memory-only eviction must drop";
}

TEST_F(ResultCacheTest, LruTouchProtectsRecentlyUsedEntries) {
  ResultCache cache{"", 2};
  auto a = cache.checkpoint_for(config_with_seed(1));
  record_unit(*a, 0);
  (void)cache.checkpoint_for(config_with_seed(2));
  // Touch seed-1 so seed-2 is now the least recently used...
  (void)cache.checkpoint_for(config_with_seed(1));
  (void)cache.checkpoint_for(config_with_seed(3));
  // ...and seed-1 survived the eviction.
  EXPECT_EQ(cache.checkpoint_for(config_with_seed(1))->completed_units(), 1u);
}

TEST_F(ResultCacheTest, EvictedEntrySpillsToDiskAndReloads) {
  ResultCache cache{dir_, 1};
  const search::SweepConfig config = config_with_seed(1);
  auto a = cache.checkpoint_for(config);
  record_unit(*a, 0);
  record_unit(*a, 1);
  a.reset();
  (void)cache.checkpoint_for(config_with_seed(2));  // evicts + flushes seed-1
  EXPECT_EQ(cache.metrics().at("cache.evictions"), 1u);
  // The spill file is on disk, named by the config hash.
  const std::string spill =
      dir_ + "/" + search::sweep_config_hash(config) + ".units.json";
  EXPECT_TRUE(fs::exists(spill));
  // Re-requesting the config restores the full manifest from disk.
  auto restored = cache.checkpoint_for(config);
  EXPECT_EQ(restored->completed_units(), 2u);
  EXPECT_EQ(cache.metrics().at("cache.disk_loads"), 1u);
}

TEST_F(ResultCacheTest, CorruptSpillIsDiscardedNotFatal) {
  ResultCache cache{dir_, 1};
  const search::SweepConfig config = config_with_seed(1);
  const std::string spill =
      dir_ + "/" + search::sweep_config_hash(config) + ".units.json";
  fs::create_directories(dir_);
  {
    std::ofstream out(spill);
    out << "this is not a manifest";
  }
  // A corrupt spill must yield a fresh entry, never throw.
  auto checkpoint = cache.checkpoint_for(config);
  EXPECT_EQ(checkpoint->completed_units(), 0u);
  EXPECT_EQ(cache.metrics().at("cache.disk_loads"), 0u);
}

TEST_F(ResultCacheTest, StatsAggregateRetiredEntries) {
  ResultCache cache{"", 1};
  auto a = cache.checkpoint_for(config_with_seed(1));
  record_unit(*a, 0);
  // One hit, one miss against entry A.
  EXPECT_TRUE(a->find(search::UnitKey{"classical", 4, 0, 0}).has_value());
  EXPECT_FALSE(a->find(search::UnitKey{"classical", 4, 0, 9}).has_value());
  a.reset();
  (void)cache.checkpoint_for(config_with_seed(2));  // evicts A
  // A's replay counters must survive its eviction.
  const util::MetricsSnapshot stats = cache.metrics();
  EXPECT_EQ(stats.at("cache.unit_hits"), 1u);
  EXPECT_EQ(stats.at("cache.unit_misses"), 1u);
  EXPECT_EQ(stats.at("cache.entries"), 1u);
}

TEST_F(ResultCacheTest, FlushAllPersistsEveryLiveEntry) {
  ResultCache cache{dir_, 4};
  const search::SweepConfig one = config_with_seed(1);
  const search::SweepConfig two = config_with_seed(2);
  record_unit(*cache.checkpoint_for(one), 0);
  record_unit(*cache.checkpoint_for(two), 0);
  cache.flush_all();
  for (const auto& config : {one, two}) {
    EXPECT_TRUE(fs::exists(dir_ + "/" + search::sweep_config_hash(config) +
                           ".units.json"));
  }
}

}  // namespace
}  // namespace qhdl::serve
