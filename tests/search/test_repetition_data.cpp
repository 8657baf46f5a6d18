// search::repetition_data: the one derivation of a repetition's split and
// stream, behind one process-wide cache (DESIGN.md §11). Every expected
// value here comes from a hand-written replica of the protocol (level
// dataset, root stream split repetition + 1 times, stratified split,
// standardization), not from the function under test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/config.hpp"
#include "data/preprocess.hpp"
#include "search/checkpoint.hpp"
#include "search/experiment.hpp"
#include "search/results.hpp"
#include "search/worker_protocol.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace qhdl::search {
namespace {

using qhdl::testing::global_count;

/// A small sweep whose dataset seed no other test uses, so the process-wide
/// cache holds none of its keys when a test starts (each test picks its own
/// `salt`).
SweepConfig tiny_config(std::uint64_t salt) {
  SweepConfig config = core::test_scale();
  config.dataset_seed = 0x5eed0000ULL + salt;
  config.feature_sizes = {4, 6};
  config.search.repetitions = 2;
  config.search.runs_per_model = 1;
  config.search.max_candidates = 2;
  config.search.train.epochs = 2;
  config.search.prune_margin = 0.0;
  config.search.accuracy_threshold = 1.1;
  config.search.threads = 1;
  return config;
}

/// Replica of the protocol's derivation: the repetition stream is the
/// (repetition + 1)-th split of the root search stream, and the stratified
/// split draws from it before any training does.
RepetitionData replica(const SweepConfig& config, std::size_t features,
                       std::size_t repetition) {
  const data::Dataset dataset = level_dataset(features, config);
  util::Rng root{config.search.seed};
  util::Rng stream = root.split();
  for (std::size_t r = 0; r < repetition; ++r) stream = root.split();
  RepetitionData out;
  out.split = data::stratified_split(
      dataset, config.search.validation_fraction, stream);
  data::standardize_split(out.split);
  out.stream = stream;
  return out;
}

bool same_bytes(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

bool same_stream(const util::Rng& a, const util::Rng& b) {
  const util::Rng::Snapshot x = a.snapshot();
  const util::Rng::Snapshot y = b.snapshot();
  return x.state == y.state && x.has_cached_normal == y.has_cached_normal &&
         std::memcmp(&x.cached_normal, &y.cached_normal, sizeof(double)) == 0;
}

void expect_bitwise_equal(const RepetitionData& got,
                          const RepetitionData& want) {
  EXPECT_TRUE(same_bytes(got.split.train.x, want.split.train.x));
  EXPECT_TRUE(same_bytes(got.split.val.x, want.split.val.x));
  EXPECT_EQ(got.split.train.y, want.split.train.y);
  EXPECT_EQ(got.split.val.y, want.split.val.y);
  EXPECT_EQ(got.split.train.classes, want.split.train.classes);
  EXPECT_TRUE(same_stream(got.stream, want.stream));
}

std::string sweep_bytes(const SweepConfig& config,
                        StudyCheckpoint* checkpoint = nullptr) {
  return sweep_to_json(
             run_complexity_sweep(Family::Classical, config, checkpoint))
      .dump(2);
}

TEST(RepetitionData, MatchesAnIndependentReplica) {
  const SweepConfig config = tiny_config(1);
  for (const std::size_t features : config.feature_sizes) {
    for (std::size_t rep = 0; rep < 3; ++rep) {
      expect_bitwise_equal(*repetition_data(config, features, rep),
                           replica(config, features, rep));
    }
  }
}

TEST(RepetitionData, KeysEntriesByConfig) {
  // A --persist daemon serves many configs from one process; a config that
  // differs only in the search seed draws a different split and must not
  // be served the first config's.
  const SweepConfig a = tiny_config(2);
  SweepConfig b = a;
  b.search.seed = a.search.seed + 1;
  const std::size_t features = a.feature_sizes.front();

  (void)repetition_data(a, features, 0);
  const auto reused = repetition_data(b, features, 0);
  expect_bitwise_equal(*reused, replica(b, features, 0));
  EXPECT_FALSE(same_bytes(reused->split.train.x,
                          replica(a, features, 0).split.train.x));
}

TEST(RepetitionData, RejectsWidthOutsideTheConfigBeforeDeriving) {
  const SweepConfig config = tiny_config(3);
  const std::uint64_t derived = global_count("data.split_derivations");
  try {
    (void)repetition_data(config, 11, 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find("'features'"), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(global_count("data.split_derivations"), derived);
}

TEST(RepetitionData, SecondSweepOfOneConfigDerivesNothing) {
  const SweepConfig config = tiny_config(4);
  const std::size_t keys =
      config.feature_sizes.size() * config.search.repetitions;
  ASSERT_LE(keys, kRepetitionCacheEntries);

  const std::uint64_t derived0 =
      global_count("data.split_derivations");
  const std::string first = sweep_bytes(config);
  const std::uint64_t derived1 =
      global_count("data.split_derivations");
  const std::uint64_t hits1 = global_count("data.split_hits");
  EXPECT_EQ(derived1 - derived0, keys);

  const std::string second = sweep_bytes(config);
  EXPECT_EQ(global_count("data.split_derivations"), derived1);
  EXPECT_EQ(global_count("data.split_hits") - hits1, keys);
  EXPECT_EQ(second, first);

  // Families share the level's data: a hybrid sweep of the config derives
  // nothing either.
  (void)run_complexity_sweep(Family::HybridBel, config);
  EXPECT_EQ(global_count("data.split_derivations"), derived1);
}

TEST(RepetitionData, SearchEvaluateUnitAndExplicitDatasetAgree) {
  // The sweep's candidates, evaluate_unit on the same streams, and
  // run_repeated_search on an explicit level dataset all land on the same
  // bytes: one split, one stream per repetition.
  const SweepConfig config = tiny_config(5);
  const std::size_t features = config.feature_sizes.front();
  const SweepResult sweep = run_complexity_sweep(Family::Classical, config);
  const LevelResult& level = sweep.levels.front();

  const RepeatedSearchResult explicit_search =
      run_repeated_search(family_search_space(Family::Classical),
                          level_dataset(features, config), config.search);
  ASSERT_EQ(explicit_search.repetitions.size(),
            level.search.repetitions.size());

  for (std::size_t rep = 0; rep < config.search.repetitions; ++rep) {
    const SearchOutcome& outcome = level.search.repetitions[rep];
    ASSERT_EQ(explicit_search.repetitions[rep].evaluated.size(),
              outcome.evaluated.size());
    // search_once draws runs_per_model streams per candidate, in FLOPs
    // order, from the post-split repetition stream.
    util::Rng stream = replica(config, features, rep).stream;
    for (std::size_t c = 0; c < outcome.evaluated.size(); ++c) {
      WorkUnit unit;
      unit.key = UnitKey{"classical", features, rep, c};
      unit.spec = outcome.evaluated[c].spec;
      for (std::size_t r = 0; r < config.search.runs_per_model; ++r) {
        unit.streams.push_back(stream.split());
      }
      const std::string want =
          candidate_result_to_json(outcome.evaluated[c]).dump();
      EXPECT_EQ(candidate_result_to_json(evaluate_unit(config, unit)).dump(),
                want);
      EXPECT_EQ(candidate_result_to_json(
                    explicit_search.repetitions[rep].evaluated[c])
                    .dump(),
                want);
    }
  }
}

TEST(RepetitionData, EvictionLeavesOutputsIdentical) {
  // 3 levels x 3 repetitions = 9 keys against an 8-entry cache: a second
  // sweep walks them in the same order and re-derives every one (the
  // least recently used is always the next needed), and still lands on
  // the first sweep's bytes.
  SweepConfig config = tiny_config(6);
  config.feature_sizes = {3, 4, 6};
  config.search.repetitions = 3;
  const std::size_t keys =
      config.feature_sizes.size() * config.search.repetitions;
  ASSERT_GT(keys, kRepetitionCacheEntries);

  const std::string first = sweep_bytes(config);
  const std::uint64_t derived =
      global_count("data.split_derivations");
  const std::string second = sweep_bytes(config);
  EXPECT_EQ(global_count("data.split_derivations") - derived, keys);
  EXPECT_EQ(second, first);

  for (const std::size_t features : config.feature_sizes) {
    for (std::size_t rep = 0; rep < config.search.repetitions; ++rep) {
      expect_bitwise_equal(*repetition_data(config, features, rep),
                           replica(config, features, rep));
    }
  }
}

TEST(RepetitionData, ResumedSweepThroughTheCacheIsIdentical) {
  // A checkpointed sweep replays through the same cached data: the first
  // run records every unit, the replay trains nothing, derives nothing and
  // prints the same bytes.
  const SweepConfig config = tiny_config(7);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("qhdl_repetition_data_" + std::to_string(::getpid()) + ".units.json"))
          .string();
  std::remove(path.c_str());
  const std::string hash = sweep_config_hash(config);
  std::string first;
  {
    StudyCheckpoint checkpoint{path, hash};
    first = sweep_bytes(config, &checkpoint);
  }
  StudyCheckpoint resumed{path, hash};
  ASSERT_GT(resumed.load(), 0u);
  const std::uint64_t derived =
      global_count("data.split_derivations");
  EXPECT_EQ(sweep_bytes(config, &resumed), first);
  EXPECT_EQ(global_count("data.split_derivations"), derived);
  std::remove(path.c_str());
}

TEST(RepetitionData, ConcurrentFirstLookupsAgree) {
  // Concurrent sweep levels and serve jobs share the cache. N threads make
  // the first lookup of one key at once: each may derive it, and every
  // result is bitwise equal to the replica.
  const SweepConfig config = tiny_config(8);
  const std::size_t features = config.feature_sizes.back();
  const RepetitionData want = replica(config, features, 1);

  constexpr std::size_t kThreads = 8;
  const std::uint64_t derived0 =
      global_count("data.split_derivations");
  const std::uint64_t hits0 = global_count("data.split_hits");
  std::vector<std::shared_ptr<const RepetitionData>> got(kThreads);
  std::atomic<std::size_t> waiting{kThreads};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      got[t] = repetition_data(config, features, 1);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (const auto& data : got) {
    ASSERT_NE(data, nullptr);
    expect_bitwise_equal(*data, want);
  }
  const std::uint64_t derived =
      global_count("data.split_derivations") - derived0;
  const std::uint64_t hits = global_count("data.split_hits") - hits0;
  EXPECT_GE(derived, 1u);
  EXPECT_EQ(derived + hits, kThreads);
  // Once the key is in, lookups are hits on one shared entry.
  const auto again = repetition_data(config, features, 1);
  EXPECT_EQ(global_count("data.split_derivations") - derived0,
            derived);
  expect_bitwise_equal(*again, want);
}

TEST(RepetitionData, StreamHelpersComposeToTheCachedEntry) {
  // The serve `train` job draws its run streams from repetition_stream
  // (before the split); split_repetition of that stream is the cached
  // entry, split and post-split stream alike.
  const SweepConfig config = tiny_config(9);
  const std::size_t features = config.feature_sizes.front();
  const RepetitionData direct = split_repetition(
      level_dataset(features, config), config.search,
      repetition_stream(config.search.seed, 2));
  expect_bitwise_equal(direct, replica(config, features, 2));
  expect_bitwise_equal(*repetition_data(config, features, 2), direct);
}

TEST(RepetitionData, RepetitionStreamHonoursCancellation) {
  util::CancelToken cancel;
  cancel.cancel("test");
  EXPECT_THROW((void)repetition_stream(42, 1000, &cancel), util::Cancelled);
  EXPECT_THROW((void)repetition_data(tiny_config(10), 4, 0, &cancel),
               util::Cancelled);
}

}  // namespace
}  // namespace qhdl::search
