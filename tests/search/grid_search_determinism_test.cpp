// The search contract: results are bit-identical for any thread count /
// lookahead window, including when run-pruning triggers, for the classical
// and the hybrid search spaces.
// (The seed implementation only applied pruning on the serial path, so a
// pruned candidate could still win the search under threads > 1.)
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/config.hpp"
#include "data/preprocess.hpp"
#include "search/experiment.hpp"
#include "search/grid_search.hpp"
#include "search/search_space.hpp"

namespace qhdl::search {
namespace {

void expect_identical(const RepeatedSearchResult& a,
                      const RepeatedSearchResult& b) {
  ASSERT_EQ(a.repetitions.size(), b.repetitions.size());
  for (std::size_t rep = 0; rep < a.repetitions.size(); ++rep) {
    const SearchOutcome& oa = a.repetitions[rep];
    const SearchOutcome& ob = b.repetitions[rep];
    EXPECT_EQ(oa.candidates_trained, ob.candidates_trained);
    ASSERT_EQ(oa.evaluated.size(), ob.evaluated.size());
    for (std::size_t i = 0; i < oa.evaluated.size(); ++i) {
      const CandidateResult& ca = oa.evaluated[i];
      const CandidateResult& cb = ob.evaluated[i];
      EXPECT_EQ(ca.spec.to_string(), cb.spec.to_string());
      EXPECT_EQ(ca.runs, cb.runs);
      EXPECT_EQ(ca.meets_threshold, cb.meets_threshold);
      EXPECT_DOUBLE_EQ(ca.avg_best_train_accuracy,
                       cb.avg_best_train_accuracy);
      EXPECT_DOUBLE_EQ(ca.avg_best_val_accuracy, cb.avg_best_val_accuracy);
      EXPECT_DOUBLE_EQ(ca.flops, cb.flops);
    }
    ASSERT_EQ(oa.winner.has_value(), ob.winner.has_value());
    if (oa.winner.has_value()) {
      EXPECT_EQ(oa.winner->spec.to_string(), ob.winner->spec.to_string());
      EXPECT_DOUBLE_EQ(oa.winner->avg_best_train_accuracy,
                       ob.winner->avg_best_train_accuracy);
      EXPECT_DOUBLE_EQ(oa.winner->avg_best_val_accuracy,
                       ob.winner->avg_best_val_accuracy);
      EXPECT_DOUBLE_EQ(oa.winner->flops, ob.winner->flops);
    }
  }
  EXPECT_EQ(a.successful_repetitions, b.successful_repetitions);
  EXPECT_DOUBLE_EQ(a.mean_winner_flops, b.mean_winner_flops);
  EXPECT_DOUBLE_EQ(a.mean_winner_parameters, b.mean_winner_parameters);
  ASSERT_EQ(a.smallest_winner.has_value(), b.smallest_winner.has_value());
  if (a.smallest_winner.has_value()) {
    EXPECT_EQ(a.smallest_winner->spec.to_string(),
              b.smallest_winner->spec.to_string());
    EXPECT_DOUBLE_EQ(a.smallest_winner->flops, b.smallest_winner->flops);
  }
}

SearchConfig base_config() {
  SearchConfig config = core::test_scale().search;
  config.runs_per_model = 3;
  config.repetitions = 2;
  config.train.epochs = 3;
  config.max_candidates = 4;
  config.prune_margin = 0.0;
  return config;
}

TEST(GridSearchDeterminism, IdenticalAcrossThreadCountsWithWinner) {
  auto config = base_config();
  config.accuracy_threshold = 0.34;  // trivially met: winner at candidate 0
  const auto dataset = level_dataset(6, core::test_scale());

  for (const auto& space :
       {paper_classical_space(),
        paper_hybrid_space(qnn::AnsatzKind::BasicEntangler),
        paper_hybrid_space(qnn::AnsatzKind::StronglyEntangling)}) {
    SCOPED_TRACE(space.front().to_string());
    config.threads = 1;
    const auto serial = run_repeated_search(space, dataset, config);
    ASSERT_GT(serial.successful_repetitions, 0u);

    for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      config.threads = threads;
      const auto parallel = run_repeated_search(space, dataset, config);
      expect_identical(serial, parallel);
    }
  }
}

TEST(GridSearchDeterminism, IdenticalAcrossThreadCountsWithPruning) {
  auto config = base_config();
  // An unreachable bar with an aggressive margin: first runs land far below
  // threshold - margin, so pruning fires and every path must take the same
  // prune decisions (the seed's threads>1 path skipped pruning entirely).
  config.accuracy_threshold = 0.99;
  config.prune_margin = 0.2;
  const auto dataset = level_dataset(6, core::test_scale());

  config.threads = 1;
  const auto serial =
      run_repeated_search(paper_classical_space(), dataset, config);

  // The scenario only tests the contract if pruning actually triggered.
  bool any_pruned = false;
  for (const auto& outcome : serial.repetitions) {
    for (const auto& candidate : outcome.evaluated) {
      if (candidate.runs < config.runs_per_model) any_pruned = true;
    }
  }
  ASSERT_TRUE(any_pruned) << "test setup: pruning never triggered";

  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    config.threads = threads;
    const auto parallel =
        run_repeated_search(paper_classical_space(), dataset, config);
    expect_identical(serial, parallel);
  }
}

TEST(GridSearchDeterminism, LookaheadWindowDoesNotChangeResults) {
  auto config = base_config();
  config.accuracy_threshold = 0.99;
  config.prune_margin = 0.2;
  const auto dataset = level_dataset(6, core::test_scale());

  config.threads = 1;
  config.lookahead = 0;
  const auto serial =
      run_repeated_search(paper_classical_space(), dataset, config);

  // Speculation trains candidates past the winner/stop point; committing
  // in FLOPs order must hide that completely.
  config.threads = 2;
  config.lookahead = 4;
  const auto speculative =
      run_repeated_search(paper_classical_space(), dataset, config);
  expect_identical(serial, speculative);
}

TEST(GridSearchDeterminism, EvaluateCandidateRejectsZeroRuns) {
  auto config = base_config();
  config.runs_per_model = 0;
  const auto dataset = level_dataset(6, core::test_scale());
  util::Rng rng{9};
  data::TrainValSplit split = data::stratified_split(dataset, 0.2, rng);
  data::standardize_split(split);
  EXPECT_THROW(evaluate_candidate(ModelSpec::make_classical({4}), split,
                                  config, rng),
               std::invalid_argument);
}

// Every family, hybrids included: they train on the workspace's quantum
// stage, which must stay deterministic under run-parallel training too.
TEST(GridSearchDeterminism, SweepLevelsIdenticalAcrossThreadCounts) {
  auto config = core::test_scale();
  config.feature_sizes = {4, 6};
  config.search.accuracy_threshold = 0.34;
  config.search.train.epochs = 2;
  config.search.max_candidates = 2;

  for (const Family family :
       {Family::Classical, Family::HybridBel, Family::HybridSel}) {
    SCOPED_TRACE(family_name(family));
    config.search.threads = 1;
    const auto serial = run_complexity_sweep(family, config);
    config.search.threads = 4;
    const auto parallel = run_complexity_sweep(family, config);

    ASSERT_EQ(serial.levels.size(), parallel.levels.size());
    for (std::size_t i = 0; i < serial.levels.size(); ++i) {
      EXPECT_EQ(serial.levels[i].features, parallel.levels[i].features);
      expect_identical(serial.levels[i].search, parallel.levels[i].search);
    }
  }
}

}  // namespace
}  // namespace qhdl::search
