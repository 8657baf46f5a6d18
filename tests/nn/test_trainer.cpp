#include "nn/trainer.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/sequential.hpp"
#include "tensor/init.hpp"
#include "test_helpers.hpp"

namespace qhdl::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

/// Tiny linearly-separable 2-class problem: class = (x0 > 0).
void make_separable(std::size_t n, util::Rng& rng, Tensor& x,
                    std::vector<std::size_t>& y) {
  x = Tensor{Shape{n, 2}};
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    const double x1 = rng.uniform(-1.0, 1.0);
    x.at(i, 0) = x0 + (x0 > 0 ? 0.3 : -0.3);  // margin
    x.at(i, 1) = x1;
    y[i] = x0 > 0 ? 1 : 0;
  }
}

TEST(SliceRows, ExtractsRequestedRows) {
  const Tensor m = Tensor::matrix(3, 2, {1, 2, 3, 4, 5, 6});
  const std::vector<std::size_t> rows{2, 0};
  const Tensor s = slice_rows(m, rows);
  EXPECT_EQ(s.shape(), Shape({2, 2}));
  EXPECT_DOUBLE_EQ(s.at(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(s.at(1, 1), 2.0);
}

TEST(SliceRows, OutOfRangeThrows) {
  const Tensor m = Tensor::matrix(2, 1, {1, 2});
  EXPECT_THROW(slice_rows(m, std::vector<std::size_t>{2}),
               std::out_of_range);
}

TEST(SliceRows, IntoReusesPreallocatedTensor) {
  const Tensor m = Tensor::matrix(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor out{Shape{2, 2}};
  slice_rows_into(m, std::vector<std::size_t>{2, 0}, out);
  EXPECT_DOUBLE_EQ(out.at(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(out.at(1, 1), 2.0);
  EXPECT_THROW(slice_rows_into(m, std::vector<std::size_t>{3}, out),
               std::invalid_argument);  // shape mismatch (1 row vs 2)
  Tensor one_row{Shape{1, 2}};
  EXPECT_THROW(slice_rows_into(m, std::vector<std::size_t>{3}, one_row),
               std::out_of_range);
}

// Regression pin for the epoch-stats refactor: the accuracies recorded in
// TrainHistory must exactly equal a module-path forward over the same
// parameters at the same point in training — on both the workspace fast
// path and the reference path.
TEST(Trainer, EpochStatsMatchModuleForwardOnBothPaths) {
  for (const bool reference : {false, true}) {
    util::Rng rng{46};
    Tensor x_train, x_val;
    std::vector<std::size_t> y_train, y_val;
    make_separable(52, rng, x_train, y_train);  // odd tail with batch 8
    make_separable(21, rng, x_val, y_val);

    Sequential model;
    model.emplace<Dense>(2, 5, rng);
    model.emplace<Tanh>();
    model.emplace<Dense>(5, 2, rng);
    Adam optimizer{1e-3};

    const testing::ReferenceScope scope{reference};
    TrainConfig config;
    config.epochs = 3;
    config.batch_size = 8;
    config.on_epoch = [&](std::size_t, const EpochStats& stats) {
      EXPECT_EQ(stats.train_accuracy,
                evaluate_accuracy(model, x_train, y_train));
      EXPECT_EQ(stats.val_accuracy, evaluate_accuracy(model, x_val, y_val));
    };
    const TrainHistory history = train_classifier(
        model, optimizer, x_train, y_train, x_val, y_val, config, rng);
    EXPECT_EQ(history.epochs_run, 3u);
  }
}

// Early-stop and patience must trigger at the same epoch on both paths.
TEST(Trainer, StoppingDecisionsIdenticalAcrossPaths) {
  const auto run = [](bool reference) {
    util::Rng rng{47};
    Tensor x_train, x_val;
    std::vector<std::size_t> y_train, y_val;
    make_separable(120, rng, x_train, y_train);
    make_separable(40, rng, x_val, y_val);
    Sequential model;
    model.emplace<Dense>(2, 4, rng);
    model.emplace<Tanh>();
    model.emplace<Dense>(4, 2, rng);
    Adam optimizer{0.05};
    const testing::ReferenceScope scope{reference};
    TrainConfig config;
    config.epochs = 200;
    config.patience = 3;
    config.early_stop_accuracy = 0.98;
    const TrainHistory history = train_classifier(
        model, optimizer, x_train, y_train, x_val, y_val, config, rng);
    return history;
  };
  const TrainHistory fast = run(false);
  const TrainHistory ref = run(true);
  EXPECT_EQ(fast.epochs_run, ref.epochs_run);
  EXPECT_EQ(fast.best_train_accuracy, ref.best_train_accuracy);
  EXPECT_EQ(fast.best_val_accuracy, ref.best_val_accuracy);
  ASSERT_EQ(fast.epochs.size(), ref.epochs.size());
  for (std::size_t e = 0; e < fast.epochs.size(); ++e) {
    EXPECT_EQ(fast.epochs[e].train_loss, ref.epochs[e].train_loss);
  }
}

TEST(Trainer, LearnsSeparableProblem) {
  util::Rng rng{42};
  Tensor x_train, x_val;
  std::vector<std::size_t> y_train, y_val;
  make_separable(200, rng, x_train, y_train);
  make_separable(50, rng, x_val, y_val);

  Sequential model;
  model.emplace<Dense>(2, 4, rng);
  model.emplace<Tanh>();
  model.emplace<Dense>(4, 2, rng);
  Adam optimizer{0.01};

  TrainConfig config;
  config.epochs = 30;
  config.batch_size = 8;
  const TrainHistory history = train_classifier(
      model, optimizer, x_train, y_train, x_val, y_val, config, rng);

  EXPECT_GE(history.best_train_accuracy, 0.95);
  EXPECT_GE(history.best_val_accuracy, 0.95);
  EXPECT_EQ(history.epochs.size(), history.epochs_run);
}

TEST(Trainer, EarlyStopHaltsAtThreshold) {
  util::Rng rng{43};
  Tensor x_train, x_val;
  std::vector<std::size_t> y_train, y_val;
  make_separable(200, rng, x_train, y_train);
  make_separable(50, rng, x_val, y_val);

  Sequential model;
  model.emplace<Dense>(2, 4, rng);
  model.emplace<Tanh>();
  model.emplace<Dense>(4, 2, rng);
  Adam optimizer{0.05};

  TrainConfig config;
  config.epochs = 100;
  config.batch_size = 8;
  config.early_stop_accuracy = 0.9;
  const TrainHistory history = train_classifier(
      model, optimizer, x_train, y_train, x_val, y_val, config, rng);

  EXPECT_LT(history.epochs_run, 100u);
  EXPECT_GE(history.best_train_accuracy, 0.9);
  EXPECT_GE(history.best_val_accuracy, 0.9);
}

TEST(Trainer, BestAccuracyIsMaxOverEpochs) {
  util::Rng rng{44};
  Tensor x_train, x_val;
  std::vector<std::size_t> y_train, y_val;
  make_separable(60, rng, x_train, y_train);
  make_separable(20, rng, x_val, y_val);

  Sequential model;
  model.emplace<Dense>(2, 2, rng);
  model.emplace<Dense>(2, 2, rng);
  Adam optimizer{0.01};

  TrainConfig config;
  config.epochs = 5;
  const TrainHistory history = train_classifier(
      model, optimizer, x_train, y_train, x_val, y_val, config, rng);

  double max_train = 0.0, max_val = 0.0;
  for (const EpochStats& e : history.epochs) {
    max_train = std::max(max_train, e.train_accuracy);
    max_val = std::max(max_val, e.val_accuracy);
  }
  EXPECT_DOUBLE_EQ(history.best_train_accuracy, max_train);
  EXPECT_DOUBLE_EQ(history.best_val_accuracy, max_val);
}

TEST(Trainer, ValidatesInputs) {
  util::Rng rng{45};
  Sequential model;
  model.emplace<Dense>(2, 2, rng);
  Adam optimizer{0.01};
  TrainConfig config;

  const Tensor x = Tensor::matrix(2, 2, {1, 2, 3, 4});
  const std::vector<std::size_t> y{0};  // wrong size
  EXPECT_THROW(
      train_classifier(model, optimizer, x, y, x, y, config, rng),
      std::invalid_argument);

  const std::vector<std::size_t> y_ok{0, 1};
  config.batch_size = 0;
  EXPECT_THROW(
      train_classifier(model, optimizer, x, y_ok, x, y_ok, config, rng),
      std::invalid_argument);
}

TEST(Trainer, DeterministicForSeed) {
  const auto run = [](std::uint64_t seed) {
    util::Rng rng{seed};
    Tensor x_train, x_val;
    std::vector<std::size_t> y_train, y_val;
    make_separable(80, rng, x_train, y_train);
    make_separable(20, rng, x_val, y_val);
    Sequential model;
    model.emplace<Dense>(2, 3, rng);
    model.emplace<Tanh>();
    model.emplace<Dense>(3, 2, rng);
    Adam optimizer{0.01};
    TrainConfig config;
    config.epochs = 5;
    return train_classifier(model, optimizer, x_train, y_train, x_val, y_val,
                            config, rng);
  };
  const TrainHistory a = run(7);
  const TrainHistory b = run(7);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.epochs[i].train_loss, b.epochs[i].train_loss);
    EXPECT_DOUBLE_EQ(a.epochs[i].val_accuracy, b.epochs[i].val_accuracy);
  }
}

}  // namespace
}  // namespace qhdl::nn

namespace qhdl::nn {
namespace {

TEST(Trainer, PatienceStopsWhenValStalls) {
  util::Rng rng{51};
  Tensor x_train, x_val;
  std::vector<std::size_t> y_train, y_val;
  make_separable(120, rng, x_train, y_train);
  make_separable(40, rng, x_val, y_val);

  Sequential model;
  model.emplace<Dense>(2, 4, rng);
  model.emplace<Tanh>();
  model.emplace<Dense>(4, 2, rng);
  Adam optimizer{0.05};

  TrainConfig config;
  config.epochs = 200;
  config.patience = 3;  // val accuracy saturates quickly on this task
  const TrainHistory history = train_classifier(
      model, optimizer, x_train, y_train, x_val, y_val, config, rng);
  EXPECT_LT(history.epochs_run, 200u);
  EXPECT_GE(history.best_val_accuracy, 0.9);
}

TEST(Trainer, OnEpochCallbackSeesEveryEpoch) {
  util::Rng rng{52};
  Tensor x_train, x_val;
  std::vector<std::size_t> y_train, y_val;
  make_separable(40, rng, x_train, y_train);
  make_separable(20, rng, x_val, y_val);

  Sequential model;
  model.emplace<Dense>(2, 2, rng);
  Adam optimizer{0.01};

  std::vector<std::size_t> seen;
  TrainConfig config;
  config.epochs = 4;
  config.on_epoch = [&](std::size_t epoch, const EpochStats& stats) {
    seen.push_back(epoch);
    EXPECT_GE(stats.train_accuracy, 0.0);
  };
  train_classifier(model, optimizer, x_train, y_train, x_val, y_val, config,
                   rng);
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Trainer, HistoryCsvExport) {
  TrainHistory history;
  history.epochs.push_back(EpochStats{0.5, 0.7, 0.65});
  history.epochs.push_back(EpochStats{0.3, 0.9, 0.85});
  const std::string csv = history_to_csv(history);
  EXPECT_NE(csv.find("epoch,train_loss,train_accuracy,val_accuracy"),
            std::string::npos);
  EXPECT_NE(csv.find("1,0.5,0.7,0.65"), std::string::npos);
  EXPECT_NE(csv.find("2,0.3,0.9,0.85"), std::string::npos);
}

}  // namespace
}  // namespace qhdl::nn
