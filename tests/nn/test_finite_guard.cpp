// Non-finite guard: a NaN/Inf loss must stop training with a structured
// NonFiniteError (never train on garbage) — classical and hybrid models
// alike, both on the workspace path — the guard must be free on healthy
// runs, and disabling it must restore the unguarded behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "qnn/quantum_layer.hpp"
#include "tensor/init.hpp"
#include "test_helpers.hpp"
#include "util/fault_injection.hpp"
#include "util/metrics.hpp"

namespace qhdl::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

void make_separable(std::size_t n, util::Rng& rng, Tensor& x,
                    std::vector<std::size_t>& y) {
  x = Tensor{Shape{n, 2}};
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    x.at(i, 0) = x0 + (x0 > 0 ? 0.3 : -0.3);
    x.at(i, 1) = rng.uniform(-1.0, 1.0);
    y[i] = x0 > 0 ? 1 : 0;
  }
}

struct Fixture {
  Tensor x_train, x_val;
  std::vector<std::size_t> y_train, y_val;
  Sequential model;
  util::Rng rng{421};

  /// A Dense+Tanh+Dense MLP, or with `hybrid` the paper's hybrid topology
  /// (Dense+Tanh, 2-qubit QuantumLayer, Dense), which trains on the
  /// workspace's quantum stage.
  explicit Fixture(bool hybrid = false) {
    make_separable(40, rng, x_train, y_train);
    make_separable(16, rng, x_val, y_val);
    if (hybrid) {
      qnn::QuantumLayerConfig qconfig;
      qconfig.qubits = 2;
      qconfig.depth = 1;
      model.emplace<Dense>(2, 2, rng);
      model.emplace<Tanh>();
      model.emplace<qnn::QuantumLayer>(qconfig, rng);
      model.emplace<Dense>(2, 2, rng);
      return;
    }
    model.emplace<Dense>(2, 4, rng);
    model.emplace<Tanh>();
    model.emplace<Dense>(4, 2, rng);
  }

  TrainHistory train(const TrainConfig& config) {
    Adam optimizer{config.learning_rate};
    return train_classifier(model, optimizer, x_train, y_train, x_val,
                            y_val, config, rng);
  }
};

class FiniteGuardTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultInjector::instance().configure(""); }
  void TearDown() override { util::FaultInjector::instance().configure(""); }
};

TEST_F(FiniteGuardTest, PoisonedLossThrowsStructuredError) {
  for (const bool hybrid : {false, true}) {
    SCOPED_TRACE(hybrid ? "hybrid" : "classical");
    Fixture f{hybrid};
    TrainConfig config;
    config.epochs = 3;
    util::FaultInjector::instance().configure("loss=nan@1");
    util::Metrics::global().reset();
    try {
      f.train(config);
      FAIL() << "expected NonFiniteError";
    } catch (const NonFiniteError& e) {
      EXPECT_EQ(e.kind(), "loss");
      EXPECT_EQ(e.epoch(), 0u);
      EXPECT_NE(std::string(e.what()).find("non-finite loss"),
                std::string::npos);
    }
    EXPECT_EQ(qhdl::testing::global_count("fastpath.workspace_runs"), 1u);
  }
}

TEST_F(FiniteGuardTest, SecondEpochPoisonReportsSecondEpoch) {
  for (const bool hybrid : {false, true}) {
    SCOPED_TRACE(hybrid ? "hybrid" : "classical");
    Fixture f{hybrid};
    TrainConfig config;
    config.epochs = 3;
    config.batch_size = 8;
    // 40 train rows / batch 8 = 5 loss arrivals per epoch; arrival 6 is the
    // first batch of epoch 2.
    util::FaultInjector::instance().configure("loss=nan@6");
    util::Metrics::global().reset();
    try {
      f.train(config);
      FAIL() << "expected NonFiniteError";
    } catch (const NonFiniteError& e) {
      EXPECT_EQ(e.kind(), "loss");
      EXPECT_EQ(e.epoch(), 1u);
    }
    EXPECT_EQ(qhdl::testing::global_count("fastpath.workspace_runs"), 1u);
  }
}

TEST_F(FiniteGuardTest, GuardOffTrainsThroughPoison) {
  Fixture f;
  TrainConfig config;
  config.epochs = 2;
  config.finite_guard = false;
  util::FaultInjector::instance().configure("loss=nan@1");
  const TrainHistory history = f.train(config);
  // The unguarded trainer averages the NaN into the epoch loss — exactly
  // the silent poisoning the guard exists to prevent.
  EXPECT_EQ(history.epochs_run, 2u);
  EXPECT_TRUE(std::isnan(history.epochs[0].train_loss));
}

TEST_F(FiniteGuardTest, GuardIsFreeOnHealthyRuns) {
  const auto run = [](bool guard) {
    Fixture f;
    TrainConfig config;
    config.epochs = 4;
    config.finite_guard = guard;
    return f.train(config);
  };
  const TrainHistory with_guard = run(true);
  const TrainHistory without = run(false);
  ASSERT_EQ(with_guard.epochs.size(), without.epochs.size());
  for (std::size_t e = 0; e < with_guard.epochs.size(); ++e) {
    EXPECT_EQ(with_guard.epochs[e].train_loss, without.epochs[e].train_loss);
    EXPECT_EQ(with_guard.epochs[e].val_accuracy,
              without.epochs[e].val_accuracy);
  }
  EXPECT_EQ(with_guard.best_val_accuracy, without.best_val_accuracy);
}

}  // namespace
}  // namespace qhdl::nn
