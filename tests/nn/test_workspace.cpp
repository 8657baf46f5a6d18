// Golden bit-identity suite for the zero-allocation workspace trainer: the
// fused/blocked fast path must reproduce the reference Module path's
// TrainHistory to the last ulp — every epoch loss and accuracy, across the
// search space's layer shapes, activations, and odd batch tails — because
// both paths share the same GEMM kernel, loss core, accuracy core, and
// optimizer arithmetic.
#include "nn/workspace.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/trainer.hpp"
#include "qnn/quantum_layer.hpp"
#include "tensor/init.hpp"
#include "test_helpers.hpp"
#include "util/metrics.hpp"

namespace qhdl::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

/// Deterministic synthetic multi-class data (not linearly separable; the
/// histories just need rich dynamics, not convergence).
void make_dataset(std::size_t n, std::size_t features, std::size_t classes,
                  std::uint64_t seed, Tensor& x,
                  std::vector<std::size_t>& y) {
  util::Rng rng{seed};
  x = Tensor{Shape{n, features}};
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < features; ++j) {
      x.at(i, j) = rng.uniform(-1.0, 1.0);
      sum += x.at(i, j);
    }
    y[i] = static_cast<std::size_t>(sum > 0.0 ? 1 : 0) % classes;
  }
}

enum class Act { Tanh, ReLU, Sigmoid };

Sequential make_mlp(std::size_t features, std::size_t hidden,
                    std::size_t depth, std::size_t classes, Act act,
                    util::Rng& rng) {
  Sequential model;
  std::size_t width = features;
  for (std::size_t d = 0; d < depth; ++d) {
    model.emplace<Dense>(width, hidden, rng);
    switch (act) {
      case Act::Tanh: model.emplace<Tanh>(); break;
      case Act::ReLU: model.emplace<ReLU>(); break;
      case Act::Sigmoid: model.emplace<Sigmoid>(); break;
    }
    width = hidden;
  }
  model.emplace<Dense>(width, classes, rng);
  return model;
}

TrainHistory train_once(bool reference, std::size_t hidden,
                        std::size_t depth, Act act, std::size_t n,
                        std::size_t batch, std::size_t epochs) {
  constexpr std::size_t kFeatures = 4, kClasses = 2;
  Tensor x_train, x_val;
  std::vector<std::size_t> y_train, y_val;
  make_dataset(n, kFeatures, kClasses, 100 + hidden, x_train, y_train);
  make_dataset(n / 2 + 1, kFeatures, kClasses, 200 + depth, x_val, y_val);

  const testing::ReferenceScope scope{reference};
  util::Rng init_rng{7 * hidden + depth};
  Sequential model = make_mlp(kFeatures, hidden, depth, kClasses, act,
                              init_rng);
  Adam optimizer{1e-3};
  TrainConfig config;
  config.epochs = epochs;
  config.batch_size = batch;
  util::Rng train_rng{997};
  return train_classifier(model, optimizer, x_train, y_train, x_val, y_val,
                          config, train_rng);
}

void expect_bit_identical(const TrainHistory& a, const TrainHistory& b) {
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].train_loss, b.epochs[e].train_loss) << "epoch " << e;
    EXPECT_EQ(a.epochs[e].train_accuracy, b.epochs[e].train_accuracy)
        << "epoch " << e;
    EXPECT_EQ(a.epochs[e].val_accuracy, b.epochs[e].val_accuracy)
        << "epoch " << e;
  }
  EXPECT_EQ(a.best_train_accuracy, b.best_train_accuracy);
  EXPECT_EQ(a.best_val_accuracy, b.best_val_accuracy);
  EXPECT_EQ(a.epochs_run, b.epochs_run);
}

TEST(Workspace, GoldenBitIdentityAcrossSearchSpaceShapes) {
  // The paper's classical search space: hidden width 2..10, depth 1..3.
  // n=52 with batch 8 leaves an odd 4-row tail batch every epoch.
  for (std::size_t depth = 1; depth <= 3; ++depth) {
    for (std::size_t hidden = 2; hidden <= 10; ++hidden) {
      const TrainHistory ref =
          train_once(true, hidden, depth, Act::Tanh, 52, 8, 3);
      const TrainHistory fast =
          train_once(false, hidden, depth, Act::Tanh, 52, 8, 3);
      SCOPED_TRACE("hidden=" + std::to_string(hidden) +
                   " depth=" + std::to_string(depth));
      expect_bit_identical(ref, fast);
    }
  }
}

TEST(Workspace, GoldenBitIdentityReluAndSigmoid) {
  for (const Act act : {Act::ReLU, Act::Sigmoid}) {
    const TrainHistory ref = train_once(true, 6, 2, act, 52, 8, 4);
    const TrainHistory fast = train_once(false, 6, 2, act, 52, 8, 4);
    expect_bit_identical(ref, fast);
  }
}

TEST(Workspace, GoldenBitIdentityOddBatchShapes) {
  // Batch sizes that do / don't divide n, batch > n, batch == 1.
  const struct { std::size_t n, batch; } cases[] = {
      {52, 8}, {40, 8}, {7, 16}, {9, 1}, {13, 5},
  };
  for (const auto& c : cases) {
    const TrainHistory ref = train_once(true, 5, 2, Act::Tanh, c.n, c.batch, 3);
    const TrainHistory fast =
        train_once(false, 5, 2, Act::Tanh, c.n, c.batch, 3);
    SCOPED_TRACE("n=" + std::to_string(c.n) +
                 " batch=" + std::to_string(c.batch));
    expect_bit_identical(ref, fast);
  }
}

TEST(Workspace, CompileSupportsClassicalStacksOnly) {
  util::Rng rng{3};
  Sequential mlp = make_mlp(4, 5, 2, 2, Act::Tanh, rng);
  EXPECT_TRUE(TrainWorkspace::supports(mlp));
  EXPECT_NE(TrainWorkspace::compile(mlp, 8, 64), nullptr);

  // Activation with no preceding Dense.
  Sequential bare;
  bare.emplace<Tanh>();
  EXPECT_FALSE(TrainWorkspace::supports(bare));

  // Softmax module is not fusable.
  Sequential with_softmax;
  with_softmax.emplace<Dense>(4, 2, rng);
  with_softmax.emplace<Softmax>();
  EXPECT_FALSE(TrainWorkspace::supports(with_softmax));
  EXPECT_EQ(TrainWorkspace::compile(with_softmax, 8, 64), nullptr);

  // Hybrid models (quantum layer) are not compilable.
  qnn::QuantumLayerConfig qconfig;
  qconfig.qubits = 2;
  qconfig.depth = 1;
  Sequential hybrid;
  hybrid.emplace<Dense>(4, 2, rng);
  hybrid.emplace<Tanh>();
  hybrid.emplace<qnn::QuantumLayer>(qconfig, rng);
  hybrid.emplace<Dense>(2, 2, rng);
  EXPECT_FALSE(TrainWorkspace::supports(hybrid));
  EXPECT_EQ(TrainWorkspace::compile(hybrid, 8, 64), nullptr);
}

TEST(Workspace, HybridModelsFallBackToReferencePath) {
  util::Rng rng{5};
  qnn::QuantumLayerConfig qconfig;
  qconfig.qubits = 2;
  qconfig.depth = 1;
  Sequential hybrid;
  hybrid.emplace<Dense>(2, 2, rng);
  hybrid.emplace<Tanh>();
  hybrid.emplace<qnn::QuantumLayer>(qconfig, rng);
  hybrid.emplace<Dense>(2, 2, rng);

  Tensor x;
  std::vector<std::size_t> y;
  make_dataset(12, 2, 2, 9, x, y);
  Adam optimizer{1e-3};
  TrainConfig config;
  config.epochs = 1;
  config.batch_size = 4;

  util::Metrics::global().reset();
  util::Rng train_rng{17};
  train_classifier(hybrid, optimizer, x, y, x, y, config, train_rng);
  EXPECT_EQ(qhdl::testing::global_count("fastpath.reference_runs"), 1u);
  EXPECT_EQ(qhdl::testing::global_count("fastpath.workspace_runs"), 0u);
}

TEST(Workspace, ClassicalModelsUseWorkspacePath) {
  util::Metrics::global().reset();
  train_once(false, 4, 1, Act::Tanh, 20, 8, 1);
  EXPECT_EQ(qhdl::testing::global_count("fastpath.workspace_runs"), 1u);
  EXPECT_EQ(qhdl::testing::global_count("fastpath.reference_runs"), 0u);
  EXPECT_GT(qhdl::testing::global_count("fastpath.workspace_steps"), 0u);
}

TEST(Workspace, EvaluateAccuracyMatchesModuleForward) {
  util::Rng rng{21};
  Sequential model = make_mlp(4, 6, 2, 2, Act::Tanh, rng);
  Tensor x;
  std::vector<std::size_t> y;
  make_dataset(33, 4, 2, 31, x, y);

  auto workspace = TrainWorkspace::compile(model, 8, 33);
  ASSERT_NE(workspace, nullptr);
  EXPECT_EQ(workspace->evaluate_accuracy(x, y),
            evaluate_accuracy(model, x, y));
}

TEST(Workspace, TrainStepValidatesInputs) {
  util::Rng rng{23};
  Sequential model = make_mlp(4, 3, 1, 2, Act::Tanh, rng);
  auto workspace = TrainWorkspace::compile(model, 4, 16);
  ASSERT_NE(workspace, nullptr);

  Tensor x;
  std::vector<std::size_t> y;
  make_dataset(8, 4, 2, 3, x, y);
  Adam optimizer{1e-3};

  const std::vector<std::size_t> too_big{0, 1, 2, 3, 4};  // > max batch
  EXPECT_THROW(workspace->train_step(x, y, too_big, optimizer),
               std::invalid_argument);
  const std::vector<std::size_t> out_of_range{0, 99};
  EXPECT_THROW(workspace->train_step(x, y, out_of_range, optimizer),
               std::out_of_range);
  Tensor big{Shape{32, 4}};
  std::vector<std::size_t> big_y(32, 0);
  EXPECT_THROW(workspace->evaluate_accuracy(big, big_y),
               std::invalid_argument);
}

}  // namespace
}  // namespace qhdl::nn
