// Golden bit-identity suite for the zero-allocation workspace trainer: the
// fused/blocked fast path must reproduce train_classifier's Module path
// (reached through a testing::ModulePath adapter, which is not a
// Sequential) TrainHistory to the last ulp — every epoch loss and accuracy,
// across the search space's layer shapes, activations, and odd batch tails
// — because both paths share the same GEMM kernel, loss core, accuracy
// core, and optimizer arithmetic. Hybrid models are pinned against a plain
// Module loop (their quantum stage is the QuantumLayer's own exact path).
#include "nn/workspace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/trainer.hpp"
#include "qnn/amplitude_layer.hpp"
#include "qnn/hybrid_model.hpp"
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

TrainHistory train_once(bool module_path, std::size_t hidden,
                        std::size_t depth, Act act, std::size_t n,
                        std::size_t batch, std::size_t epochs) {
  constexpr std::size_t kFeatures = 4, kClasses = 2;
  Tensor x_train, x_val;
  std::vector<std::size_t> y_train, y_val;
  make_dataset(n, kFeatures, kClasses, 100 + hidden, x_train, y_train);
  make_dataset(n / 2 + 1, kFeatures, kClasses, 200 + depth, x_val, y_val);

  util::Rng init_rng{7 * hidden + depth};
  Sequential model = make_mlp(kFeatures, hidden, depth, kClasses, act,
                              init_rng);
  testing::ModulePath adapter{model};
  Module& trained = module_path ? static_cast<Module&>(adapter) : model;
  Adam optimizer{1e-3};
  TrainConfig config;
  config.epochs = epochs;
  config.batch_size = batch;
  util::Rng train_rng{997};
  util::Metrics::global().reset();
  TrainHistory history = train_classifier(trained, optimizer, x_train,
                                          y_train, x_val, y_val, config,
                                          train_rng);
  EXPECT_EQ(qhdl::testing::global_count("fastpath.module_runs"),
            module_path ? 1u : 0u);
  return history;
}

/// Dense(F→q) + Tanh, QuantumLayer, Dense(q→C): build_hybrid_model's
/// topology with every QuantumLayer setting (noise, shots, threads) open.
Sequential make_hybrid(std::size_t features,
                       const qnn::QuantumLayerConfig& qconfig,
                       std::size_t classes, util::Rng& rng) {
  Sequential model;
  model.emplace<Dense>(features, qconfig.qubits, rng);
  model.emplace<Tanh>();
  model.emplace<qnn::QuantumLayer>(qconfig, rng);
  model.emplace<Dense>(qconfig.qubits, classes, rng);
  return model;
}

/// AmplitudeQuantumLayer over 4 features (2 qubits) + Dense(2→2).
Sequential make_amplitude_model(util::Rng& rng) {
  qnn::AmplitudeLayerConfig config;
  config.qubits = 2;
  config.depth = 1;
  Sequential model;
  model.emplace<qnn::AmplitudeQuantumLayer>(config, rng);
  model.emplace<Dense>(2, 2, rng);
  return model;
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
      const TrainHistory via_module =
          train_once(true, hidden, depth, Act::Tanh, 52, 8, 3);
      const TrainHistory fast =
          train_once(false, hidden, depth, Act::Tanh, 52, 8, 3);
      SCOPED_TRACE("hidden=" + std::to_string(hidden) +
                   " depth=" + std::to_string(depth));
      expect_bit_identical(via_module, fast);
    }
  }
}

TEST(Workspace, GoldenBitIdentityReluAndSigmoid) {
  for (const Act act : {Act::ReLU, Act::Sigmoid}) {
    const TrainHistory via_module = train_once(true, 6, 2, act, 52, 8, 4);
    const TrainHistory fast = train_once(false, 6, 2, act, 52, 8, 4);
    expect_bit_identical(via_module, fast);
  }
}

TEST(Workspace, GoldenBitIdentityOddBatchShapes) {
  // Batch sizes that do / don't divide n, batch > n, batch == 1.
  const struct { std::size_t n, batch; } cases[] = {
      {52, 8}, {40, 8}, {7, 16}, {9, 1}, {13, 5},
  };
  for (const auto& c : cases) {
    const TrainHistory via_module =
        train_once(true, 5, 2, Act::Tanh, c.n, c.batch, 3);
    const TrainHistory fast =
        train_once(false, 5, 2, Act::Tanh, c.n, c.batch, 3);
    SCOPED_TRACE("n=" + std::to_string(c.n) +
                 " batch=" + std::to_string(c.batch));
    expect_bit_identical(via_module, fast);
  }
}

TEST(Workspace, CompileSupportsDenseStacksAndRowStages) {
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

  // The paper's hybrid compiles: its exact QuantumLayer is a row stage.
  qnn::QuantumLayerConfig qconfig;
  qconfig.qubits = 2;
  qconfig.depth = 1;
  Sequential hybrid = make_hybrid(4, qconfig, 2, rng);
  EXPECT_TRUE(TrainWorkspace::supports(hybrid));
  EXPECT_NE(TrainWorkspace::compile(hybrid, 8, 64), nullptr);

  // So do noisy and finite-shot hybrids: every QuantumLayer mode is a row
  // stage.
  qnn::QuantumLayerConfig noisy = qconfig;
  noisy.noise = quantum::NoiseModel::depolarizing(0.01);
  Sequential noisy_hybrid = make_hybrid(4, noisy, 2, rng);
  EXPECT_TRUE(TrainWorkspace::supports(noisy_hybrid));
  EXPECT_NE(TrainWorkspace::compile(noisy_hybrid, 8, 64), nullptr);
  qnn::QuantumLayerConfig shots = qconfig;
  shots.shots = 100;
  Sequential shot_hybrid = make_hybrid(4, shots, 2, rng);
  EXPECT_TRUE(TrainWorkspace::supports(shot_hybrid));
  EXPECT_NE(TrainWorkspace::compile(shot_hybrid, 8, 64), nullptr);

  // The amplitude-encoded layer has no row stage.
  Sequential amplitude = make_amplitude_model(rng);
  EXPECT_FALSE(TrainWorkspace::supports(amplitude));
  EXPECT_EQ(TrainWorkspace::compile(amplitude, 8, 64), nullptr);
}

/// Trains `model` for one epoch on 12 rows (batch 4) through
/// train_classifier, with the registry reset first.
void train_one_epoch(Sequential& model, std::size_t features) {
  Tensor x;
  std::vector<std::size_t> y;
  make_dataset(12, features, 2, 9, x, y);
  Adam optimizer{1e-3};
  TrainConfig config;
  config.epochs = 1;
  config.batch_size = 4;
  util::Metrics::global().reset();
  util::Rng train_rng{17};
  train_classifier(model, optimizer, x, y, x, y, config, train_rng);
}

TEST(Workspace, HybridRouting) {
  util::Rng rng{5};
  qnn::QuantumLayerConfig qconfig;
  qconfig.qubits = 2;
  qconfig.depth = 1;

  // A paper hybrid trains on the workspace, and so do noisy and
  // finite-shot hybrids.
  for (const qnn::AnsatzKind ansatz : {qnn::AnsatzKind::BasicEntangler,
                                       qnn::AnsatzKind::StronglyEntangling}) {
    qnn::HybridConfig config;
    config.features = 2;
    config.qubits = 2;
    config.depth = 1;
    config.ansatz = ansatz;
    config.classes = 2;
    auto paper = qnn::build_hybrid_model(config, rng);
    train_one_epoch(*paper, 2);
    EXPECT_EQ(qhdl::testing::global_count("fastpath.workspace_runs"), 1u);
    EXPECT_EQ(qhdl::testing::global_count("fastpath.module_runs"), 0u);
  }

  qnn::QuantumLayerConfig noisy = qconfig;
  noisy.noise = quantum::NoiseModel::depolarizing(0.01);
  qnn::QuantumLayerConfig shots = qconfig;
  shots.shots = 100;
  for (const qnn::QuantumLayerConfig& layer : {noisy, shots}) {
    Sequential hybrid = make_hybrid(2, layer, 2, rng);
    train_one_epoch(hybrid, 2);
    EXPECT_EQ(qhdl::testing::global_count("fastpath.workspace_runs"), 1u);
    EXPECT_EQ(qhdl::testing::global_count("fastpath.module_runs"), 0u);
  }

  // Only the amplitude-encoded model keeps the Module path.
  Sequential amplitude = make_amplitude_model(rng);
  train_one_epoch(amplitude, 4);
  EXPECT_EQ(qhdl::testing::global_count("fastpath.module_runs"), 1u);
  EXPECT_EQ(qhdl::testing::global_count("fastpath.workspace_runs"), 0u);
}

/// The Module path as a plain loop — zero_grad, forward, loss, backward,
/// Adam::step per batch, then Module-forward accuracy passes — with
/// train_classifier's shuffling and epoch bookkeeping (no early stopping).
TrainHistory train_module_loop(Sequential& model, const Tensor& x_train,
                               std::span<const std::size_t> y_train,
                               const Tensor& x_val,
                               std::span<const std::size_t> y_val,
                               const TrainConfig& config, util::Rng& rng) {
  Adam optimizer{config.learning_rate};
  SoftmaxCrossEntropy loss_fn;
  const std::size_t n = x_train.rows();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  TrainHistory history;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin < n; begin += config.batch_size) {
      const std::size_t end = std::min(begin + config.batch_size, n);
      const std::span<const std::size_t> rows{order.data() + begin,
                                              end - begin};
      std::vector<std::size_t> labels;
      for (const std::size_t r : rows) labels.push_back(y_train[r]);
      model.zero_grad();
      const Tensor logits = model.forward(slice_rows(x_train, rows));
      const LossResult loss = loss_fn.evaluate(logits, labels);
      model.backward(loss.grad);
      optimizer.step(model.parameters());
      epoch_loss += loss.value;
      ++batches;
    }
    EpochStats stats;
    stats.train_loss = epoch_loss / static_cast<double>(batches);
    stats.train_accuracy = evaluate_accuracy(model, x_train, y_train);
    stats.val_accuracy = evaluate_accuracy(model, x_val, y_val);
    history.epochs.push_back(stats);
    history.best_train_accuracy =
        std::max(history.best_train_accuracy, stats.train_accuracy);
    history.best_val_accuracy =
        std::max(history.best_val_accuracy, stats.val_accuracy);
    history.epochs_run = epoch + 1;
  }
  return history;
}

// The hybrid oracle is the Module path on the same backend, written out as
// a plain loop.
TEST(Workspace, HybridMatchesModulePath) {
  constexpr std::size_t kFeatures = 4, kClasses = 2;
  Tensor x_train, x_val;
  std::vector<std::size_t> y_train, y_val;
  // 27 rows with batch 8 leave a 3-row tail batch every epoch.
  make_dataset(27, kFeatures, kClasses, 41, x_train, y_train);
  make_dataset(14, kFeatures, kClasses, 43, x_val, y_val);
  TrainConfig config;
  config.epochs = 3;
  config.batch_size = 8;

  for (const qnn::AnsatzKind ansatz : {qnn::AnsatzKind::BasicEntangler,
                                       qnn::AnsatzKind::StronglyEntangling}) {
    for (std::size_t depth = 1; depth <= 3; ++depth) {
      for (const std::size_t qubits : {std::size_t{2}, std::size_t{3}}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
          SCOPED_TRACE(qnn::ansatz_name(ansatz) +
                       " d=" + std::to_string(depth) +
                       " q=" + std::to_string(qubits) +
                       " threads=" + std::to_string(threads));
          qnn::QuantumLayerConfig qconfig;
          qconfig.qubits = qubits;
          qconfig.depth = depth;
          qconfig.ansatz = ansatz;
          qconfig.encoding.scale = 1.5;
          qconfig.threads = threads;

          util::Rng init_a{11 * depth + qubits}, init_b{11 * depth + qubits};
          Sequential fused = make_hybrid(kFeatures, qconfig, kClasses, init_a);
          Sequential module = make_hybrid(kFeatures, qconfig, kClasses,
                                          init_b);

          util::Metrics::global().reset();
          Adam optimizer{config.learning_rate};
          util::Rng rng_a{997}, rng_b{997};
          const TrainHistory workspace_history = train_classifier(
              fused, optimizer, x_train, y_train, x_val, y_val, config, rng_a);
          EXPECT_EQ(qhdl::testing::global_count("fastpath.workspace_runs"),
                    1u);
          const TrainHistory module_history = train_module_loop(
              module, x_train, y_train, x_val, y_val, config, rng_b);

          expect_bit_identical(workspace_history, module_history);
          const auto fused_params = fused.parameters();
          const auto module_params = module.parameters();
          ASSERT_EQ(fused_params.size(), module_params.size());
          for (std::size_t p = 0; p < fused_params.size(); ++p) {
            ASSERT_EQ(fused_params[p]->size(), module_params[p]->size());
            for (std::size_t i = 0; i < fused_params[p]->size(); ++i) {
              EXPECT_EQ(fused_params[p]->value[i], module_params[p]->value[i])
                  << "parameter " << p << " entry " << i;
            }
          }
        }
      }
    }
  }
}

TEST(Workspace, NoisyAndShotHybridsMatchModulePath) {
  // Noisy and finite-shot hybrids train on the workspace; the same models
  // behind a testing::ModulePath adapter (the Module trainer) are the
  // oracle, shot draws included.
  constexpr std::size_t kFeatures = 3, kClasses = 2;
  Tensor x_train, x_val;
  std::vector<std::size_t> y_train, y_val;
  make_dataset(13, kFeatures, kClasses, 47, x_train, y_train);
  make_dataset(6, kFeatures, kClasses, 49, x_val, y_val);
  TrainConfig config;
  config.epochs = 2;
  config.batch_size = 5;

  qnn::QuantumLayerConfig noisy;
  noisy.qubits = 2;
  noisy.depth = 1;
  noisy.noise = quantum::NoiseModel::depolarizing(0.02);
  qnn::QuantumLayerConfig shots = noisy;
  shots.noise = quantum::NoiseModel::noiseless();
  shots.shots = 50;
  for (qnn::QuantumLayerConfig qconfig : {noisy, shots}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      SCOPED_TRACE(std::string{qconfig.shots > 0 ? "shots" : "noisy"} +
                   " threads=" + std::to_string(threads));
      qconfig.threads = threads;
      util::Rng init_a{31}, init_b{31};
      Sequential fused = make_hybrid(kFeatures, qconfig, kClasses, init_a);
      Sequential module = make_hybrid(kFeatures, qconfig, kClasses, init_b);
      testing::ModulePath adapter{module};

      util::Metrics::global().reset();
      Adam optimizer_a{config.learning_rate};
      util::Rng rng_a{991};
      const TrainHistory workspace_history =
          train_classifier(fused, optimizer_a, x_train, y_train, x_val,
                           y_val, config, rng_a);
      EXPECT_EQ(qhdl::testing::global_count("fastpath.workspace_runs"), 1u);
      Adam optimizer_b{config.learning_rate};
      util::Rng rng_b{991};
      const TrainHistory module_history =
          train_classifier(adapter, optimizer_b, x_train, y_train, x_val,
                           y_val, config, rng_b);
      EXPECT_EQ(qhdl::testing::global_count("fastpath.module_runs"), 1u);

      expect_bit_identical(workspace_history, module_history);
      const auto fused_params = fused.parameters();
      const auto module_params = module.parameters();
      ASSERT_EQ(fused_params.size(), module_params.size());
      for (std::size_t p = 0; p < fused_params.size(); ++p) {
        for (std::size_t i = 0; i < fused_params[p]->size(); ++i) {
          EXPECT_EQ(fused_params[p]->value[i], module_params[p]->value[i])
              << "parameter " << p << " entry " << i;
        }
      }
    }
  }
}

TEST(Workspace, ClassicalModelsUseWorkspacePath) {
  util::Metrics::global().reset();
  train_once(false, 4, 1, Act::Tanh, 20, 8, 1);
  EXPECT_EQ(qhdl::testing::global_count("fastpath.workspace_runs"), 1u);
  EXPECT_EQ(qhdl::testing::global_count("fastpath.module_runs"), 0u);
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
