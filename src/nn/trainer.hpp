// Mini-batch training loop reproducing the paper's protocol:
// Adam(lr=1e-3), batch size 8, 100 epochs, record the highest train and
// validation accuracy reached across epochs (Section III-F).
#pragma once

#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/loss.hpp"
#include "nn/module.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"

namespace qhdl::nn {

struct EpochStats {
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  double val_accuracy = 0.0;
};

/// Raised by train_classifier when the non-finite guard trips: a NaN/Inf
/// batch loss, or non-finite parameters at the end of an epoch (the
/// footprint a NaN gradient leaves after the optimizer step). Carries enough
/// identity for the search layer to quarantine the run as a structured
/// RunFailure instead of aborting the sweep or poisoning the accuracy mean.
class NonFiniteError : public std::runtime_error {
 public:
  NonFiniteError(std::string what_kind, std::size_t epoch_index);

  /// "loss" or "parameters".
  const std::string& kind() const { return kind_; }
  /// 0-based epoch in which the guard tripped.
  std::size_t epoch() const { return epoch_; }

 private:
  std::string kind_;
  std::size_t epoch_;
};

struct TrainConfig {
  std::size_t epochs = 100;
  std::size_t batch_size = 8;
  double learning_rate = 1e-3;
  /// Non-finite guard: check every batch loss and, at each epoch end, every
  /// parameter for NaN/Inf; throw NonFiniteError instead of training on.
  /// Pure reads — never changes results of healthy runs on either path.
  bool finite_guard = true;
  /// Stops early once both best train and best val accuracy reach this
  /// value (0 disables). The paper's threshold is 0.90; stopping early is
  /// sound because only the best-so-far accuracies are recorded.
  double early_stop_accuracy = 0.0;
  bool shuffle = true;
  /// Early-stopping patience: stop when val accuracy has not improved for
  /// this many consecutive epochs (0 disables). Independent of
  /// early_stop_accuracy.
  std::size_t patience = 0;
  /// Optional per-epoch observer (epoch index, stats). Called after each
  /// epoch's evaluation; exceptions propagate and abort training.
  std::function<void(std::size_t, const EpochStats&)> on_epoch{};
};

struct TrainHistory {
  std::vector<EpochStats> epochs;
  double best_train_accuracy = 0.0;
  double best_val_accuracy = 0.0;
  std::size_t epochs_run = 0;
};

/// Trains `model` with softmax cross-entropy on (x_train, y_train),
/// evaluating on (x_val, y_val) each epoch. `rng` drives batch shuffling.
///
/// Sequential models of Dense + Tanh/ReLU/Sigmoid layers and row-stage
/// layers — every classical candidate and every paper hybrid with an exact
/// QuantumLayer — train on the zero-allocation workspace fast path
/// (nn/workspace.hpp); anything else (noisy or finite-shot quantum layers,
/// AmplitudeLayer, custom modules) uses the Module::forward/backward path.
/// Both paths produce bit-identical TrainHistory values on the same backend
/// and consume the RNG identically.
TrainHistory train_classifier(Module& model, Optimizer& optimizer,
                              const tensor::Tensor& x_train,
                              std::span<const std::size_t> y_train,
                              const tensor::Tensor& x_val,
                              std::span<const std::size_t> y_val,
                              const TrainConfig& config, util::Rng& rng);

/// Evaluates accuracy of `model` on (x, y) without touching gradients.
double evaluate_accuracy(Module& model, const tensor::Tensor& x,
                         std::span<const std::size_t> y);

/// Extracts rows [begin, end) of a [N,F] matrix into a new tensor.
tensor::Tensor slice_rows(const tensor::Tensor& matrix,
                          std::span<const std::size_t> row_indices);

/// Gathers `row_indices` of a [N,F] matrix into a preallocated
/// [row_indices.size(), F] tensor (row-wise std::copy, no allocation).
void slice_rows_into(const tensor::Tensor& matrix,
                     std::span<const std::size_t> row_indices,
                     tensor::Tensor& out);

/// Learning-curve export: one CSV row per epoch
/// (epoch, train_loss, train_accuracy, val_accuracy).
std::string history_to_csv(const TrainHistory& history);

}  // namespace qhdl::nn
