#include "nn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "nn/fastpath.hpp"
#include "nn/metrics.hpp"
#include "nn/sequential.hpp"
#include "nn/workspace.hpp"
#include "util/csv.hpp"
#include "util/fault_injection.hpp"
#include "util/string_util.hpp"
#include "util/logging.hpp"

namespace qhdl::nn {

using tensor::Shape;
using tensor::Tensor;

NonFiniteError::NonFiniteError(std::string what_kind,
                               std::size_t epoch_index)
    : std::runtime_error("train_classifier: non-finite " + what_kind +
                         " at epoch " + std::to_string(epoch_index + 1)),
      kind_(std::move(what_kind)),
      epoch_(epoch_index) {}

namespace {

/// Epoch-end sweep over every trainable value. A NaN/Inf gradient that
/// slipped past the loss check leaves its footprint in the parameters after
/// the optimizer step, so this catches "gradient exploded but the loss still
/// looked finite" one epoch boundary later at O(P) cost.
bool parameters_all_finite(Module& model) {
  for (const Parameter* parameter : model.parameters()) {
    for (double v : parameter->value.data()) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

}  // namespace

void slice_rows_into(const Tensor& matrix,
                     std::span<const std::size_t> row_indices, Tensor& out) {
  if (matrix.rank() != 2) {
    throw std::invalid_argument("slice_rows: rank-2 input expected");
  }
  const std::size_t rows = matrix.rows(), cols = matrix.cols();
  if (out.rank() != 2 || out.rows() != row_indices.size() ||
      out.cols() != cols) {
    throw std::invalid_argument("slice_rows_into: bad output shape");
  }
  const double* src = matrix.data().data();
  double* dst = out.data().data();
  for (std::size_t i = 0; i < row_indices.size(); ++i) {
    const std::size_t r = row_indices[i];
    if (r >= rows) {
      throw std::out_of_range("slice_rows: row index out of range");
    }
    std::copy(src + r * cols, src + (r + 1) * cols, dst + i * cols);
  }
}

Tensor slice_rows(const Tensor& matrix,
                  std::span<const std::size_t> row_indices) {
  if (matrix.rank() != 2) {
    throw std::invalid_argument("slice_rows: rank-2 input expected");
  }
  Tensor out{Shape{row_indices.size(), matrix.cols()}};
  slice_rows_into(matrix, row_indices, out);
  return out;
}

double evaluate_accuracy(Module& model, const Tensor& x,
                         std::span<const std::size_t> y) {
  const Tensor logits = model.forward(x);
  return accuracy(logits, y);
}

TrainHistory train_classifier(Module& model, Optimizer& optimizer,
                              const Tensor& x_train,
                              std::span<const std::size_t> y_train,
                              const Tensor& x_val,
                              std::span<const std::size_t> y_val,
                              const TrainConfig& config, util::Rng& rng) {
  if (x_train.rank() != 2 || x_train.rows() != y_train.size()) {
    throw std::invalid_argument("train_classifier: train data mismatch");
  }
  if (x_val.rank() != 2 || x_val.rows() != y_val.size()) {
    throw std::invalid_argument("train_classifier: val data mismatch");
  }
  if (config.batch_size == 0) {
    throw std::invalid_argument("train_classifier: batch_size must be > 0");
  }

  const std::size_t n = x_train.rows();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  // Workspace fast path: classical stacks and the paper's hybrids (whose
  // exact-path QuantumLayer is a row stage) train through a preallocated,
  // fused, zero-steady-state-allocation pipeline. Noisy, finite-shot and
  // amplitude-encoded layers and custom models use the Module path below.
  // Both produce bit-identical histories.
  std::unique_ptr<TrainWorkspace> workspace;
  if (auto* sequential = dynamic_cast<Sequential*>(&model)) {
    workspace = TrainWorkspace::compile(*sequential,
                                        std::min(config.batch_size, n),
                                        std::max(n, x_val.rows()));
  }
  if (workspace) {
    fastpath::count_workspace_run();
  } else {
    fastpath::count_module_run();
  }

  // Module-path batch buffers, reused across batches: one tensor for
  // full batches and (when n % batch_size != 0) one for the tail batch.
  const std::size_t full_rows = std::min(config.batch_size, n);
  const std::size_t tail_rows = n % config.batch_size;
  Tensor x_batch_full, x_batch_tail;
  std::vector<std::size_t> y_batch;
  if (!workspace && n > 0) {
    x_batch_full = Tensor{Shape{full_rows, x_train.cols()}};
    if (tail_rows != 0 && tail_rows != full_rows) {
      x_batch_tail = Tensor{Shape{tail_rows, x_train.cols()}};
    }
    y_batch.reserve(full_rows);
  }

  SoftmaxCrossEntropy loss_fn;
  TrainHistory history;
  history.epochs.reserve(config.epochs);
  double best_val_for_patience = -1.0;
  std::size_t epochs_without_improvement = 0;

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    if (config.shuffle) rng.shuffle(order);

    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin < n; begin += config.batch_size) {
      const std::size_t end = std::min(begin + config.batch_size, n);
      const std::span<const std::size_t> batch_rows{order.data() + begin,
                                                    end - begin};
      double batch_loss = 0.0;
      if (workspace) {
        batch_loss =
            workspace->train_step(x_train, y_train, batch_rows, optimizer);
      } else {
        Tensor& x_batch =
            batch_rows.size() == full_rows ? x_batch_full : x_batch_tail;
        slice_rows_into(x_train, batch_rows, x_batch);
        y_batch.resize(batch_rows.size());
        for (std::size_t i = 0; i < batch_rows.size(); ++i) {
          y_batch[i] = y_train[batch_rows[i]];
        }

        model.zero_grad();
        const Tensor logits = model.forward(x_batch);
        const LossResult loss = loss_fn.evaluate(logits, y_batch);
        model.backward(loss.grad);
        optimizer.step(model.parameters());

        batch_loss = loss.value;
      }
      if (util::FaultInjector::instance().poison_loss()) {
        batch_loss = std::numeric_limits<double>::quiet_NaN();
      }
      if (config.finite_guard && !std::isfinite(batch_loss)) {
        throw NonFiniteError("loss", epoch);
      }
      epoch_loss += batch_loss;
      ++batches;
    }
    if (config.finite_guard && !parameters_all_finite(model)) {
      throw NonFiniteError("parameters", epoch);
    }

    EpochStats stats;
    stats.train_loss = batches > 0 ? epoch_loss / static_cast<double>(batches)
                                   : 0.0;
    if (workspace) {
      stats.train_accuracy = workspace->evaluate_accuracy(x_train, y_train);
      stats.val_accuracy = workspace->evaluate_accuracy(x_val, y_val);
    } else {
      stats.train_accuracy = evaluate_accuracy(model, x_train, y_train);
      stats.val_accuracy = evaluate_accuracy(model, x_val, y_val);
    }
    history.epochs.push_back(stats);
    history.best_train_accuracy =
        std::max(history.best_train_accuracy, stats.train_accuracy);
    history.best_val_accuracy =
        std::max(history.best_val_accuracy, stats.val_accuracy);
    history.epochs_run = epoch + 1;

    util::log_debug("epoch " + std::to_string(epoch + 1) + "/" +
                    std::to_string(config.epochs) + " loss=" +
                    std::to_string(stats.train_loss) + " train_acc=" +
                    std::to_string(stats.train_accuracy) + " val_acc=" +
                    std::to_string(stats.val_accuracy));
    if (config.on_epoch) config.on_epoch(epoch, stats);

    if (config.early_stop_accuracy > 0.0 &&
        history.best_train_accuracy >= config.early_stop_accuracy &&
        history.best_val_accuracy >= config.early_stop_accuracy) {
      break;
    }
    if (config.patience > 0) {
      // Standard patience semantics: only a STRICT improvement resets the
      // counter, so saturated validation accuracy also triggers the stop.
      if (stats.val_accuracy > best_val_for_patience) {
        best_val_for_patience = stats.val_accuracy;
        epochs_without_improvement = 0;
      } else if (++epochs_without_improvement >= config.patience) {
        break;
      }
    }
  }
  return history;
}

std::string history_to_csv(const TrainHistory& history) {
  util::CsvWriter csv({"epoch", "train_loss", "train_accuracy",
                       "val_accuracy"});
  for (std::size_t e = 0; e < history.epochs.size(); ++e) {
    const EpochStats& stats = history.epochs[e];
    csv.add_row({std::to_string(e + 1),
                 util::format_double(stats.train_loss, 6),
                 util::format_double(stats.train_accuracy, 6),
                 util::format_double(stats.val_accuracy, 6)});
  }
  return csv.to_string();
}

}  // namespace qhdl::nn
