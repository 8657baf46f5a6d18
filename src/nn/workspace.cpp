#include "nn/workspace.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/fastpath.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/row_stage.hpp"
#include "tensor/gemm.hpp"

namespace qhdl::nn {

namespace {

// Fused bias-add + activation epilogue over a GEMM result. Matches the
// reference path's arithmetic exactly: (z + b) first, then the activation
// on that double — the same two steps add_row_broadcast and the activation
// modules perform, just without a trip through intermediate tensors.
template <typename Act>
void bias_act_rows(double* out, std::size_t rows, std::size_t cols,
                   const double* bias, Act&& act) {
  for (std::size_t i = 0; i < rows; ++i) {
    double* row = out + i * cols;
    for (std::size_t j = 0; j < cols; ++j) {
      row[j] = act(row[j] + bias[j]);
    }
  }
}

}  // namespace

bool TrainWorkspace::supports(Sequential& model) {
  bool activation_allowed = false;  // only right after a Dense
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    Module& layer = model.layer(i);
    if (dynamic_cast<Dense*>(&layer) != nullptr) {
      activation_allowed = true;
      continue;
    }
    const bool is_activation = dynamic_cast<Tanh*>(&layer) != nullptr ||
                               dynamic_cast<ReLU*>(&layer) != nullptr ||
                               dynamic_cast<Sigmoid*>(&layer) != nullptr;
    if (is_activation ? !activation_allowed : layer.row_stage() == nullptr) {
      return false;
    }
    activation_allowed = false;  // at most one activation per Dense
  }
  return model.layer_count() > 0;
}

std::unique_ptr<TrainWorkspace> TrainWorkspace::compile(
    Sequential& model, std::size_t max_batch_rows, std::size_t max_eval_rows) {
  if (!supports(model) || max_batch_rows == 0) return nullptr;

  std::unique_ptr<TrainWorkspace> ws{new TrainWorkspace()};
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    Module& layer = model.layer(i);
    if (auto* dense = dynamic_cast<Dense*>(&layer)) {
      Stage stage;
      stage.dense = dense;
      stage.inputs = dense->inputs();
      stage.outputs = dense->outputs();
      ws->stages_.push_back(stage);
    } else if (RowStage* rows = layer.row_stage()) {
      Stage stage;
      stage.rows = rows;
      stage.inputs = rows->row_inputs();
      stage.outputs = rows->row_outputs();
      ws->stages_.push_back(stage);
    } else if (dynamic_cast<Tanh*>(&layer) != nullptr) {
      ws->stages_.back().activation = FusedActivation::Tanh;
    } else if (dynamic_cast<ReLU*>(&layer) != nullptr) {
      ws->stages_.back().activation = FusedActivation::ReLU;
    } else {
      ws->stages_.back().activation = FusedActivation::Sigmoid;
    }
  }
  // Widths must chain, otherwise the model would throw on forward anyway;
  // refuse to compile so the reference path reports the error.
  for (std::size_t s = 1; s < ws->stages_.size(); ++s) {
    if (ws->stages_[s].inputs != ws->stages_[s - 1].outputs) return nullptr;
  }

  ws->features_ = ws->stages_.front().inputs;
  ws->classes_ = ws->stages_.back().outputs;
  ws->max_batch_rows_ = max_batch_rows;
  ws->max_eval_rows_ = max_eval_rows;

  ws->parameters_ = model.parameters();
  ws->x_batch_.resize(max_batch_rows * ws->features_);
  ws->y_batch_.resize(max_batch_rows);
  ws->activations_.resize(ws->stages_.size());
  ws->gradients_.resize(ws->stages_.size());
  std::size_t max_width = ws->features_;
  for (std::size_t s = 0; s < ws->stages_.size(); ++s) {
    ws->activations_[s].resize(max_batch_rows * ws->stages_[s].outputs);
    ws->gradients_[s].resize(max_batch_rows * ws->stages_[s].outputs);
    max_width = std::max(max_width, ws->stages_[s].outputs);
  }
  ws->eval_front_.resize(max_eval_rows * max_width);
  ws->eval_back_.resize(max_eval_rows * max_width);
  return ws;
}

void TrainWorkspace::stage_forward(const Stage& stage, const double* input,
                                   std::size_t m, double* out) {
  if (stage.rows != nullptr) {
    stage.rows->forward_rows(input, m, out);
    return;
  }
  tensor::gemm::dgemm(m, stage.outputs, stage.inputs, input, stage.inputs,
                      /*a_transposed=*/false, stage.dense->weight().value.data().data(),
                      stage.outputs, /*b_transposed=*/false, out, stage.outputs,
                      /*accumulate=*/false);
  const double* bias = stage.dense->bias().value.data().data();
  switch (stage.activation) {
    case FusedActivation::None:
      bias_act_rows(out, m, stage.outputs, bias, [](double v) { return v; });
      break;
    case FusedActivation::Tanh:
      bias_act_rows(out, m, stage.outputs, bias,
                    [](double v) { return std::tanh(v); });
      break;
    case FusedActivation::ReLU:
      bias_act_rows(out, m, stage.outputs, bias,
                    [](double v) { return v < 0.0 ? 0.0 : v; });
      break;
    case FusedActivation::Sigmoid:
      bias_act_rows(out, m, stage.outputs, bias,
                    [](double v) { return 1.0 / (1.0 + std::exp(-v)); });
      break;
  }
}

double TrainWorkspace::train_step(const tensor::Tensor& x,
                                  std::span<const std::size_t> labels,
                                  std::span<const std::size_t> rows,
                                  Optimizer& optimizer) {
  const std::size_t m = rows.size();
  if (m == 0 || m > max_batch_rows_) {
    throw std::invalid_argument("TrainWorkspace::train_step: bad batch size");
  }
  if (x.rank() != 2 || x.cols() != features_ || x.rows() != labels.size()) {
    throw std::invalid_argument("TrainWorkspace::train_step: data mismatch");
  }

  // Gather the batch rows/labels into the preallocated buffers.
  const std::size_t n = x.rows();
  const double* xdata = x.data().data();
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t r = rows[i];
    if (r >= n) {
      throw std::out_of_range("TrainWorkspace::train_step: row out of range");
    }
    std::copy(xdata + r * features_, xdata + (r + 1) * features_,
              x_batch_.data() + i * features_);
    y_batch_[i] = labels[r];
  }

  for (Parameter* p : parameters_) p->zero_grad();

  // Forward through every stage.
  const double* input = x_batch_.data();
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    stage_forward(stages_[s], input, m, activations_[s].data());
    input = activations_[s].data();
  }

  // Fused loss forward + gradient straight into the last gradient buffer.
  const double loss = detail::softmax_xent_forward_grad(
      activations_.back().data(), m, classes_, y_batch_.data(),
      gradients_.back().data());

  // Backward. Same per-layer arithmetic as the reference modules: a row
  // stage runs its own backward; a dense stage takes the activation
  // derivative in place, then dW += Xᵀ·dY, db += colsum(dY), dX = dY·Wᵀ.
  for (std::size_t s = stages_.size(); s-- > 0;) {
    const Stage& stage = stages_[s];
    double* grad = gradients_[s].data();
    const double* stage_input =
        s == 0 ? x_batch_.data() : activations_[s - 1].data();
    // The first stage's input gradient is consumed by nothing — skip it.
    double* grad_in = s == 0 ? nullptr : gradients_[s - 1].data();
    if (stage.rows != nullptr) {
      stage.rows->backward_rows(stage_input, grad, m, grad_in);
      continue;
    }
    const double* out = activations_[s].data();
    const std::size_t count = m * stage.outputs;
    switch (stage.activation) {
      case FusedActivation::None:
        break;
      case FusedActivation::Tanh:
        for (std::size_t i = 0; i < count; ++i) {
          const double y = out[i];
          grad[i] *= 1.0 - y * y;
        }
        break;
      case FusedActivation::ReLU:
        // output <= 0 exactly when the pre-activation input was <= 0, so the
        // reference mask (on the cached input) is reproduced from outputs.
        for (std::size_t i = 0; i < count; ++i) {
          if (out[i] <= 0.0) grad[i] = 0.0;
        }
        break;
      case FusedActivation::Sigmoid:
        for (std::size_t i = 0; i < count; ++i) {
          const double y = out[i];
          grad[i] *= y * (1.0 - y);
        }
        break;
    }

    // dW += Xᵀ·dY, accumulated directly into the parameter gradient.
    tensor::gemm::dgemm(stage.inputs, stage.outputs, m, stage_input,
                        stage.inputs, /*a_transposed=*/true, grad,
                        stage.outputs, /*b_transposed=*/false,
                        stage.dense->weight().grad.data().data(),
                        stage.outputs, /*accumulate=*/true);
    // db += column sums of dY, in the same row-ascending order as sum_rows.
    double* bias_grad = stage.dense->bias().grad.data().data();
    for (std::size_t i = 0; i < m; ++i) {
      const double* grow = grad + i * stage.outputs;
      for (std::size_t j = 0; j < stage.outputs; ++j) bias_grad[j] += grow[j];
    }
    // dX = dY·Wᵀ into the previous stage's gradient buffer.
    if (grad_in != nullptr) {
      tensor::gemm::dgemm(m, stage.inputs, stage.outputs, grad, stage.outputs,
                          /*a_transposed=*/false,
                          stage.dense->weight().value.data().data(),
                          stage.outputs, /*b_transposed=*/true, grad_in,
                          stage.inputs, /*accumulate=*/false);
    }
  }

  optimizer.step(parameters_);
  fastpath::count_workspace_steps(1);
  return loss;
}

double TrainWorkspace::evaluate_accuracy(const tensor::Tensor& x,
                                         std::span<const std::size_t> labels) {
  const std::size_t rows = x.rows();
  if (x.rank() != 2 || x.cols() != features_ || rows != labels.size()) {
    throw std::invalid_argument(
        "TrainWorkspace::evaluate_accuracy: data mismatch");
  }
  if (rows > max_eval_rows_) {
    throw std::invalid_argument(
        "TrainWorkspace::evaluate_accuracy: more rows than compiled for");
  }
  if (rows == 0) return 0.0;

  // Ping-pong forward through the two eval buffers.
  const double* input = x.data().data();
  double* front = eval_front_.data();
  double* back = eval_back_.data();
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    stage_forward(stages_[s], input, rows, front);
    input = front;
    std::swap(front, back);
  }
  return detail::accuracy_rows(input, rows, classes_, labels.data());
}

}  // namespace qhdl::nn
