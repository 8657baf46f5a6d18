// Preallocated training workspace for classical MLPs — the zero-allocation
// hot path of the grid searches.
//
// TrainWorkspace::compile inspects a Sequential and, when it is a pure
// classical stack (Dense layers with optional Tanh/ReLU/Sigmoid between
// them), builds a fused execution plan over preallocated buffers:
//
//   * forward:  blocked GEMM (tensor/gemm.hpp) straight into a preallocated
//     activation buffer, then one fused bias-add + activation pass;
//   * loss:     fused softmax-cross-entropy forward/gradient
//     (nn::detail::softmax_xent_forward_grad) into a preallocated gradient
//     buffer;
//   * backward: activation derivative in place, dW/db accumulated directly
//     into the layers' Parameter::grad tensors (GEMM accumulate mode, no
//     temporaries), dX into the previous stage's gradient buffer — and the
//     dX of the first layer, which nothing consumes, is skipped entirely;
//   * step:     Optimizer::step over a cached parameter list (Adam's slot
//     map allocates on the first step only).
//
// After the first step (warm-up: optimizer slots, GEMM packing scratch) a
// train_step performs ZERO heap allocations — enforced by the allocation-
// counting test in tests/nn/test_workspace_alloc.cpp.
//
// Arithmetic is bit-identical to the reference Module::forward/backward
// path: both route every matrix product through the same GEMM kernel, share
// the loss and accuracy cores, and order every floating-point accumulation
// identically (see DESIGN.md §9). The reference kernel backend
// (nn/fastpath.hpp) puts train_classifier on the reference path, so the
// equivalence is testable end to end.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "nn/dense.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace qhdl::nn {

class TrainWorkspace {
 public:
  /// True when `model` is a supported classical stack: a sequence of Dense
  /// layers, each optionally followed by one Tanh/ReLU/Sigmoid.
  static bool supports(const Sequential& model);

  /// Builds the workspace, preallocating every buffer for batches of up to
  /// `max_batch_rows` rows and eval passes of up to `max_eval_rows` rows.
  /// Returns nullptr when the model is unsupported (hybrid models fall back
  /// to the reference path).
  static std::unique_ptr<TrainWorkspace> compile(Sequential& model,
                                                 std::size_t max_batch_rows,
                                                 std::size_t max_eval_rows);

  /// One fused forward/backward/optimizer step on rows `rows` of
  /// (x, labels). Returns the batch mean loss. Zero heap allocations after
  /// warm-up.
  double train_step(const tensor::Tensor& x,
                    std::span<const std::size_t> labels,
                    std::span<const std::size_t> rows, Optimizer& optimizer);

  /// Full-dataset accuracy through the preallocated eval buffers (single
  /// forward pass, no gradient work, no allocation after warm-up).
  double evaluate_accuracy(const tensor::Tensor& x,
                           std::span<const std::size_t> labels);

  std::size_t features() const { return features_; }
  std::size_t classes() const { return classes_; }
  std::size_t max_batch_rows() const { return max_batch_rows_; }
  std::size_t max_eval_rows() const { return max_eval_rows_; }

 private:
  /// Activation fused into a dense stage (None for the logits layer).
  enum class FusedActivation { None, Tanh, ReLU, Sigmoid };

  struct Stage {
    Dense* dense = nullptr;
    FusedActivation activation = FusedActivation::None;
    std::size_t inputs = 0;
    std::size_t outputs = 0;
  };

  TrainWorkspace() = default;

  /// Forward for `m` rows of `input` through stage `s` into `out`.
  void stage_forward(const Stage& stage, const double* input, std::size_t m,
                     double* out) const;

  std::vector<Stage> stages_;
  std::vector<Parameter*> parameters_;
  std::size_t features_ = 0;
  std::size_t classes_ = 0;
  std::size_t max_batch_rows_ = 0;
  std::size_t max_eval_rows_ = 0;

  // Training buffers: gathered batch input, per-stage post-activation
  // outputs, and per-stage output gradients (all max_batch_rows x width).
  std::vector<double> x_batch_;
  std::vector<std::size_t> y_batch_;
  std::vector<std::vector<double>> activations_;
  std::vector<std::vector<double>> gradients_;

  // Eval scratch: two ping-pong buffers of max_eval_rows x max width.
  std::vector<double> eval_front_;
  std::vector<double> eval_back_;
};

}  // namespace qhdl::nn
