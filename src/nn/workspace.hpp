// Preallocated training workspace — the zero-allocation hot path of the
// grid searches, for classical MLPs and the paper's hybrid models alike.
//
// TrainWorkspace::compile inspects a Sequential and, when every layer is a
// Dense (optionally followed by one Tanh/ReLU/Sigmoid) or offers a raw-
// buffer row stage (Module::row_stage, nn/row_stage.hpp — the
// QuantumLayer), builds a fused execution plan over preallocated buffers:
//
//   * forward:  row-blocked GEMM (tensor/gemm.hpp) straight into a preallocated
//     activation buffer, then one fused bias-add + activation pass; a row
//     stage runs forward_rows from the previous stage's buffer into its own;
//   * loss:     fused softmax-cross-entropy forward/gradient
//     (nn::detail::softmax_xent_forward_grad) into a preallocated gradient
//     buffer;
//   * backward: activation derivative in place, dW/db accumulated directly
//     into the layers' Parameter::grad tensors (GEMM accumulate mode, no
//     temporaries), dX into the previous stage's gradient buffer; a row
//     stage runs backward_rows between the same buffers — and the input
//     gradient of the first stage, which nothing consumes, is skipped;
//   * step:     Optimizer::step over a cached parameter list (Adam's slot
//     map allocates on the first step only).
//
// For the paper's hybrids (Dense(F→q)+Tanh, QuantumLayer, Dense(q→C)) and
// their noisy and finite-shot variants the quantum stage is the layer's own
// row stage: the same thread chunking, forward-state reuse and row-ordered
// weight-gradient accumulation its Module::forward/backward wrap. The
// AmplitudeLayer and any other module have no row stage, so compile
// returns nullptr and train_classifier uses the Module path for them.
//
// After the first steps (warm-up: optimizer slots, GEMM packing scratch,
// the quantum stage's state buffers at their largest batch) a train_step
// and an evaluate_accuracy perform ZERO heap allocations — enforced by the
// allocation-counting tests in tests/nn/test_workspace_alloc.cpp.
//
// Arithmetic is bit-identical to the Module::forward/backward path: both
// route every matrix product through the same GEMM kernel, run the same
// row-stage code, share the loss and accuracy cores, and order every
// floating-point accumulation identically (see DESIGN.md §9). A model that
// is not a Sequential trains on the Module path (nn/fastpath.hpp), so the
// equivalence is testable end to end.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "nn/dense.hpp"
#include "nn/optimizer.hpp"
#include "nn/row_stage.hpp"
#include "nn/sequential.hpp"

namespace qhdl::nn {

class TrainWorkspace {
 public:
  /// True when `model` is a supported stack: a non-empty sequence of Dense
  /// layers, each optionally followed by one Tanh/ReLU/Sigmoid, and layers
  /// with a row stage.
  static bool supports(Sequential& model);

  /// Builds the workspace, preallocating every buffer for batches of up to
  /// `max_batch_rows` rows and eval passes of up to `max_eval_rows` rows.
  /// Returns nullptr when the model is unsupported (train_classifier then
  /// uses the Module path).
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
  /// Activation fused into a dense stage (None for the logits layer and
  /// row stages).
  enum class FusedActivation { None, Tanh, ReLU, Sigmoid };

  /// Exactly one of `dense` and `rows` is set.
  struct Stage {
    Dense* dense = nullptr;
    RowStage* rows = nullptr;
    FusedActivation activation = FusedActivation::None;
    std::size_t inputs = 0;
    std::size_t outputs = 0;
  };

  TrainWorkspace() = default;

  /// Forward for `m` rows of `input` through stage `s` into `out`.
  void stage_forward(const Stage& stage, const double* input, std::size_t m,
                     double* out);

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
