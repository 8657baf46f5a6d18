// Layer-based reverse-mode differentiation.
//
// Each Module implements forward(batch) and backward(grad_output); backward
// both returns the gradient w.r.t. the module input (propagated upstream) and
// accumulates gradients into its Parameters. This mirrors the paper's
// Keras-style training loop while keeping the gradient path fully inspectable
// and testable (see tests/test_nn_gradcheck.cpp).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace qhdl::nn {

class RowStage;

/// A trainable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  tensor::Tensor value;
  tensor::Tensor grad;

  Parameter(std::string parameter_name, tensor::Tensor initial)
      : name(std::move(parameter_name)),
        value(std::move(initial)),
        grad(tensor::Tensor::zeros(value.shape())) {}

  void zero_grad() { grad.fill(0.0); }
  std::size_t size() const { return value.size(); }
};

/// Structural description of a layer, consumed by the FLOPs profiler
/// (flops::CostModel) without coupling nn to the flops module.
struct LayerInfo {
  std::string kind;              ///< "dense", "tanh", "relu", "sigmoid",
                                 ///< "softmax", "quantum"
  std::size_t inputs = 0;        ///< per-sample input width
  std::size_t outputs = 0;       ///< per-sample output width
  std::size_t parameter_count = 0;

  // Quantum-layer extras (zero / empty for classical layers).
  std::size_t qubits = 0;
  std::size_t depth = 0;
  std::string ansatz;            ///< "bel" or "sel"
  std::size_t gate_count = 0;        ///< total circuit ops incl. encoding
  std::size_t param_gate_count = 0;  ///< parameterized (rotation) ops
  std::size_t encoding_gate_count = 0;
};

/// Base class for differentiable layers.
class Module {
 public:
  virtual ~Module() = default;

  /// Forward pass on a batch [B, inputs] -> [B, outputs]. May cache
  /// activations needed by backward.
  virtual tensor::Tensor forward(const tensor::Tensor& input) = 0;

  /// Backward pass: given dL/d(output) [B, outputs], accumulates parameter
  /// gradients and returns dL/d(input) [B, inputs]. Must be called after a
  /// matching forward().
  virtual tensor::Tensor backward(const tensor::Tensor& grad_output) = 0;

  /// Trainable parameters (empty for activations).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Structural descriptor for profiling/reporting.
  virtual LayerInfo info() const = 0;

  /// Human-readable one-liner, e.g. "Dense(10 -> 6)".
  virtual std::string name() const = 0;

  /// The layer's raw-buffer row stage (nn/row_stage.hpp) when it has one,
  /// else nullptr. TrainWorkspace runs such layers
  /// on its preallocated buffers.
  virtual RowStage* row_stage() { return nullptr; }

  void zero_grad();

  /// Total trainable scalar count.
  std::size_t parameter_count();
};

}  // namespace qhdl::nn
