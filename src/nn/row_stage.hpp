// Raw-buffer row stage: the narrow interface a layer implements so that
// TrainWorkspace (nn/workspace.hpp) can run it between its fused dense
// stages on preallocated buffers, without nn knowing what the layer
// computes. The hybrid QuantumLayer (qnn/quantum_layer.hpp) is the one
// implementation, in every mode (exact, noisy, finite-shot): its
// Module::forward/backward are thin wrappers over these two calls, so the
// workspace and the Module path share one implementation.
//
// Buffers are row-major: `rows` rows of row_inputs() (inputs, input
// gradients) or row_outputs() (outputs, output gradients) doubles.
#pragma once

#include <cstddef>

namespace qhdl::nn {

class RowStage {
 public:
  virtual std::size_t row_inputs() const = 0;
  virtual std::size_t row_outputs() const = 0;

  /// Forward for `rows` rows of `input` into `out`. May keep state for the
  /// backward_rows call that follows.
  virtual void forward_rows(const double* input, std::size_t rows,
                            double* out) = 0;

  /// Backward for the same `rows` rows of `input` the preceding
  /// forward_rows saw: writes dL/d(input) for `grad_out` into `grad_in`
  /// (skipped when nullptr) and accumulates the parameter gradients into
  /// the layer's Parameter::grad tensors, rows in ascending order.
  virtual void backward_rows(const double* input, const double* grad_out,
                             std::size_t rows, double* grad_in) = 0;

 protected:
  /// The layer owns its stage; nothing deletes through this interface.
  ~RowStage() = default;
};

}  // namespace qhdl::nn
