// QuantumLayer: an nn::Module wrapping a parameterized quantum circuit,
// equivalent to the paper's PennyLane KerasLayer (footnote 2).
//
// Per sample: the q input activations are scaled by the encoding scale and
// bound as encoding-gate angles; the trainable weights fill the ansatz
// angles; the outputs are ⟨Z_w⟩ for each wire. Backward runs a single
// adjoint-differentiation sweep per sample that yields BOTH dL/d(input) and
// dL/d(weights), so the hybrid network trains end-to-end exactly like the
// paper's TensorFlow+PennyLane models.
//
// Circuit parameter layout: [inputs (q) | ansatz weights (weight_count)].
//
// Every mode is the layer's nn::RowStage (nn/row_stage.hpp):
// forward_rows/backward_rows on raw row-major buffers. TrainWorkspace calls
// them directly; forward()/backward() are thin Tensor wrappers over the
// same two calls, so the workspace and the Module path run one
// implementation. Each mode runs a whole thread chunk of rows as one batch:
//   * exact: the rows are the lanes of one StateVectorBatch, differentiated
//     by one batched adjoint sweep (or, with DiffMethod::ParameterShift,
//     every shifted circuit is a lane of one batch);
//   * noise: the chunk's density matrices are one DensityMatrixBatch, and
//     backward evaluates every row's shifted circuits as the lanes of one
//     more (parameter-shift rules; adjoint needs pure states);
//   * shots: the exact forward, then each row's state sampled in row order
//     from the layer's one sampling RNG; gradients are the exact ones.
//
// Forward-state reuse (exact and shot layers). The adjoint sweep starts
// from the circuit's output state, which forward_rows() has just computed,
// so the layer simulates each training batch once:
//   * the layer owns one StateVectorBatch per thread chunk; forward_rows()
//     leaves each chunk's final state in it and keeps the packed
//     [angles | weights] rows the states were built from;
//   * backward_rows() repacks the rows from its input and the current
//     weights; only if that buffer is bitwise equal to forward_rows()'s and
//     the kernel backend is the one forward_rows() ran on does the sweep
//     consume the kept states, otherwise it re-simulates the forward;
//   * the states are spent by any backward (consumed or stale), and every
//     forward rebuilds them, so a second backward, or one after the weights
//     changed, recomputes. Either way the gradients are bit-identical.
// Every buffer (states, packed rows, VJP gradient, the shot sampler's CDF)
// is resized in place, so after the largest batch has been seen the exact
// and finite-shot paths allocate nothing
// (on one thread; more go through the shared pool's task queue).
#pragma once

#include <optional>

#include "nn/module.hpp"
#include "nn/row_stage.hpp"
#include "qnn/ansatz.hpp"
#include "qnn/encoding.hpp"
#include "quantum/channels.hpp"
#include "quantum/executor.hpp"
#include "quantum/statevector_batch.hpp"
#include "util/backend_registry.hpp"
#include "util/rng.hpp"

namespace qhdl::qnn {

struct QuantumLayerConfig {
  std::size_t qubits = 3;
  std::size_t depth = 2;
  AnsatzKind ansatz = AnsatzKind::StronglyEntangling;
  AngleEncoding encoding{};
  quantum::DiffMethod diff_method = quantum::DiffMethod::Adjoint;
  /// Non-empty = NISQ-style noisy execution: forward runs on a density
  /// matrix with the model's channels applied after every gate, and backward
  /// uses parameter-shift rules (adjoint differentiation needs pure states).
  quantum::NoiseModel noise{};
  /// Finite-shot forward inference: > 0 estimates each ⟨Z⟩ from this many
  /// basis-state samples (std dev ~ 1/√shots) instead of the exact value.
  /// Gradients remain exact (the layer models shot noise at inference time;
  /// combine with `noise` for channels + shots together is not supported).
  std::size_t shots = 0;
  /// Concurrency over the batch dimension for every mode's forward and
  /// backward, dispatched on the shared util::ThreadPool. 1 = sequential.
  /// Results (shot draws included) are bit-identical regardless of the
  /// thread count.
  std::size_t threads = 1;
};

class QuantumLayer : public nn::Module, public nn::RowStage {
 public:
  /// Weights initialized U(0, 2π) per PennyLane template convention.
  QuantumLayer(const QuantumLayerConfig& config, util::Rng& rng);

  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::vector<nn::Parameter*> parameters() override;
  nn::LayerInfo info() const override;
  std::string name() const override;
  /// This layer, in every mode.
  nn::RowStage* row_stage() override;

  // nn::RowStage (q inputs, q outputs per row).
  std::size_t row_inputs() const override { return config_.qubits; }
  std::size_t row_outputs() const override { return config_.qubits; }
  void forward_rows(const double* input, std::size_t rows,
                    double* out) override;
  void backward_rows(const double* input, const double* grad_out,
                     std::size_t rows, double* grad_in) override;

  std::size_t qubits() const { return config_.qubits; }
  std::size_t depth() const { return config_.depth; }
  AnsatzKind ansatz() const { return config_.ansatz; }
  std::size_t weight_count() const { return weights_.value.size(); }
  const quantum::Executor& executor() const { return executor_; }

  /// Expectations for one pre-scaled angle vector (size = qubits). Used by
  /// tests and the pure-quantum examples.
  std::vector<double> run_single(std::span<const double> angles) const;

 private:
  /// Packs [angles | weights] for `rows` rows of `input` into `out`, row b
  /// at b * (qubits + weight_count).
  void pack_rows(const double* input, std::size_t rows,
                 std::vector<double>& out) const;

  /// Thread chunks a batch splits into.
  std::size_t chunk_count(std::size_t batch) const;

  /// Runs work(chunk, first_row, rows) over chunk_count(batch) contiguous
  /// chunks of [0, batch), on the shared pool when there is more than one.
  template <typename Work>
  void for_each_chunk(std::size_t batch, const Work& work) const;

  QuantumLayerConfig config_;
  quantum::Executor executor_;
  nn::Parameter weights_;
  util::Rng sample_rng_;  ///< drives finite-shot sampling when shots > 0
  std::vector<std::size_t> wires_;  ///< 0 … q-1, the measured wires
  tensor::Tensor cached_input_;
  bool has_cached_input_ = false;
  /// Forward-state reuse (see the file comment): one final state per chunk,
  /// the packed rows and the backend they were simulated with, and
  /// backward_rows()'s repack and VJP gradient.
  std::vector<std::optional<quantum::StateVectorBatch>> forward_states_;
  std::vector<double> forward_params_;
  std::vector<double> backward_params_;
  std::vector<double> vjp_gradient_;
  const util::simd::Backend* forward_backend_ = nullptr;
  bool forward_states_valid_ = false;
  std::vector<double> shot_cdf_;  ///< finite-shot sampling scratch
};

/// Builds the executor (circuit + Z observables) for a config; exposed so
/// the FLOPs model and tests can inspect the exact circuit structure.
quantum::Executor make_quantum_executor(const QuantumLayerConfig& config);

}  // namespace qhdl::qnn
