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
// Forward-state reuse (batched SoA path only). The adjoint sweep starts from
// the circuit's output state, which forward() has just computed, so the
// layer simulates each training batch once:
//   * the layer owns one StateVectorBatch per thread chunk; forward()
//     leaves each chunk's final state in it and keeps the packed
//     [angles | weights] rows the states were built from;
//   * backward() repacks the rows from the cached input and the current
//     weights; only if that buffer is bitwise equal to forward()'s does the
//     sweep consume the kept states, otherwise it re-simulates the forward;
//   * the states are spent by any backward() (consumed or stale), and
//     every forward() rebuilds them, so a second backward(), or one after
//     the weights changed, recomputes. Either way the gradients are
//     bit-identical.
#pragma once

#include <functional>
#include <optional>

#include "nn/module.hpp"
#include "qnn/ansatz.hpp"
#include "qnn/encoding.hpp"
#include "quantum/channels.hpp"
#include "quantum/executor.hpp"
#include "quantum/statevector_batch.hpp"
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
  /// Concurrency over the batch dimension for the exact (noiseless,
  /// shot-free) forward/backward paths, dispatched on the shared
  /// util::ThreadPool. 1 = sequential. Results are bit-identical
  /// regardless of the thread count.
  std::size_t threads = 1;
};

class QuantumLayer : public nn::Module {
 public:
  /// Weights initialized U(0, 2π) per PennyLane template convention.
  QuantumLayer(const QuantumLayerConfig& config, util::Rng& rng);

  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  std::vector<nn::Parameter*> parameters() override;
  nn::LayerInfo info() const override;
  std::string name() const override;

  std::size_t qubits() const { return config_.qubits; }
  std::size_t depth() const { return config_.depth; }
  AnsatzKind ansatz() const { return config_.ansatz; }
  std::size_t weight_count() const { return weights_.value.size(); }
  const quantum::Executor& executor() const { return executor_; }

  /// Expectations for one pre-scaled angle vector (size = qubits). Used by
  /// tests and the pure-quantum examples.
  std::vector<double> run_single(std::span<const double> angles) const;

 private:
  /// Writes [angles | weights] for one sample row into `out` (size
  /// qubits + weight_count).
  void pack_params(const tensor::Tensor& input, std::size_t row,
                   std::span<double> out) const;

  /// Packs every row of `input` into `out`, row b at b * stride.
  void pack_batch(const tensor::Tensor& input, std::vector<double>& out) const;

  /// Thread chunks a batch splits into on the batched path.
  std::size_t chunk_count(std::size_t batch) const;

  /// Runs work(chunk, first_row, rows) over chunk_count(batch) contiguous
  /// chunks of [0, batch), on the shared pool when there is more than one.
  void for_each_chunk(
      std::size_t batch,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& work)
      const;

  /// Dispatches `work(row)` over [0, batch) on the shared pool, at most
  /// config_.threads rows in flight.
  void run_batch_parallel(std::size_t batch,
                          const std::function<void(std::size_t)>& work) const;

  QuantumLayerConfig config_;
  quantum::Executor executor_;
  nn::Parameter weights_;
  util::Rng sample_rng_;  ///< drives finite-shot sampling when shots > 0
  tensor::Tensor cached_input_;
  bool has_cached_input_ = false;
  /// Forward-state reuse (see the file comment): one final state per chunk,
  /// the packed rows they were simulated from, and backward()'s repack.
  std::vector<std::optional<quantum::StateVectorBatch>> forward_states_;
  std::vector<double> forward_params_;
  std::vector<double> backward_params_;
  bool forward_states_valid_ = false;
};

/// Builds the executor (circuit + Z observables) for a config; exposed so
/// the FLOPs model and tests can inspect the exact circuit structure.
quantum::Executor make_quantum_executor(const QuantumLayerConfig& config);

}  // namespace qhdl::qnn
