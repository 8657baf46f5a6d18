#include "qnn/quantum_layer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <optional>
#include <span>
#include <stdexcept>

#include "quantum/sampling.hpp"
#include "tensor/init.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

namespace qhdl::qnn {

using quantum::Circuit;
using quantum::Executor;
using quantum::Observable;
using tensor::Shape;
using tensor::Tensor;

Executor make_quantum_executor(const QuantumLayerConfig& config) {
  Circuit circuit{config.qubits};
  std::size_t offset =
      config.encoding.append(circuit, config.qubits, /*param_offset=*/0);
  append_ansatz(circuit, config.ansatz, config.qubits, config.depth, offset);

  std::vector<Observable> observables;
  observables.reserve(config.qubits);
  for (std::size_t w = 0; w < config.qubits; ++w) {
    observables.push_back(Observable::pauli_z(w));
  }
  return Executor{std::move(circuit), std::move(observables),
                  config.diff_method};
}

QuantumLayer::QuantumLayer(const QuantumLayerConfig& config, util::Rng& rng)
    : config_(config),
      executor_(make_quantum_executor(config)),
      weights_("theta",
               tensor::uniform(
                   Shape{ansatz_weight_count(config.ansatz, config.qubits,
                                             config.depth)},
                   0.0, 2.0 * std::numbers::pi, rng)),
      sample_rng_(rng.split()) {
  if (config.qubits == 0) {
    throw std::invalid_argument("QuantumLayer: qubits must be >= 1");
  }
  if (config.shots > 0 && !config.noise.empty()) {
    throw std::invalid_argument(
        "QuantumLayer: shots with noise channels is not supported");
  }
}

void QuantumLayer::pack_params(const Tensor& input, std::size_t row,
                               std::span<double> out) const {
  const std::size_t q = config_.qubits;
  for (std::size_t i = 0; i < q; ++i) {
    out[i] = config_.encoding.scale * input.at(row, i);
  }
  for (std::size_t i = 0; i < weights_.value.size(); ++i) {
    out[q + i] = weights_.value[i];
  }
}

void QuantumLayer::pack_batch(const Tensor& input,
                              std::vector<double>& out) const {
  const std::size_t stride = config_.qubits + weights_.value.size();
  out.resize(input.rows() * stride);
  for (std::size_t b = 0; b < input.rows(); ++b) {
    pack_params(input, b, std::span<double>{out}.subspan(b * stride, stride));
  }
}

std::size_t QuantumLayer::chunk_count(std::size_t batch) const {
  return std::min(std::max<std::size_t>(config_.threads, 1), batch);
}

void QuantumLayer::for_each_chunk(
    std::size_t batch,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& work)
    const {
  const std::size_t chunks = chunk_count(batch);
  const auto run_chunk = [&](std::size_t c) {
    const std::size_t begin = c * batch / chunks;
    work(c, begin, (c + 1) * batch / chunks - begin);
  };
  if (chunks > 1) {
    run_batch_parallel(chunks, run_chunk);
  } else {
    run_chunk(0);
  }
}

Tensor QuantumLayer::forward(const Tensor& input) {
  const std::size_t q = config_.qubits;
  if (input.rank() != 2 || input.cols() != q) {
    throw std::invalid_argument("QuantumLayer::forward: expected [B, " +
                                std::to_string(q) + "], got " +
                                input.shape().to_string());
  }
  cached_input_ = input;
  has_cached_input_ = true;
  forward_states_valid_ = false;

  Tensor output{Shape{input.rows(), q}};

  // Batched SoA fast path: all rows march through the gate kernels
  // together, hitting contiguous memory (see StateVectorBatch). Chunked
  // over the thread pool; per-row arithmetic is independent of the chunk
  // boundaries, so results stay bit-identical across thread counts. Each
  // chunk's final state is kept for backward() (forward-state reuse).
  if (config_.noise.empty() && config_.shots == 0 &&
      executor_.batch_path_available()) {
    const std::size_t batch = input.rows();
    const std::size_t stride = q + weights_.value.size();
    pack_batch(input, forward_params_);
    forward_states_.resize(chunk_count(batch));
    for_each_chunk(batch, [&](std::size_t c, std::size_t begin,
                              std::size_t rows) {
      std::optional<quantum::StateVectorBatch>& state = forward_states_[c];
      if (!state || state->batch() != rows) state.emplace(q, rows);
      executor_.run_batch(
          *state,
          std::span<const double>{forward_params_}.subspan(begin * stride,
                                                           rows * stride),
          stride, output.data().subspan(begin * q, rows * q));
    });
    forward_states_valid_ = true;
    return output;
  }

  std::vector<std::size_t> wires(q);
  for (std::size_t w = 0; w < q; ++w) wires[w] = w;

  const auto compute_row = [&](std::size_t b) {
    std::vector<double> params(q + weights_.value.size());
    pack_params(input, b, params);
    std::vector<double> expectations;
    if (!config_.noise.empty()) {
      expectations = quantum::noisy_expvals(executor_.circuit(), params,
                                            config_.noise, wires);
    } else if (config_.shots > 0) {
      const quantum::StateVector psi = executor_.circuit().execute(params);
      expectations = quantum::estimate_expvals_z(psi, wires, config_.shots,
                                                 sample_rng_);
    } else {
      expectations = executor_.run(params);
    }
    for (std::size_t w = 0; w < q; ++w) output.at(b, w) = expectations[w];
  };

  // Thread over the batch only on the exact path (sampling shares an RNG).
  if (config_.threads > 1 && config_.noise.empty() && config_.shots == 0 &&
      input.rows() > 1) {
    run_batch_parallel(input.rows(), compute_row);
  } else {
    for (std::size_t b = 0; b < input.rows(); ++b) compute_row(b);
  }
  return output;
}

Tensor QuantumLayer::backward(const Tensor& grad_output) {
  if (!has_cached_input_) {
    throw std::logic_error("QuantumLayer::backward before forward");
  }
  const std::size_t q = config_.qubits;
  if (grad_output.rank() != 2 || grad_output.cols() != q ||
      grad_output.rows() != cached_input_.rows()) {
    // Invalidate the cache before throwing: a mismatched upstream means the
    // caller's forward/backward pairing is broken, and letting the next
    // backward silently reuse this stale batch would hide the bug.
    has_cached_input_ = false;
    forward_states_valid_ = false;
    throw std::invalid_argument("QuantumLayer::backward: grad shape " +
                                grad_output.shape().to_string());
  }

  const std::size_t batch = cached_input_.rows();
  Tensor grad_input{Shape{batch, q}};

  // Whatever happens below, the kept forward states are spent: reuse
  // consumes them, and a mismatch means they are stale.
  const bool states_kept = forward_states_valid_;
  forward_states_valid_ = false;

  // Batched SoA fast path mirroring forward(): one adjoint sweep per chunk
  // covers every row in it. When the repacked [angles | weights] rows are
  // bitwise equal to the ones forward() simulated (same input, weights
  // untouched), the sweep starts from forward()'s kept state instead of
  // re-simulating it.
  if (config_.noise.empty() && executor_.batch_path_available()) {
    const std::size_t stride = q + weights_.value.size();
    pack_batch(cached_input_, backward_params_);
    const bool reuse =
        states_kept && forward_params_.size() == backward_params_.size() &&
        std::memcmp(forward_params_.data(), backward_params_.data(),
                    backward_params_.size() * sizeof(double)) == 0;
    std::vector<double> all_grads(batch * stride);
    for_each_chunk(batch, [&](std::size_t c, std::size_t begin,
                              std::size_t rows) {
      const auto vjp = executor_.run_with_vjp_batch(
          std::span<const double>{backward_params_}.subspan(begin * stride,
                                                            rows * stride),
          stride, rows, grad_output.data().subspan(begin * q, rows * q),
          reuse ? &*forward_states_[c] : nullptr);
      std::copy(vjp.gradient.begin(), vjp.gradient.end(),
                all_grads.begin() + begin * stride);
    });
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t w = 0; w < q; ++w) {
        grad_input.at(b, w) =
            config_.encoding.scale * all_grads[b * stride + w];
      }
      for (std::size_t i = 0; i < weights_.value.size(); ++i) {
        weights_.grad[i] += all_grads[b * stride + q + i];
      }
    }
    return grad_input;
  }

  std::vector<std::size_t> wires(q);
  for (std::size_t w = 0; w < q; ++w) wires[w] = w;

  // Per-sample gradients land in per-row buffers; the weight gradient is
  // reduced afterwards so the parallel path needs no synchronization.
  std::vector<std::vector<double>> weight_grads(
      batch, std::vector<double>(weights_.value.size(), 0.0));

  const auto compute_row = [&](std::size_t b) {
    std::vector<double> params(q + weights_.value.size());
    pack_params(cached_input_, b, params);
    std::vector<double> upstream(q);
    for (std::size_t w = 0; w < q; ++w) upstream[w] = grad_output.at(b, w);

    std::vector<double> gradient;
    if (config_.noise.empty()) {
      gradient = executor_.run_with_vjp(params, upstream).gradient;
    } else {
      gradient = quantum::noisy_parameter_shift_vjp(
                     executor_.circuit(), params, config_.noise, wires,
                     upstream)
                     .gradient;
    }
    // First q entries are encoding-angle gradients; the chain rule through
    // angle = scale * input multiplies by the encoding scale.
    for (std::size_t w = 0; w < q; ++w) {
      grad_input.at(b, w) = config_.encoding.scale * gradient[w];
    }
    for (std::size_t i = 0; i < weights_.value.size(); ++i) {
      weight_grads[b][i] = gradient[q + i];
    }
  };

  if (config_.threads > 1 && config_.noise.empty() && batch > 1) {
    run_batch_parallel(batch, compute_row);
  } else {
    for (std::size_t b = 0; b < batch; ++b) compute_row(b);
  }
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t i = 0; i < weights_.value.size(); ++i) {
      weights_.grad[i] += weight_grads[b][i];
    }
  }
  return grad_input;
}

void QuantumLayer::run_batch_parallel(
    std::size_t batch, const std::function<void(std::size_t)>& work) const {
  // Shared persistent pool: forward/backward run once per training batch,
  // so spawning threads here (the old design) dominated small-circuit cost.
  util::parallel_for(0, batch, config_.threads, work);
}

std::vector<nn::Parameter*> QuantumLayer::parameters() { return {&weights_}; }

nn::LayerInfo QuantumLayer::info() const {
  nn::LayerInfo li;
  li.kind = "quantum";
  li.inputs = config_.qubits;
  li.outputs = config_.qubits;
  li.parameter_count = weights_.value.size();
  li.qubits = config_.qubits;
  li.depth = config_.depth;
  li.ansatz = util::to_lower(ansatz_name(config_.ansatz));
  const auto counts =
      ansatz_op_counts(config_.ansatz, config_.qubits, config_.depth);
  li.encoding_gate_count = config_.qubits;
  li.gate_count =
      li.encoding_gate_count + counts.rotation_ops + counts.entangling_ops;
  li.param_gate_count = li.encoding_gate_count + counts.rotation_ops;
  return li;
}

std::string QuantumLayer::name() const {
  return "Quantum" + ansatz_name(config_.ansatz) + "(q=" +
         std::to_string(config_.qubits) + ", d=" +
         std::to_string(config_.depth) + ")";
}

std::vector<double> QuantumLayer::run_single(
    std::span<const double> angles) const {
  if (angles.size() != config_.qubits) {
    throw std::invalid_argument("QuantumLayer::run_single: angle count");
  }
  std::vector<double> params(config_.qubits + weights_.value.size());
  for (std::size_t i = 0; i < angles.size(); ++i) params[i] = angles[i];
  for (std::size_t i = 0; i < weights_.value.size(); ++i) {
    params[config_.qubits + i] = weights_.value[i];
  }
  return executor_.run(params);
}

}  // namespace qhdl::qnn
