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
  wires_.resize(config.qubits);
  for (std::size_t w = 0; w < config.qubits; ++w) wires_[w] = w;
}

void QuantumLayer::pack_rows(const double* input, std::size_t rows,
                             std::vector<double>& out) const {
  const std::size_t q = config_.qubits;
  const std::size_t stride = q + weights_.value.size();
  out.resize(rows * stride);
  for (std::size_t b = 0; b < rows; ++b) {
    double* row = out.data() + b * stride;
    for (std::size_t i = 0; i < q; ++i) {
      row[i] = config_.encoding.scale * input[b * q + i];
    }
    for (std::size_t i = 0; i < weights_.value.size(); ++i) {
      row[q + i] = weights_.value[i];
    }
  }
}

std::size_t QuantumLayer::chunk_count(std::size_t batch) const {
  return std::min(std::max<std::size_t>(config_.threads, 1), batch);
}

template <typename Work>
void QuantumLayer::for_each_chunk(std::size_t batch, const Work& work) const {
  const std::size_t chunks = chunk_count(batch);
  const auto run_chunk = [&](std::size_t c) {
    const std::size_t begin = c * batch / chunks;
    work(c, begin, (c + 1) * batch / chunks - begin);
  };
  if (chunks > 1) {
    // Shared persistent pool: forward/backward run once per training batch,
    // so spawning threads per call would dominate small-circuit cost.
    util::parallel_for(0, chunks, config_.threads, run_chunk);
  } else {
    run_chunk(0);
  }
}

nn::RowStage* QuantumLayer::row_stage() { return this; }

void QuantumLayer::forward_rows(const double* input, std::size_t rows,
                                double* out) {
  forward_states_valid_ = false;
  if (rows == 0) return;

  // All rows march through the SoA gate kernels together, hitting
  // contiguous memory (see StateVectorBatch). Chunked over the thread pool;
  // per-row arithmetic is independent of the chunk boundaries, so results
  // stay bit-identical across thread counts.
  const std::size_t q = config_.qubits;
  const std::size_t stride = q + weights_.value.size();
  pack_rows(input, rows, forward_params_);
  if (!config_.noise.empty()) {
    // Each chunk's ρ_r evolve as one density-matrix batch.
    for_each_chunk(rows, [&](std::size_t, std::size_t begin, std::size_t n) {
      quantum::noisy_expvals_batch(
          executor_.circuit(),
          std::span<const double>{forward_params_}.subspan(begin * stride,
                                                           n * stride),
          stride, n, config_.noise, wires_,
          std::span<double>{out + begin * q, n * q});
    });
    return;
  }

  // Exact states; each chunk's final state is kept for backward_rows()
  // (forward-state reuse).
  forward_states_.resize(chunk_count(rows));
  for_each_chunk(rows, [&](std::size_t c, std::size_t begin, std::size_t n) {
    std::optional<quantum::StateVectorBatch>& state = forward_states_[c];
    if (!state) {
      state.emplace(q, n);
    } else if (state->batch() != n) {
      state->resize(n);
    }
    executor_.run_batch(
        *state,
        std::span<const double>{forward_params_}.subspan(begin * stride,
                                                         n * stride),
        stride, std::span<double>{out + begin * q, n * q});
  });
  forward_backend_ = &util::simd::active_backend();
  forward_states_valid_ = true;
  if (config_.shots == 0) return;

  // Shots: sample each row's exact state, rows in order, from the one
  // sampling RNG, so the draws do not depend on the thread count. Each row
  // is sampled where it lies in its chunk's batch, through the layer's CDF
  // scratch.
  std::size_t row = 0;
  for (const std::optional<quantum::StateVectorBatch>& state :
       forward_states_) {
    for (std::size_t i = 0; i < state->batch(); ++i, ++row) {
      quantum::estimate_expvals_z_row(*state, i, wires_, config_.shots,
                                      sample_rng_, shot_cdf_,
                                      std::span<double>{out + row * q, q});
    }
  }
}

void QuantumLayer::backward_rows(const double* input, const double* grad_out,
                                 std::size_t rows, double* grad_in) {
  // Whatever happens below, the kept forward states are spent: reuse
  // consumes them, and a mismatch means they are stale.
  const bool states_kept = forward_states_valid_;
  forward_states_valid_ = false;
  if (rows == 0) return;

  // One adjoint sweep per chunk covers every row in it; with noise (or the
  // parameter-shift method) every shifted circuit of the chunk is one lane
  // of a single batch. When the repacked [angles | weights] rows are
  // bitwise equal to the ones forward_rows() simulated (same input, weights
  // untouched), the adjoint sweep starts from its kept state instead of
  // re-simulating it.
  const std::size_t q = config_.qubits;
  const std::size_t stride = q + weights_.value.size();
  pack_rows(input, rows, backward_params_);
  const bool reuse =
      states_kept && forward_backend_ == &util::simd::active_backend() &&
      forward_params_.size() == backward_params_.size() &&
      std::memcmp(forward_params_.data(), backward_params_.data(),
                  backward_params_.size() * sizeof(double)) == 0;
  vjp_gradient_.resize(rows * stride);
  for_each_chunk(rows, [&](std::size_t c, std::size_t begin, std::size_t n) {
    const auto params = std::span<const double>{backward_params_}.subspan(
        begin * stride, n * stride);
    const std::span<const double> upstream{grad_out + begin * q, n * q};
    const auto gradient =
        std::span<double>{vjp_gradient_}.subspan(begin * stride, n * stride);
    if (!config_.noise.empty()) {
      quantum::noisy_parameter_shift_vjp_batch(executor_.circuit(), params,
                                               stride, n, config_.noise,
                                               wires_, upstream, gradient);
    } else {
      executor_.run_with_vjp_batch(params, stride, n, upstream, gradient,
                                   reuse ? &*forward_states_[c] : nullptr);
    }
  });
  // First q entries per row are encoding-angle gradients; the chain rule
  // through angle = scale * input multiplies by the encoding scale. Weight
  // gradients accumulate rows in ascending order.
  for (std::size_t b = 0; b < rows; ++b) {
    const double* row = vjp_gradient_.data() + b * stride;
    if (grad_in != nullptr) {
      for (std::size_t w = 0; w < q; ++w) {
        grad_in[b * q + w] = config_.encoding.scale * row[w];
      }
    }
    for (std::size_t i = 0; i < weights_.value.size(); ++i) {
      weights_.grad[i] += row[q + i];
    }
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
  forward_rows(input.data().data(), input.rows(), output.data().data());
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
  backward_rows(cached_input_.data().data(), grad_output.data().data(),
                batch, grad_input.data().data());
  return grad_input;
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
