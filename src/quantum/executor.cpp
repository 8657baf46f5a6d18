#include "quantum/executor.hpp"

#include <algorithm>
#include <stdexcept>

#include "quantum/parameter_shift.hpp"
#include "quantum/statevector_batch.hpp"
#include "util/backend_registry.hpp"

namespace qhdl::quantum {

Executor::Executor(Circuit circuit, std::vector<Observable> observables,
                   DiffMethod diff_method)
    : circuit_(std::move(circuit)),
      observables_(std::move(observables)),
      diff_method_(diff_method) {
  if (observables_.empty()) {
    throw std::invalid_argument("Executor: need at least one observable");
  }
  // Prime the compiled plan while construction is still single-threaded:
  // later run()/run_batch() calls (possibly from many worker threads at
  // once) find the memoized slot already filled.
  circuit_.compiled_plan();
  if (std::all_of(observables_.begin(), observables_.end(),
                  [](const Observable& obs) { return obs.is_diagonal(); })) {
    diagonals_.reserve(observables_.size());
    for (const Observable& obs : observables_) {
      diagonals_.push_back(obs.diagonal(circuit_.num_qubits()));
    }
  }
}

std::vector<double> Executor::run(std::span<const double> params) const {
  const StateVector psi = circuit_.execute(params);
  std::vector<double> expectations;
  expectations.reserve(observables_.size());
  for (const Observable& obs : observables_) {
    expectations.push_back(obs.expectation(psi));
  }
  return expectations;
}

AdjointVjpResult Executor::run_with_vjp(
    std::span<const double> params, std::span<const double> upstream) const {
  if (upstream.size() != observables_.size()) {
    throw std::invalid_argument("Executor::run_with_vjp: upstream size");
  }
  if (diff_method_ == DiffMethod::Adjoint) {
    return adjoint_vjp(circuit_, params, observables_, upstream);
  }
  // Parameter-shift path: full Jacobian, then contract with upstream.
  AdjointVjpResult result;
  result.expectations = run(params);
  result.gradient.assign(circuit_.parameter_count(), 0.0);
  for (std::size_t k = 0; k < observables_.size(); ++k) {
    if (upstream[k] == 0.0) continue;
    const auto row =
        parameter_shift_gradient(circuit_, params, observables_[k]);
    for (std::size_t j = 0; j < row.size(); ++j) {
      result.gradient[j] += upstream[k] * row[j];
    }
  }
  return result;
}

bool Executor::batch_path_available() const {
  return !util::simd::active_backend().reference &&
         diff_method_ == DiffMethod::Adjoint && !diagonals_.empty();
}

void Executor::run_batch(StateVectorBatch& state,
                         std::span<const double> params,
                         std::size_t param_stride,
                         std::span<double> expectations) const {
  if (!batch_path_available()) {
    throw std::logic_error(
        "Executor::run_batch: the batched path is unavailable here");
  }
  state.reset();
  circuit_.run_batch(state, params, param_stride);
  diagonal_expectations_batch(state, diagonals_, expectations);
}

BatchAdjointVjpResult Executor::run_with_vjp_batch(
    std::span<const double> params, std::size_t param_stride,
    std::size_t batch_rows, std::span<const double> upstream,
    StateVectorBatch* forward_state) const {
  const std::size_t obs_count = observables_.size();
  if (upstream.size() != batch_rows * obs_count) {
    throw std::invalid_argument(
        "Executor::run_with_vjp_batch: upstream size");
  }
  if (batch_path_available()) {
    return adjoint_vjp_batch_diagonal(circuit_, params, param_stride,
                                      batch_rows, diagonals_, upstream,
                                      forward_state);
  }
  // Per-row fallback (parameter-shift, non-diagonal observables, or the
  // generic-kernel escape hatch).
  BatchAdjointVjpResult result;
  result.batch = batch_rows;
  result.observable_count = obs_count;
  const std::size_t parameter_count = circuit_.parameter_count();
  result.expectations.resize(batch_rows * obs_count);
  result.gradient.resize(batch_rows * parameter_count);
  for (std::size_t b = 0; b < batch_rows; ++b) {
    const AdjointVjpResult row =
        run_with_vjp(params.subspan(b * param_stride, parameter_count),
                     upstream.subspan(b * obs_count, obs_count));
    std::copy(row.expectations.begin(), row.expectations.end(),
              result.expectations.begin() + b * obs_count);
    std::copy(row.gradient.begin(), row.gradient.end(),
              result.gradient.begin() + b * parameter_count);
  }
  return result;
}

std::vector<std::vector<double>> Executor::jacobian(
    std::span<const double> params) const {
  if (diff_method_ == DiffMethod::Adjoint) {
    return adjoint_jacobian(circuit_, params, observables_);
  }
  std::vector<std::vector<double>> rows;
  rows.reserve(observables_.size());
  for (const Observable& obs : observables_) {
    rows.push_back(parameter_shift_gradient(circuit_, params, obs));
  }
  return rows;
}

}  // namespace qhdl::quantum
