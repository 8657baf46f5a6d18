#include "quantum/executor.hpp"

#include <algorithm>
#include <stdexcept>

#include "quantum/parameter_shift.hpp"
#include "quantum/statevector_batch.hpp"

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
  AdjointVjpResult result;
  result.expectations = run(params);
  result.gradient.resize(circuit_.parameter_count());
  run_with_vjp_batch(params, params.size(), 1, upstream, result.gradient);
  return result;
}

void Executor::run_batch(StateVectorBatch& state,
                         std::span<const double> params,
                         std::size_t param_stride,
                         std::span<double> expectations) const {
  if (diagonals_.empty()) {
    throw std::logic_error(
        "Executor::run_batch: needs all-diagonal (all-Z) observables");
  }
  state.reset();
  circuit_.run_batch(state, params, param_stride);
  diagonal_expectations_batch(state, diagonals_, expectations);
}

void Executor::run_with_vjp_batch(std::span<const double> params,
                                  std::size_t param_stride,
                                  std::size_t batch_rows,
                                  std::span<const double> upstream,
                                  std::span<double> gradient,
                                  StateVectorBatch* forward_state) const {
  const std::size_t parameter_count = circuit_.parameter_count();
  if (param_stride < parameter_count) {
    throw std::invalid_argument(
        "Executor::run_with_vjp_batch: param_stride " +
        std::to_string(param_stride) + " < " +
        std::to_string(parameter_count) + " circuit parameters");
  }
  if (params.size() != batch_rows * param_stride) {
    throw std::invalid_argument(
        "Executor::run_with_vjp_batch: got " + std::to_string(params.size()) +
        " params, need exactly " + std::to_string(batch_rows * param_stride));
  }
  if (upstream.size() != batch_rows * observables_.size()) {
    throw std::invalid_argument(
        "Executor::run_with_vjp_batch: upstream size");
  }
  if (gradient.size() != batch_rows * parameter_count) {
    throw std::invalid_argument(
        "Executor::run_with_vjp_batch: gradient size");
  }
  if (diff_method_ == DiffMethod::Adjoint) {
    if (diagonals_.empty()) {
      adjoint_vjp_batch(circuit_, params, param_stride, batch_rows,
                        observables_, upstream, gradient);
    } else {
      adjoint_vjp_batch_diagonal(circuit_, params, param_stride, batch_rows,
                                 diagonals_, upstream, gradient,
                                 forward_state);
    }
    return;
  }
  // Parameter-shift: every row's full Jacobian from one lane batch, each
  // row contracted with its upstream.
  const std::size_t obs_count = observables_.size();
  std::vector<double> jacobian(batch_rows * obs_count * parameter_count);
  parameter_shift_jacobian_batch(circuit_, params, param_stride, batch_rows,
                                 observables_, jacobian);
  std::fill(gradient.begin(), gradient.end(), 0.0);
  for (std::size_t b = 0; b < batch_rows; ++b) {
    for (std::size_t k = 0; k < obs_count; ++k) {
      const double weight = upstream[b * obs_count + k];
      const double* row =
          jacobian.data() + (b * obs_count + k) * parameter_count;
      for (std::size_t j = 0; j < parameter_count; ++j) {
        gradient[b * parameter_count + j] += weight * row[j];
      }
    }
  }
}

std::vector<std::vector<double>> Executor::jacobian(
    std::span<const double> params) const {
  if (diff_method_ == DiffMethod::Adjoint) {
    return adjoint_jacobian(circuit_, params, observables_);
  }
  const std::size_t parameter_count = circuit_.parameter_count();
  std::vector<double> flat(observables_.size() * parameter_count);
  parameter_shift_jacobian_batch(circuit_, params, params.size(), 1,
                                 observables_, flat);
  std::vector<std::vector<double>> rows;
  rows.reserve(observables_.size());
  for (std::size_t k = 0; k < observables_.size(); ++k) {
    rows.emplace_back(flat.begin() + k * parameter_count,
                      flat.begin() + (k + 1) * parameter_count);
  }
  return rows;
}

}  // namespace qhdl::quantum
