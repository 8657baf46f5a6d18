#include "quantum/adjoint_diff.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "quantum/exec_plan.hpp"
#include "quantum/statevector_batch.hpp"

namespace qhdl::quantum {

namespace {

/// Core reverse sweep shared by the scalar and VJP entry points, over the
/// compiled plan's flat op stream (the op list minus exactly-cancelled
/// involution pairs, never parameterized — see exec_plan.hpp).
/// `lambda` must hold O_eff|ψ⟩ on entry; `phi` must hold |ψ⟩.
std::vector<double> reverse_sweep(const Circuit& circuit,
                                  std::span<const double> params,
                                  StateVector& phi, StateVector& lambda) {
  std::vector<double> gradient(circuit.parameter_count(), 0.0);
  StateVector mu{circuit.num_qubits()};
  const std::shared_ptr<const ExecutionPlan> plan = circuit.compiled_plan();
  const std::span<const PlanOp> ops = plan->flat_ops();

  for (std::size_t idx = ops.size(); idx-- > 0;) {
    const PlanOp& op = ops[idx];
    const double angle = op.angle(params);
    // Peel the gate off the forward state: φ ← U_k† φ.
    apply_gate_inverse(phi, op.type, angle, op.wire0, op.wire1);

    if (op.param_slot >= 0) {
      // μ = (dU_k/dθ) φ_{k-1}; contribution = 2 Re⟨λ|μ⟩.
      mu = phi;
      apply_gate_derivative(mu, op.type, angle, op.wire0, op.wire1);
      gradient[static_cast<std::size_t>(op.param_slot)] +=
          2.0 * lambda.inner_product(mu).real();
    }

    // Pull the co-state back: λ ← U_k† λ.
    apply_gate_inverse(lambda, op.type, angle, op.wire0, op.wire1);
  }
  return gradient;
}

}  // namespace

AdjointResult adjoint_gradient(const Circuit& circuit,
                               std::span<const double> params,
                               const Observable& observable) {
  StateVector psi = circuit.execute(params);
  AdjointResult result;
  result.expectation = observable.expectation(psi);

  StateVector lambda{circuit.num_qubits()};
  observable.apply(psi, lambda);
  result.gradient = reverse_sweep(circuit, params, psi, lambda);
  return result;
}

namespace {

/// λ = Σ_k w_k (O_k ψ) — the adjoint co-state seed.
StateVector weighted_observable_state(
    const StateVector& psi, std::span<const Observable> observables,
    std::span<const double> upstream_weights) {
  StateVector lambda{psi.num_qubits()};
  StateVector scratch{psi.num_qubits()};
  for (auto& a : lambda.amplitudes()) a = Complex{0.0, 0.0};
  for (std::size_t k = 0; k < observables.size(); ++k) {
    if (upstream_weights[k] == 0.0) continue;
    observables[k].apply(psi, scratch);
    auto lam = lambda.amplitudes();
    auto scr = scratch.amplitudes();
    for (std::size_t i = 0; i < lam.size(); ++i) {
      lam[i] += upstream_weights[k] * scr[i];
    }
  }
  return lambda;
}

AdjointVjpResult adjoint_vjp_impl(const Circuit& circuit,
                                  std::span<const double> params,
                                  StateVector psi,
                                  std::span<const Observable> observables,
                                  std::span<const double> upstream_weights) {
  AdjointVjpResult result;
  result.expectations.reserve(observables.size());
  for (const Observable& obs : observables) {
    result.expectations.push_back(obs.expectation(psi));
  }
  StateVector lambda =
      weighted_observable_state(psi, observables, upstream_weights);
  result.gradient = reverse_sweep(circuit, params, psi, lambda);
  return result;
}

}  // namespace

AdjointVjpResult adjoint_vjp(const Circuit& circuit,
                             std::span<const double> params,
                             std::span<const Observable> observables,
                             std::span<const double> upstream_weights) {
  if (observables.size() != upstream_weights.size()) {
    throw std::invalid_argument(
        "adjoint_vjp: observables/upstream size mismatch");
  }
  return adjoint_vjp_impl(circuit, params, circuit.execute(params),
                          observables, upstream_weights);
}

AdjointVjpResult adjoint_vjp_from_state(
    const Circuit& circuit, std::span<const double> params,
    const StateVector& initial_state,
    std::span<const Observable> observables,
    std::span<const double> upstream_weights) {
  if (observables.size() != upstream_weights.size()) {
    throw std::invalid_argument(
        "adjoint_vjp_from_state: observables/upstream size mismatch");
  }
  StateVector psi = initial_state;
  circuit.run(psi, params);
  return adjoint_vjp_impl(circuit, params, std::move(psi), observables,
                          upstream_weights);
}

std::vector<double> initial_state_cogradient(
    const Circuit& circuit, std::span<const double> params,
    const StateVector& initial_state,
    std::span<const Observable> observables,
    std::span<const double> upstream_weights) {
  if (observables.size() != upstream_weights.size()) {
    throw std::invalid_argument(
        "initial_state_cogradient: observables/upstream size mismatch");
  }
  // v = U† O_eff U |φ⟩: run forward, seed with O_eff, pull back through U†.
  StateVector psi = initial_state;
  circuit.run(psi, params);
  StateVector lambda =
      weighted_observable_state(psi, observables, upstream_weights);
  const std::shared_ptr<const ExecutionPlan> plan = circuit.compiled_plan();
  const std::span<const PlanOp> ops = plan->flat_ops();
  for (std::size_t idx = ops.size(); idx-- > 0;) {
    const PlanOp& op = ops[idx];
    apply_gate_inverse(lambda, op.type, op.angle(params), op.wire0,
                       op.wire1);
  }
  std::vector<double> cogradient(lambda.dimension());
  const auto amps = lambda.amplitudes();
  for (std::size_t i = 0; i < cogradient.size(); ++i) {
    cogradient[i] = 2.0 * amps[i].real();
  }
  return cogradient;
}

namespace {

/// Thread-local scratch batch of the requested shape: re-created only when
/// the shape changes, so repeated same-shape calls allocate nothing.
StateVectorBatch& scratch_batch(std::optional<StateVectorBatch>& slot,
                                std::size_t num_qubits, std::size_t rows) {
  if (!slot || slot->num_qubits() != num_qubits || slot->batch() != rows) {
    slot.emplace(num_qubits, rows);
  }
  return *slot;
}

}  // namespace

void diagonal_expectations_batch(
    const StateVectorBatch& state,
    std::span<const std::vector<double>> diagonals, std::span<double> out) {
  const std::size_t rows = state.batch();
  const std::size_t obs_count = diagonals.size();
  if (out.size() != rows * obs_count) {
    throw std::invalid_argument(
        "diagonal_expectations_batch: out size must be batch * observables");
  }
  for (const std::vector<double>& diag : diagonals) {
    if (diag.size() != state.dimension()) {
      throw std::invalid_argument(
          "diagonal_expectations_batch: diagonal size != state dimension");
    }
  }
  std::fill(out.begin(), out.end(), 0.0);
  const std::span<const Complex> amps = state.amplitudes();
  for (std::size_t i = 0; i < state.dimension(); ++i) {
    for (std::size_t b = 0; b < rows; ++b) {
      const double p = std::norm(amps[i * rows + b]);
      for (std::size_t k = 0; k < obs_count; ++k) {
        out[b * obs_count + k] += diagonals[k][i] * p;
      }
    }
  }
}

BatchAdjointVjpResult adjoint_vjp_batch(
    const Circuit& circuit, std::span<const double> params,
    std::size_t param_stride, std::size_t batch_rows,
    std::span<const Observable> observables,
    std::span<const double> upstream_weights,
    StateVectorBatch* forward_state) {
  std::vector<std::vector<double>> diagonals;
  diagonals.reserve(observables.size());
  for (const Observable& obs : observables) {
    if (!obs.is_diagonal()) {
      throw std::invalid_argument(
          "adjoint_vjp_batch: all observables must be diagonal (all-Z); "
          "fall back to per-row adjoint_vjp for " +
          obs.to_string());
    }
    diagonals.push_back(obs.diagonal(circuit.num_qubits()));
  }
  return adjoint_vjp_batch_diagonal(circuit, params, param_stride, batch_rows,
                                    diagonals, upstream_weights,
                                    forward_state);
}

BatchAdjointVjpResult adjoint_vjp_batch_diagonal(
    const Circuit& circuit, std::span<const double> params,
    std::size_t param_stride, std::size_t batch_rows,
    std::span<const std::vector<double>> diagonals,
    std::span<const double> upstream_weights,
    StateVectorBatch* forward_state) {
  const std::size_t obs_count = diagonals.size();
  if (upstream_weights.size() != batch_rows * obs_count) {
    throw std::invalid_argument(
        "adjoint_vjp_batch: upstream_weights size must be batch * "
        "observables");
  }
  if (batch_rows == 0) {
    throw std::invalid_argument("adjoint_vjp_batch: batch must be >= 1");
  }
  // Same strictness as Circuit::run/run_batch: a stride or size mismatch in
  // either direction is a packing-layout bug, not something to read past.
  if (param_stride < circuit.parameter_count()) {
    throw std::invalid_argument(
        "adjoint_vjp_batch: param_stride " + std::to_string(param_stride) +
        " < " + std::to_string(circuit.parameter_count()) +
        " circuit parameters");
  }
  if (params.size() != batch_rows * param_stride) {
    throw std::invalid_argument(
        "adjoint_vjp_batch: got " + std::to_string(params.size()) +
        " params, need exactly " + std::to_string(batch_rows * param_stride));
  }

  const std::size_t num_qubits = circuit.num_qubits();
  const std::size_t dimension = std::size_t{1} << num_qubits;
  for (const std::vector<double>& diag : diagonals) {
    if (diag.size() != dimension) {
      throw std::invalid_argument(
          "adjoint_vjp_batch: observable diagonal has " +
          std::to_string(diag.size()) + " entries, need " +
          std::to_string(dimension));
    }
  }

  thread_local std::optional<StateVectorBatch> phi_slot;
  thread_local std::optional<StateVectorBatch> lambda_slot;
  thread_local std::optional<StateVectorBatch> mu_slot;
  thread_local std::vector<double> angles;
  thread_local std::vector<double> row_inner;

  // Forward: the caller's state when it holds U|0⟩ for these params
  // (consumed in place below), else all rows at once through the SoA
  // kernels.
  StateVectorBatch* phi_ptr = forward_state;
  if (phi_ptr != nullptr) {
    if (phi_ptr->num_qubits() != num_qubits ||
        phi_ptr->batch() != batch_rows) {
      throw std::invalid_argument(
          "adjoint_vjp_batch: forward_state shape does not match the "
          "circuit and batch");
    }
  } else {
    phi_ptr = &scratch_batch(phi_slot, num_qubits, batch_rows);
    phi_ptr->reset();
    circuit.run_batch(*phi_ptr, params, param_stride);
  }
  StateVectorBatch& phi = *phi_ptr;

  BatchAdjointVjpResult result;
  result.batch = batch_rows;
  result.observable_count = obs_count;
  // Each diagonal entry matches expectation()'s fast-path sign_weight, so
  // the per-row expectations are bit-identical to the scalar path.
  result.expectations.resize(batch_rows * obs_count);
  diagonal_expectations_batch(phi, diagonals, result.expectations);

  // Co-state seed: λ_b = Σ_k w_{b,k} (O_k ψ_b), accumulated term-by-term in
  // the same order as the scalar weighted_observable_state (k outer,
  // ascending i, w == 0 terms skipped) — bit-identical per row for the
  // single-term observables the hybrid layer emits.
  StateVectorBatch& lambda = scratch_batch(lambda_slot, num_qubits, batch_rows);
  {
    const std::span<const Complex> amps = phi.amplitudes();
    const std::span<Complex> lam = lambda.amplitudes();
    std::fill(lam.begin(), lam.end(), Complex{0.0, 0.0});
    for (std::size_t k = 0; k < obs_count; ++k) {
      const std::vector<double>& diag = diagonals[k];
      for (std::size_t i = 0; i < dimension; ++i) {
        for (std::size_t b = 0; b < batch_rows; ++b) {
          const double w = upstream_weights[b * obs_count + k];
          if (w == 0.0) continue;
          lam[i * batch_rows + b] += w * (diag[i] * amps[i * batch_rows + b]);
        }
      }
    }
  }

  // Reverse sweep, batched: peel φ, form μ = (dU/dθ)φ, take per-row
  // Re⟨λ|μ⟩, pull λ back.
  const std::size_t parameter_count = circuit.parameter_count();
  result.gradient.assign(batch_rows * parameter_count, 0.0);
  StateVectorBatch& mu = scratch_batch(mu_slot, num_qubits, batch_rows);
  angles.resize(batch_rows);
  row_inner.resize(batch_rows);

  const auto gather_angles =
      [&](const PlanOp& op) -> std::span<const double> {
    if (op.param_slot < 0) {
      angles[0] = op.fixed_angle;
      return {angles.data(), 1};
    }
    const std::size_t index = static_cast<std::size_t>(op.param_slot);
    bool shared = true;
    for (std::size_t b = 0; b < batch_rows; ++b) {
      angles[b] = params[b * param_stride + index];
      shared = shared && angles[b] == angles[0];
    }
    return shared ? std::span<const double>{angles.data(), 1}
                  : std::span<const double>{angles};
  };

  // The flat plan stream is the op list minus exactly-cancelled involution
  // pairs, so every row's gradient matches the scalar adjoint_vjp exactly.
  const std::shared_ptr<const ExecutionPlan> plan = circuit.compiled_plan();
  const std::span<const PlanOp> ops = plan->flat_ops();
  for (std::size_t idx = ops.size(); idx-- > 0;) {
    const PlanOp& op = ops[idx];
    const std::span<const double> op_angles = gather_angles(op);
    apply_gate_inverse_batch(phi, op.type, op_angles, op.wire0, op.wire1);

    if (op.param_slot >= 0) {
      mu.assign_from(phi);
      apply_gate_derivative_batch(mu, op.type, op_angles, op.wire0,
                                  op.wire1);
      lambda.inner_products_real(mu, row_inner);
      const std::size_t slot = static_cast<std::size_t>(op.param_slot);
      for (std::size_t b = 0; b < batch_rows; ++b) {
        result.gradient[b * parameter_count + slot] += 2.0 * row_inner[b];
      }
    }

    apply_gate_inverse_batch(lambda, op.type, op_angles, op.wire0, op.wire1);
  }
  return result;
}

std::vector<std::vector<double>> adjoint_jacobian(
    const Circuit& circuit, std::span<const double> params,
    std::span<const Observable> observables) {
  std::vector<std::vector<double>> jacobian;
  jacobian.reserve(observables.size());
  for (const Observable& obs : observables) {
    jacobian.push_back(adjoint_gradient(circuit, params, obs).gradient);
  }
  return jacobian;
}

}  // namespace qhdl::quantum
