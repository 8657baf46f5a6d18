#include "quantum/adjoint_diff.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "quantum/exec_plan.hpp"
#include "quantum/kernels.hpp"
#include "quantum/statevector_batch.hpp"

namespace qhdl::quantum {

namespace {

/// Thread-local scratch batch of the requested shape: re-created only when
/// the qubit count changes and resized in place otherwise, so calls that
/// alternate between row counts (full and tail training batches) allocate
/// nothing once the largest has been seen.
StateVectorBatch& scratch_batch(std::optional<StateVectorBatch>& slot,
                                std::size_t num_qubits, std::size_t rows) {
  if (!slot || slot->num_qubits() != num_qubits) {
    slot.emplace(num_qubits, rows);
  } else if (slot->batch() != rows) {
    slot->resize(rows);
  }
  return *slot;
}

/// The reverse sweep over the compiled plan's flat op stream (the op list
/// minus exactly-cancelled involution pairs, never parameterized — see
/// exec_plan.hpp), for every row of `lambda` at once; a single state is the
/// one-row case. Row b reads its angles from params[b * param_stride + slot].
/// `lambda` must hold the co-state seed O_eff|ψ⟩ and is pulled back through
/// U†. With a non-null `phi` holding |ψ⟩, each gate is also peeled off φ
/// and every parameterized one adds 2 Re⟨λ|(dU_k/dθ_k)|φ_{k-1}⟩ into
/// gradient[b * parameter_count + slot], and λ is left one gate short of
/// the full pull-back (callers with a φ discard it); a null `phi` only
/// pulls λ back, all the way through U†.
///
/// Each op's matrices are built once (BatchGate): U_k† serves both φ and
/// λ, and a rotation's U_k† and dU_k/dθ share one cos/sin evaluation per
/// angle.
void reverse_sweep_batch(const Circuit& circuit,
                         std::span<const double> params,
                         std::size_t param_stride, StateVectorBatch& lambda,
                         StateVectorBatch* phi, std::span<double> gradient) {
  const kernels::TallyScope tally;  // kernel.* bumps land when it ends
  thread_local std::optional<StateVectorBatch> mu_slot;
  thread_local std::vector<double> angles;
  thread_local std::vector<double> row_inner;
  thread_local BatchGate inverse;
  thread_local BatchGate derivative;
  const std::size_t rows = lambda.batch();
  const std::size_t parameter_count = circuit.parameter_count();
  angles.resize(rows);
  row_inner.resize(rows);

  const auto gather_angles =
      [&](const PlanOp& op) -> std::span<const double> {
    if (op.param_slot < 0) {
      angles[0] = op.fixed_angle;
      return {angles.data(), 1};
    }
    const std::size_t index = static_cast<std::size_t>(op.param_slot);
    bool shared = true;
    for (std::size_t b = 0; b < rows; ++b) {
      angles[b] = params[b * param_stride + index];
      shared = shared && angles[b] == angles[0];
    }
    return shared ? std::span<const double>{angles.data(), 1}
                  : std::span<const double>{angles};
  };

  const std::shared_ptr<const ExecutionPlan> plan = circuit.compiled_plan();
  const std::span<const PlanOp> ops = plan->flat_ops();
  for (std::size_t idx = ops.size(); idx-- > 0;) {
    const PlanOp& op = ops[idx];
    const std::span<const double> op_angles = gather_angles(op);
    const bool differentiate = phi != nullptr && op.param_slot >= 0;
    if (differentiate) {
      BatchGate::build_adjoint(op.type, op_angles, inverse, derivative);
    } else {
      inverse.build(op.type, GateForm::Inverse, op_angles);
    }
    if (phi != nullptr) {
      // Peel the gate off the forward state: φ ← U_k† φ.
      inverse.apply(*phi, op.wire0, op.wire1);
      if (differentiate) {
        // μ = (dU_k/dθ) φ_{k-1}; contribution = 2 Re⟨λ|μ⟩.
        StateVectorBatch& mu =
            scratch_batch(mu_slot, lambda.num_qubits(), rows);
        mu.assign_from(*phi);
        derivative.apply(mu, op.wire0, op.wire1);
        lambda.inner_products_real(mu, row_inner);
        const std::size_t slot = static_cast<std::size_t>(op.param_slot);
        for (std::size_t b = 0; b < rows; ++b) {
          gradient[b * parameter_count + slot] += 2.0 * row_inner[b];
        }
      }
    }
    // Pull the co-state back: λ ← U_k† λ. With a φ the last pull-back is
    // dead (those callers read only the gradient), so λ stops at U_0.
    if (phi != nullptr && idx == 0) break;
    inverse.apply(lambda, op.wire0, op.wire1);
  }
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
  result.gradient.assign(circuit.parameter_count(), 0.0);
  reverse_sweep_batch(circuit, params, circuit.parameter_count(), lambda,
                      &psi, result.gradient);
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
  result.gradient.assign(circuit.parameter_count(), 0.0);
  reverse_sweep_batch(circuit, params, circuit.parameter_count(), lambda,
                      &psi, result.gradient);
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
  reverse_sweep_batch(circuit, params, circuit.parameter_count(), lambda,
                      nullptr, {});
  std::vector<double> cogradient(lambda.dimension());
  const auto amps = lambda.amplitudes();
  for (std::size_t i = 0; i < cogradient.size(); ++i) {
    cogradient[i] = 2.0 * amps[i].real();
  }
  return cogradient;
}

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
  // Lanes run innermost over contiguous amplitudes into a per-observable
  // accumulator; each out[b, k] is still +0.0 plus diag[k][i] * |a_ib|^2 in
  // ascending i.
  constexpr std::size_t kLaneChunk = 32;
  const Complex* amps = state.amplitudes().data();
  for (std::size_t b0 = 0; b0 < rows; b0 += kLaneChunk) {
    const std::size_t lanes = std::min(kLaneChunk, rows - b0);
    for (std::size_t k = 0; k < obs_count; ++k) {
      const double* diag = diagonals[k].data();
      double acc[kLaneChunk] = {};
      for (std::size_t i = 0; i < state.dimension(); ++i) {
        const Complex* row = amps + i * rows + b0;
        for (std::size_t b = 0; b < lanes; ++b) {
          acc[b] += diag[i] * std::norm(row[b]);
        }
      }
      for (std::size_t b = 0; b < lanes; ++b) {
        out[(b0 + b) * obs_count + k] = acc[b];
      }
    }
  }
}

void adjoint_vjp_batch(const Circuit& circuit, std::span<const double> params,
                       std::size_t param_stride, std::size_t batch_rows,
                       std::span<const Observable> observables,
                       std::span<const double> upstream_weights,
                       std::span<double> gradient,
                       StateVectorBatch* forward_state) {
  const std::size_t obs_count = observables.size();
  if (!std::all_of(observables.begin(), observables.end(),
                   [](const Observable& obs) { return obs.is_diagonal(); })) {
    // X/Y observables: each row seeded as adjoint_vjp seeds it, then one
    // batched forward and sweep as below.
    if (upstream_weights.size() != batch_rows * obs_count ||
        gradient.size() != batch_rows * circuit.parameter_count()) {
      throw std::invalid_argument("adjoint_vjp_batch: upstream or gradient "
                                  "size must be batch * count");
    }
    StateVectorBatch phi{circuit.num_qubits(), batch_rows};
    circuit.run_batch(phi, params, param_stride);
    StateVectorBatch lambda{circuit.num_qubits(), batch_rows};
    for (std::size_t b = 0; b < batch_rows; ++b) {
      lambda.set_row(b, weighted_observable_state(
                            phi.extract_row(b), observables,
                            upstream_weights.subspan(b * obs_count,
                                                     obs_count)));
    }
    std::fill(gradient.begin(), gradient.end(), 0.0);
    reverse_sweep_batch(circuit, params, param_stride, lambda, &phi,
                        gradient);
    return;
  }
  std::vector<std::vector<double>> diagonals;
  diagonals.reserve(obs_count);
  for (const Observable& obs : observables) {
    diagonals.push_back(obs.diagonal(circuit.num_qubits()));
  }
  adjoint_vjp_batch_diagonal(circuit, params, param_stride, batch_rows,
                             diagonals, upstream_weights, gradient,
                             forward_state);
}

void adjoint_vjp_batch_diagonal(const Circuit& circuit,
                                std::span<const double> params,
                                std::size_t param_stride,
                                std::size_t batch_rows,
                                std::span<const std::vector<double>> diagonals,
                                std::span<const double> upstream_weights,
                                std::span<double> gradient,
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
  if (gradient.size() != batch_rows * circuit.parameter_count()) {
    throw std::invalid_argument(
        "adjoint_vjp_batch: gradient size must be batch * parameters");
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

  std::fill(gradient.begin(), gradient.end(), 0.0);
  reverse_sweep_batch(circuit, params, param_stride, lambda, &phi, gradient);
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
