// Adjoint differentiation (Jones & Gacon, arXiv:2009.02823) — the same
// algorithm PennyLane's default.qubit uses for simulator gradients.
//
// For a circuit U = U_n … U_1 and Hermitian observable O, the gradient of
// E(θ) = ⟨0|U† O U|0⟩ w.r.t. the angle of gate k is
//     dE/dθ_k = 2 Re ⟨λ_k | (dU_k/dθ_k) | φ_{k-1}⟩,
// computed in a single reverse sweep that maintains |φ⟩ (the forward state
// with gates peeled off) and |λ⟩ (O|ψ⟩ pulled back through the circuit).
// Cost: O(ops · 2^q) — independent of the parameter count, unlike
// parameter-shift.
//
// The VJP variant fuses multiple observables: given upstream weights w_k
// (dL/d⟨O_k⟩ from classical backprop), it runs ONE sweep with the effective
// observable Σ_k w_k O_k, yielding dL/dθ directly. This is what the hybrid
// QuantumLayer calls in its backward pass.
//
// The sweep only needs the forward state |ψ⟩ = U|0⟩ at its start. The
// batched VJP accepts that state from the caller (the layer's forward pass
// already computed it), so a training step simulates each batch forward
// once instead of twice; see adjoint_vjp_batch for the ownership contract.
#pragma once

#include <span>
#include <vector>

#include "quantum/circuit.hpp"
#include "quantum/observable.hpp"

namespace qhdl::quantum {

struct AdjointResult {
  double expectation = 0.0;
  std::vector<double> gradient;  ///< dE/dθ per runtime parameter
};

struct AdjointVjpResult {
  std::vector<double> expectations;  ///< ⟨O_k⟩ per observable
  std::vector<double> gradient;      ///< dL/dθ per runtime parameter
};

/// Gradient of a single observable's expectation w.r.t. every runtime
/// parameter. Parameters shared across ops accumulate (product rule).
AdjointResult adjoint_gradient(const Circuit& circuit,
                               std::span<const double> params,
                               const Observable& observable);

/// Single-sweep vector-Jacobian product over multiple observables.
/// `upstream_weights[k]` multiplies observable k; the returned gradient is
/// Σ_k upstream_weights[k] · d⟨O_k⟩/dθ. Also returns each raw ⟨O_k⟩.
AdjointVjpResult adjoint_vjp(const Circuit& circuit,
                             std::span<const double> params,
                             std::span<const Observable> observables,
                             std::span<const double> upstream_weights);

/// Same, but the circuit starts from `initial_state` instead of |0...0⟩ —
/// needed by amplitude-encoded layers whose state preparation is data, not
/// gates. The gradient covers the circuit parameters only (the caller owns
/// the chain rule through the initial state; see initial_state_cogradient).
AdjointVjpResult adjoint_vjp_from_state(
    const Circuit& circuit, std::span<const double> params,
    const StateVector& initial_state,
    std::span<const Observable> observables,
    std::span<const double> upstream_weights);

/// Co-gradient of the weighted expectation with respect to the REAL part of
/// each initial amplitude: returns v with
///   v_i = 2 Re[ (U† O_eff U |φ⟩)_i ],   O_eff = Σ_k w_k O_k,
/// so that for real amplitude vectors dE/dφ_i = v_i. Used by amplitude
/// encoding to backpropagate into the data register.
std::vector<double> initial_state_cogradient(
    const Circuit& circuit, std::span<const double> params,
    const StateVector& initial_state,
    std::span<const Observable> observables,
    std::span<const double> upstream_weights);

/// Full Jacobian d⟨O_k⟩/dθ_j as rows per observable (one adjoint sweep per
/// observable; used in tests and for Fisher-style analyses).
std::vector<std::vector<double>> adjoint_jacobian(
    const Circuit& circuit, std::span<const double> params,
    std::span<const Observable> observables);

// --- batched (SoA) adjoint VJP --------------------------------------------

struct BatchAdjointVjpResult {
  std::size_t batch = 0;
  std::size_t observable_count = 0;
  std::vector<double> expectations;  ///< [b * observable_count + k]
  std::vector<double> gradient;      ///< [b * parameter_count + p]
};

/// One reverse sweep over a whole SoA batch of rows. Row b reads its circuit
/// parameters from params[b*param_stride, (b+1)*param_stride) and its
/// upstream weights from upstream_weights[b*K, (b+1)*K) with
/// K = observables.size(). Requires every observable to be diagonal
/// (all-Z) so the co-state seed is a per-amplitude multiply — the hybrid
/// layer's ⟨Z_w⟩ heads satisfy this; callers with X/Y observables fall back
/// to the per-row adjoint_vjp. Throws std::invalid_argument otherwise.
///
/// Forward-state reuse: a non-null `forward_state` must hold the circuit
/// applied to |0…0⟩ with exactly these `params` (e.g. the batch a forward
/// pass just computed through Circuit::run_batch). The sweep then skips its
/// own forward simulation and peels the gates off that batch IN PLACE, so
/// on return it no longer holds the forward state — the caller owns it and
/// must treat it as consumed. Only the caller can vouch that the state
/// matches the params (the hybrid layer compares the packed parameter
/// buffers bitwise); given that, the result is bit-identical to passing
/// nullptr, which recomputes the forward. A shape mismatch throws.
BatchAdjointVjpResult adjoint_vjp_batch(
    const Circuit& circuit, std::span<const double> params,
    std::size_t param_stride, std::size_t batch_rows,
    std::span<const Observable> observables,
    std::span<const double> upstream_weights,
    StateVectorBatch* forward_state = nullptr);

/// adjoint_vjp_batch with the observables given as their computational-basis
/// diagonals (Observable::diagonal), so a caller that runs many batches
/// (Executor) builds them once instead of per call.
BatchAdjointVjpResult adjoint_vjp_batch_diagonal(
    const Circuit& circuit, std::span<const double> params,
    std::size_t param_stride, std::size_t batch_rows,
    std::span<const std::vector<double>> diagonals,
    std::span<const double> upstream_weights,
    StateVectorBatch* forward_state = nullptr);

/// out[b * K + k] = Σ_i diagonals[k][i] · |amp_b[i]|², one running sum per
/// row in ascending amplitude order — bit-identical to
/// Observable::expectation on each extracted row. `out` has batch * K
/// entries.
void diagonal_expectations_batch(
    const StateVectorBatch& state,
    std::span<const std::vector<double>> diagonals, std::span<double> out);

}  // namespace qhdl::quantum
