// Standard single-qubit noise channels as Kraus-operator sets, plus a
// NoiseModel that attaches channels to circuit execution (after every gate,
// on the wires the gate touched) — the standard NISQ noise idealization.
#pragma once

#include "quantum/circuit.hpp"
#include "quantum/density_matrix.hpp"

namespace qhdl::quantum {

namespace channels {

/// Depolarizing: with probability p the qubit is replaced by I/2.
/// Kraus: {√(1-p) I, √(p/3) X, √(p/3) Y, √(p/3) Z}. Requires p ∈ [0, 1].
KrausChannel depolarizing(double p);

/// Amplitude damping (T1 decay): |1⟩ -> |0⟩ with probability γ.
KrausChannel amplitude_damping(double gamma);

/// Phase damping (pure dephasing, T2): off-diagonals shrink by √(1-γ).
KrausChannel phase_damping(double gamma);

/// Bit flip: X with probability p.
KrausChannel bit_flip(double p);

/// Phase flip: Z with probability p.
KrausChannel phase_flip(double p);

}  // namespace channels

/// Per-execution noise description: a channel applied after every gate on
/// each wire the gate acts on (empty = noiseless).
struct NoiseModel {
  std::vector<KrausChannel> per_gate_channels;

  bool empty() const { return per_gate_channels.empty(); }

  static NoiseModel noiseless() { return NoiseModel{}; }
  static NoiseModel depolarizing(double p);
  static NoiseModel amplitude_damping(double gamma);
};

/// Runs a circuit on a density matrix under the noise model and returns the
/// final state. Fixed-angle and parameterized ops both supported; each gate
/// is a DensityMatrixBatch::apply_gate, the pure states' gate dispatch run
/// as a sandwich over ρ's columns. This is the one-row case of the batched
/// functions below.
DensityMatrix run_noisy(const Circuit& circuit,
                        std::span<const double> params,
                        const NoiseModel& noise);

/// ⟨Z_w⟩ for each requested wire under noisy execution.
std::vector<double> noisy_expvals(const Circuit& circuit,
                                  std::span<const double> params,
                                  const NoiseModel& noise,
                                  std::span<const std::size_t> wires);

/// noisy_expvals for `rows` parameter rows at once (row r reads
/// params[r * stride, …)): the R ρ_r evolve as one DensityMatrixBatch, and
/// out[r * wires.size() + k] = ⟨Z_{wires[k]}⟩ of row r. Each row equals
/// (==) the row evaluated alone.
void noisy_expvals_batch(const Circuit& circuit,
                         std::span<const double> params, std::size_t stride,
                         std::size_t rows, const NoiseModel& noise,
                         std::span<const std::size_t> wires,
                         std::span<double> out);

/// Vector-Jacobian product under noise: gradient of
/// Σ_k upstream[k] · ⟨Z_{wires[k]}⟩ w.r.t. every runtime parameter, plus the
/// unshifted expectations. The shift rules (shift_rule_derivative) remain
/// exact for unitary parameterized gates even when the overall evolution is
/// a noisy CPTP map. Each shifted circuit is evolved ONCE and all
/// observables are read from it, so the cost matches the single-observable
/// shift rule; a one-hot `upstream` gives one observable's gradient.
struct NoisyVjpResult {
  std::vector<double> expectations;
  std::vector<double> gradient;
};
NoisyVjpResult noisy_parameter_shift_vjp(const Circuit& circuit,
                                         std::span<const double> params,
                                         const NoiseModel& noise,
                                         std::span<const std::size_t> wires,
                                         std::span<const double> upstream);

/// The VJP's gradient for `rows` parameter rows at once — what a noisy
/// QuantumLayer's backward uses: upstream[r * wires.size() + k], and
/// gradient[r * P + p] (P = parameter_count, overwritten). Every shifted
/// circuit of every row is one ρ of a single DensityMatrixBatch (the
/// shift_rule_rows lanes); the unshifted ρ is not evolved. Each row
/// equals (==) the row evaluated alone.
void noisy_parameter_shift_vjp_batch(const Circuit& circuit,
                                     std::span<const double> params,
                                     std::size_t stride, std::size_t rows,
                                     const NoiseModel& noise,
                                     std::span<const std::size_t> wires,
                                     std::span<const double> upstream,
                                     std::span<double> gradient);

}  // namespace qhdl::quantum
