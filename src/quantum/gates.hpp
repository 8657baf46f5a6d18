// Gate library: fixed gates, parameterized rotations, their adjoints, and
// their parameter derivatives (used by adjoint differentiation).
//
// Conventions follow PennyLane:
//   RX(θ) = exp(-i θ X / 2), RY, RZ analogous;
//   Rot(φ, θ, ω) = RZ(ω) · RY(θ) · RZ(φ)   (RZ(φ) applied first);
//   PhaseShift(θ) = diag(1, e^{iθ});
//   CR*(θ) = |0⟩⟨0|⊗I + |1⟩⟨1|⊗R*(θ).
#pragma once

#include <span>
#include <string>

#include "quantum/statevector.hpp"

namespace qhdl::quantum {

enum class GateType {
  // Fixed single-qubit gates.
  PauliX,
  PauliY,
  PauliZ,
  Hadamard,
  S,
  T,
  // Parameterized single-qubit gates (1 parameter each).
  RX,
  RY,
  RZ,
  PhaseShift,
  // Fixed two-qubit gates.
  CNOT,
  CZ,
  SWAP,
  // Parameterized controlled rotations (1 parameter each).
  CRX,
  CRY,
  CRZ,
  // Parameterized two-qubit Ising rotations exp(-i θ P⊗P / 2).
  RXX,
  RYY,
  RZZ,
};

/// Number of wires the gate acts on (1 or 2).
std::size_t gate_arity(GateType type);

/// True for gates that carry a rotation angle.
bool gate_is_parameterized(GateType type);

/// True for two-qubit gates whose first wire is a control.
bool gate_is_controlled(GateType type);

/// Human-readable name ("RX", "CNOT", ...).
std::string gate_name(GateType type);

namespace gates {

/// Fixed gate matrices.
Mat2 pauli_x();
Mat2 pauli_y();
Mat2 pauli_z();
Mat2 hadamard();
Mat2 s();
Mat2 t();

/// Rotation matrices.
Mat2 rx(double theta);
Mat2 ry(double theta);
Mat2 rz(double theta);
Mat2 phase_shift(double theta);

/// Parameter derivatives dU/dθ (non-unitary matrices).
Mat2 rx_derivative(double theta);
Mat2 ry_derivative(double theta);
Mat2 rz_derivative(double theta);
Mat2 phase_shift_derivative(double theta);

/// Matrix for any single-qubit GateType (angle ignored for fixed gates).
Mat2 matrix_for(GateType type, double theta);

/// Ising-gate pair matrices acting on the double-flip amplitude pairs (see
/// StateVector::apply_double_flip_pairs): first = even-parity block
/// (|00⟩↔|11⟩), second = odd-parity block (|01⟩↔|10⟩).
struct IsingPair {
  Mat2 even;
  Mat2 odd;
};
IsingPair ising_pair(GateType type, double theta);
IsingPair ising_pair_derivative(GateType type, double theta);

/// Derivative matrix for a parameterized single-qubit / controlled gate's
/// target factor. Throws std::invalid_argument for fixed gates.
Mat2 derivative_for(GateType type, double theta);

}  // namespace gates

// --- gate dispatch over a SoA batch ---------------------------------------
// `angles` holds either ONE shared angle (size 1 — also pass {0.0} for fixed
// gates) or one angle per batch row (size batch.batch()). Shared angles hit
// the shared kernels (one trig evaluation for the whole batch); per-row
// angles hit the per-row kernel variants. For two-qubit gates wire0 is the
// control (or first swap wire).

void apply_gate_batch(StateVectorBatch& batch, GateType type,
                      std::span<const double> angles, std::size_t wire0,
                      std::size_t wire1 = SIZE_MAX);

/// Applies the inverse gate: a parameterized gate at the negated angle, a
/// fixed single-qubit gate as the dagger() of its gates:: matrix (through
/// the same kernel choice as the gate), CNOT/CZ/SWAP as themselves.
void apply_gate_inverse_batch(StateVectorBatch& batch, GateType type,
                              std::span<const double> angles,
                              std::size_t wire0, std::size_t wire1 = SIZE_MAX);

/// Applies dU/dθ (non-unitary). Only valid for parameterized gates.
void apply_gate_derivative_batch(StateVectorBatch& batch, GateType type,
                                 std::span<const double> angles,
                                 std::size_t wire0,
                                 std::size_t wire1 = SIZE_MAX);

// A single state is the one-row batch: these are the B = 1 calls above.

inline void apply_gate(StateVector& state, GateType type, double theta,
                       std::size_t wire0, std::size_t wire1 = SIZE_MAX) {
  apply_gate_batch(state, type, {&theta, 1}, wire0, wire1);
}

inline void apply_gate_inverse(StateVector& state, GateType type,
                               double theta, std::size_t wire0,
                               std::size_t wire1 = SIZE_MAX) {
  apply_gate_inverse_batch(state, type, {&theta, 1}, wire0, wire1);
}

inline void apply_gate_derivative(StateVector& state, GateType type,
                                  double theta, std::size_t wire0,
                                  std::size_t wire1 = SIZE_MAX) {
  apply_gate_derivative_batch(state, type, {&theta, 1}, wire0, wire1);
}

}  // namespace qhdl::quantum
