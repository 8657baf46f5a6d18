// Gate library: fixed gates, parameterized rotations, their adjoints, and
// their parameter derivatives (used by adjoint differentiation).
//
// Conventions follow PennyLane:
//   RX(θ) = exp(-i θ X / 2), RY, RZ analogous;
//   Rot(φ, θ, ω) = RZ(ω) · RY(θ) · RZ(φ)   (RZ(φ) applied first);
//   PhaseShift(θ) = diag(1, e^{iθ});
//   CR*(θ) = |0⟩⟨0|⊗I + |1⟩⟨1|⊗R*(θ).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

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
constexpr std::size_t gate_arity(GateType type) {
  switch (type) {
    case GateType::PauliX:
    case GateType::PauliY:
    case GateType::PauliZ:
    case GateType::Hadamard:
    case GateType::S:
    case GateType::T:
    case GateType::RX:
    case GateType::RY:
    case GateType::RZ:
    case GateType::PhaseShift:
      return 1;
    case GateType::CNOT:
    case GateType::CZ:
    case GateType::SWAP:
    case GateType::CRX:
    case GateType::CRY:
    case GateType::CRZ:
    case GateType::RXX:
    case GateType::RYY:
    case GateType::RZZ:
      return 2;
  }
  throw std::logic_error("gate_arity: unknown gate");
}

/// True for gates that carry a rotation angle.
constexpr bool gate_is_parameterized(GateType type) {
  switch (type) {
    case GateType::RX:
    case GateType::RY:
    case GateType::RZ:
    case GateType::PhaseShift:
    case GateType::CRX:
    case GateType::CRY:
    case GateType::CRZ:
    case GateType::RXX:
    case GateType::RYY:
    case GateType::RZZ:
      return true;
    default:
      return false;
  }
}

/// True for two-qubit gates whose first wire is a control.
constexpr bool gate_is_controlled(GateType type) {
  switch (type) {
    case GateType::CNOT:
    case GateType::CZ:
    case GateType::CRX:
    case GateType::CRY:
    case GateType::CRZ:
      return true;
    default:
      return false;
  }
}

/// Kernel class an op dispatches to with one shared angle: BatchGate picks
/// single-qubit kernels by it, and flops::DispatchCounts counts by it. A
/// single-qubit gate whose angle differs per row takes the per-row dense
/// 2x2, which the kernel.* counters file as generic.
enum class KernelClass : std::uint8_t {
  Diagonal,     ///< RZ / PhaseShift / S / T / Z / CZ
  Permutation,  ///< X / CNOT / SWAP
  Controlled,   ///< CRX / CRY / CRZ
  DoubleFlip,   ///< RXX / RYY / RZZ
  Generic,      ///< dense 2x2 matvec (RX, RY, PauliY, Hadamard)
};

/// Kernel class `type` routes to with one shared angle: the one gate ->
/// kernel table.
constexpr KernelClass kernel_class_for(GateType type) {
  switch (type) {
    case GateType::PauliZ:
    case GateType::S:
    case GateType::T:
    case GateType::RZ:
    case GateType::PhaseShift:
    case GateType::CZ:
      return KernelClass::Diagonal;
    case GateType::PauliX:
    case GateType::CNOT:
    case GateType::SWAP:
      return KernelClass::Permutation;
    case GateType::CRX:
    case GateType::CRY:
    case GateType::CRZ:
      return KernelClass::Controlled;
    case GateType::RXX:
    case GateType::RYY:
    case GateType::RZZ:
      return KernelClass::DoubleFlip;
    case GateType::RX:
    case GateType::RY:
    case GateType::PauliY:
    case GateType::Hadamard:
      return KernelClass::Generic;
  }
  return KernelClass::Generic;
}

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

/// Which matrix of a gate a BatchGate holds: U(θ), U(θ)† or dU/dθ.
enum class GateForm : std::uint8_t { Gate, Inverse, Derivative };

/// One gate's matrices for a batch, evaluated once and then applied to any
/// number of batches of that shape (the adjoint sweep applies an inverse to
/// both its states; a density matrix applies a gate twice per sandwich).
/// The one gate dispatch: apply_gate_batch and its inverse and derivative
/// twins build one and apply it.
///
/// With one angle the matrix is shared by every row and apply() takes the
/// gate's structure kernel (DESIGN.md §8); with one angle per row, row r's
/// matrix is evaluated once and serves the `lane_repeat` consecutive lanes
/// [r * lane_repeat, (r + 1) * lane_repeat) through the per-row kernels (a
/// DensityMatrixBatch passes 2^q: ρ_r's columns).
///
/// A rotation's entries are built from one cos/sin pair (of θ/2, or of θ
/// for PhaseShift), so its inverse takes sin negated and its derivative
/// takes both halved; GateMatrices.RotationEntriesEqualClosedFormTrigBitwise
/// pins that this equals evaluating the gate at −θ and derivative_for bit
/// for bit. The Ising gates, whose entries no such test pins, evaluate each
/// form from its own angle.
class BatchGate {
 public:
  /// `form` of `type` at `angles` (size 1, or one per row). A fixed gate
  /// ignores its angles; the Derivative of a fixed gate throws.
  void build(GateType type, GateForm form, std::span<const double> angles,
             std::size_t lane_repeat = 1);

  /// The adjoint sweep's pair for one parameterized op: U(θ)† into
  /// `inverse` and dU/dθ into `derivative`, one trig evaluation per angle.
  static void build_adjoint(GateType type, std::span<const double> angles,
                            BatchGate& inverse, BatchGate& derivative);

  /// Applies the built matrices to `batch` (wire arguments as
  /// apply_gate_batch). Per-row matrices need batch.batch() lanes.
  void apply(StateVectorBatch& batch, std::size_t wire0,
             std::size_t wire1 = SIZE_MAX) const;

 private:
  void start(GateType type, GateForm form, std::size_t rows,
             std::size_t lane_repeat);
  void set(std::size_t row, const Mat2& matrix);
  void set(std::size_t row, const gates::IsingPair& pair);

  GateType type_ = GateType::PauliX;
  GateForm form_ = GateForm::Gate;
  bool shared_ = true;
  std::size_t lane_repeat_ = 1;
  std::size_t lanes_ = 1;
  Mat2 matrix_{};  ///< shared: the 2x2 (the even block of an Ising pair)
  Mat2 odd_{};     ///< shared: an Ising pair's odd block
  std::vector<Complex> lane_soa_;  ///< per-row single-qubit, SoA
  std::vector<Mat2> lane_matrix_;  ///< per-row controlled / Ising even
  std::vector<Mat2> lane_odd_;     ///< per-row Ising odd
};

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
