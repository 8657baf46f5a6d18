// Density-matrix simulator for mixed states.
//
// The paper frames HQNNs as NISQ-era constructions (Section I); its cited
// companion work (Kashif et al., IJCNN'24) studies how hardware noise
// affects HQNN training. This substrate makes those experiments possible:
// ρ evolves under the same gate set as StateVector plus CPTP noise channels
// (Kraus operators), at O(4^q) per gate. Same wire convention as
// StateVector (wire 0 = most significant bit).
//
// ρ's columns are the lanes of a StateVectorBatch: the batch's SoA layout
// amps[i*B + b] is ρ's row-major [row*dim + col], so one batch-kernel call
// computes U·ρ. R density matrices of the same size are one batch of
// R·2^q lanes (ρ_r's column c in lane r·2^q + c), and a DensityMatrix is
// the R = 1 case. Every gate and Kraus operator runs as the sandwich
// U ρ U† = (U (U ρ)†)†: apply U, conjugate-transpose each ρ_r in place,
// apply U again, conjugate-transpose back. Mixed states therefore run on
// the pure states' one gate dispatch (apply_gate_batch) and registry
// kernels, two kernel calls per gate for all R matrices (DESIGN.md §8). A
// gate's matrices are built once for both calls (BatchGate); when its angle
// differs between the ρ_r, ρ_r's matrix is evaluated once and repeated
// across its 2^q lanes.
#pragma once

#include <span>
#include <vector>

#include "quantum/gates.hpp"

namespace qhdl::quantum {

/// A quantum channel as a list of 2x2 Kraus operators acting on one qubit.
/// CPTP requires Σ K_k† K_k = I (checked by is_trace_preserving).
struct KrausChannel {
  std::string name;
  std::vector<Mat2> operators;

  bool is_trace_preserving(double tolerance = 1e-10) const;
};

/// R dense 2^q x 2^q density matrices ρ_0 … ρ_{R-1}, row-major, as the
/// lanes of one StateVectorBatch (see the file comment).
class DensityMatrixBatch {
 public:
  /// R copies of |0...0⟩⟨0...0|.
  DensityMatrixBatch(std::size_t num_qubits, std::size_t rows);

  std::size_t num_qubits() const { return columns_.num_qubits(); }
  std::size_t dimension() const { return columns_.dimension(); }
  std::size_t rows() const { return columns_.batch() / dimension(); }

  /// ρ_r ← U ρ_r U† for any GateType (wire arguments as apply_gate_batch).
  /// `angles` holds one angle shared by every ρ_r or one per ρ_r.
  void apply_gate(GateType type, std::span<const double> angles,
                  std::size_t wire0, std::size_t wire1 = SIZE_MAX);

  /// ρ_r ← M ρ_r M† for an arbitrary 2x2 matrix on `wire` (a Kraus
  /// operator need not be unitary).
  void apply_single_qubit(const Mat2& gate, std::size_t wire);

  /// ρ_r ← Σ_k K_k ρ_r K_k† on `wire`.
  void apply_channel(const KrausChannel& channel, std::size_t wire);

  /// out[r] = Tr(Z_wire ρ_r) (out has rows() entries).
  void expval_pauli_z(std::size_t wire, std::span<double> out) const;

 protected:
  std::span<Complex> elements() { return columns_.amplitudes(); }
  std::span<const Complex> elements() const { return columns_.amplitudes(); }
  void check_wire(std::size_t wire, const char* context) const;

 private:
  StateVectorBatch columns_;  ///< lane r·2^q + col holds column col of ρ_r
};

/// One dense 2^q x 2^q density matrix: the R = 1 DensityMatrixBatch.
class DensityMatrix : public DensityMatrixBatch {
 public:
  /// |0...0⟩⟨0...0|.
  explicit DensityMatrix(std::size_t num_qubits);

  /// Pure-state projector |ψ⟩⟨ψ|.
  static DensityMatrix from_statevector(const StateVector& state);

  /// Maximally mixed state I / 2^q.
  static DensityMatrix maximally_mixed(std::size_t num_qubits);

  Complex& at(std::size_t row, std::size_t col);
  Complex at(std::size_t row, std::size_t col) const;

  /// ρ ← U ρ U† for any GateType (same arguments as apply_gate on a
  /// StateVector; for two-qubit gates wire0 is the control or first wire).
  void apply_gate(GateType type, double angle, std::size_t wire0,
                  std::size_t wire1 = SIZE_MAX) {
    DensityMatrixBatch::apply_gate(type, {&angle, 1}, wire0, wire1);
  }

  /// Tr(ρ) — should stay 1 under CPTP evolution.
  Complex trace() const;

  /// Tr(ρ²) ∈ (0, 1]; 1 iff pure.
  double purity() const;

  /// Tr(Z_wire ρ).
  double expval_pauli_z(std::size_t wire) const {
    double value = 0.0;
    DensityMatrixBatch::expval_pauli_z(wire, {&value, 1});
    return value;
  }

  /// Diagonal of ρ: computational-basis probabilities.
  std::vector<double> probabilities() const;

  /// Reduced density matrix of a single qubit (partial trace over the rest),
  /// returned as a 2x2 matrix. Used by the Meyer-Wallach entanglement
  /// measure.
  Mat2 reduced_single_qubit(std::size_t wire) const;

  /// Hermiticity violation: max |ρ_ij - conj(ρ_ji)|.
  double hermiticity_error() const;
};

/// Single-qubit reduced density matrix straight from a pure state —
/// cheaper than materializing the full ρ.
Mat2 reduced_single_qubit(const StateVector& state, std::size_t wire);

}  // namespace qhdl::quantum
