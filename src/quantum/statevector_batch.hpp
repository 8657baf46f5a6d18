// Structure-of-arrays batch of state vectors.
//
// Stores B states of 2^n amplitudes with layout amps[i*B + b] (amplitude
// index major, batch row minor), so every gate kernel walks contiguous
// memory: the pair update for amplitude indices (i0, i1) touches two dense
// runs of B complex numbers. This is what makes the hybrid layer's batch
// forward/backward (one circuit, many samples) cache-friendly.
//
// These are the simulator's only gate kernels: a StateVector is the
// one-row batch (statevector.hpp), whose layout at B = 1 is the plain
// amplitude array, and a DensityMatrix is the batch of its 2^q columns
// (density_matrix.hpp), whose layout is ρ's row-major array.
//
// Two kernel flavors:
//   * shared — one matrix for every row (ansatz weights, fixed gates):
//     the dense 2x2 and the structure kernels (diagonal, PauliX, CNOT, CZ,
//     SWAP, controlled, double-flip pairs, dense 4x4);
//   * per-row — an independent matrix per row (data-encoding gates): the
//     dense 2x2, which every per-row single-qubit gate takes, and the
//     controlled and double-flip pair kernels for two-qubit gates.
// Each row runs the same operations in the same order whatever B is, so a
// batch matches its rows run one at a time bit-for-bit regardless of how
// the batch is chunked.
//
// The hottest kernels (dense 2x2 with a shared or a per-row matrix,
// diagonal, CNOT, dense 4x4, expval-Z, batched inner products) are
// registry-dispatched through util::simd::ops() (DESIGN.md §14): the
// active backend vectorizes ACROSS the contiguous batch lanes, which cannot
// change any per-lane rounding. The per-row 2x2 takes its matrices SoA
// (entry k of row b at k * batch() + b), so lane b loads its own matrix
// with the same unit stride as its amplitudes.
#pragma once

#include <span>
#include <vector>

#include "quantum/matrix.hpp"

namespace qhdl::quantum {

class StateVector;

class StateVectorBatch {
 public:
  /// B copies of |0...0⟩.
  StateVectorBatch(std::size_t num_qubits, std::size_t batch);

  std::size_t num_qubits() const { return num_qubits_; }
  std::size_t batch() const { return batch_; }
  std::size_t dimension() const { return dimension_; }

  /// Raw SoA storage (index i, row b at position i*batch() + b).
  std::span<Complex> amplitudes() { return amplitudes_; }
  std::span<const Complex> amplitudes() const { return amplitudes_; }

  /// Resets every row to |0...0⟩.
  void reset();

  /// Reshapes to `batch` rows of |0...0⟩ (batch >= 1), reusing the storage
  /// when it already holds that many, so scratch batches that alternate
  /// between row counts stop allocating once they have seen the largest.
  void resize(std::size_t batch);

  /// Copies the amplitudes of another batch (same shape) into this one.
  void assign_from(const StateVectorBatch& other);

  /// AoS bridge for tests / row-level fallbacks.
  StateVector extract_row(std::size_t row) const;
  void set_row(std::size_t row, const StateVector& state);

  // --- shared-matrix kernels (one gate for all rows) ---------------------
  // Beyond the dense apply_single_qubit, each specialized kernel is
  // algebraically identical to it with the corresponding matrix but touches
  // less data or does fewer FLOPs (DESIGN.md §8).

  /// Applies a single-qubit matrix to `wire` (dense 2x2 matvec over every
  /// amplitude pair).
  void apply_single_qubit(const Mat2& gate, std::size_t wire);
  /// diag(d0, d1) on `wire`: per-amplitude phase multiply, no pair gather
  /// (RZ, PhaseShift, S, T, PauliZ). When d0 == 1 only the wire=1 half of
  /// the state is touched.
  void apply_diagonal(Complex d0, Complex d1, std::size_t wire);
  /// PauliX on `wire`: a pure swap of amplitude pairs.
  void apply_pauli_x(std::size_t wire);
  void apply_cnot(std::size_t control, std::size_t target);
  void apply_cz(std::size_t control, std::size_t target);
  void apply_swap(std::size_t wire_a, std::size_t wire_b);
  /// Applies a single-qubit matrix to `target` controlled on `control`=1.
  void apply_controlled(const Mat2& gate, std::size_t control,
                        std::size_t target);
  /// Applies d(CU)/dθ = |1⟩⟨1|_c ⊗ (dU/dθ): control-0 amplitudes are zeroed,
  /// control-1 amplitudes get `gate` (typically a non-unitary derivative).
  void apply_controlled_derivative(const Mat2& gate, std::size_t control,
                                   std::size_t target);
  /// Applies a 2x2 matrix to the double-flip amplitude pairs
  /// (i, i ^ mask_a ^ mask_b): `even_pair` where the two wire bits agree
  /// (|00⟩↔|11⟩ blocks), `odd_pair` where they differ (|01⟩↔|10⟩). The
  /// "low" element of each pair has wire_a's bit = 0. This is exactly the
  /// structure of the Ising gates RXX/RYY/RZZ (see gates.hpp).
  void apply_double_flip_pairs(const Mat2& even_pair, const Mat2& odd_pair,
                               std::size_t wire_a, std::size_t wire_b);
  /// Dense 4x4 two-qubit unitary on |wire_a wire_b⟩: the matrix's local
  /// basis index is (bit_a << 1) | bit_b (used by the compiled plan's
  /// FusedPair ops).
  void apply_two_qubit(const Mat4& gate, std::size_t wire_a,
                       std::size_t wire_b);

  // --- per-row kernels (independent gate per row; spans sized batch()) ---
  /// Row b gets its own 2x2, read SoA from `m` (exactly 4 * batch()
  /// complexes) as m[k * batch() + b] for k = m00, m01, m10, m11 — the
  /// layout quantum::store_lane writes. One registry dispatch for all rows.
  void apply_single_qubit_per_row(std::span<const Complex> m,
                                  std::size_t wire);
  void apply_controlled_per_row(std::span<const Mat2> gates,
                                std::size_t control, std::size_t target);
  void apply_controlled_derivative_per_row(std::span<const Mat2> gates,
                                           std::size_t control,
                                           std::size_t target);
  void apply_double_flip_pairs_per_row(std::span<const Mat2> even_pairs,
                                       std::span<const Mat2> odd_pairs,
                                       std::size_t wire_a, std::size_t wire_b);

  // --- reductions --------------------------------------------------------
  /// out[b] = ⟨Z_wire⟩ of row b, accumulated in amplitude-index order (the
  /// order Observable::expectation uses).
  void expval_pauli_z(std::size_t wire, std::span<double> out) const;

  /// out[b] = Re⟨this_b|other_b⟩, index-order accumulation per row.
  void inner_products_real(const StateVectorBatch& other,
                           std::span<double> out) const;

 protected:
  /// One row adopting `amplitudes` (StateVector's explicit-amplitude
  /// constructor); the count must be a power of two >= 2.
  explicit StateVectorBatch(std::vector<Complex> amplitudes);

 private:
  void check_wire(std::size_t wire, const char* context) const;
  void check_rows(std::size_t span_size, const char* context) const;

  std::size_t num_qubits_;
  std::size_t batch_;
  std::size_t dimension_;
  std::vector<Complex> amplitudes_;
};

}  // namespace qhdl::quantum
