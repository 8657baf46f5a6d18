// Dense state-vector simulator: one state of n qubits.
//
// Wire convention matches PennyLane: wire 0 is the most significant bit of
// the computational-basis index, so |q0 q1 ... q_{n-1}⟩ has basis index
// (q0 << (n-1)) | ... | q_{n-1}. All public methods validate wires.
//
// A StateVector is a one-row StateVectorBatch. At batch() == 1 the SoA
// layout amps[i * 1 + 0] is the plain amplitude array, so the inherited
// gate methods (apply_single_qubit, apply_cnot, ...) are the batch kernels
// and there is one kernel set for one state and for many. This class adds
// only the single-state accessors.
#pragma once

#include <string>
#include <vector>

#include "quantum/statevector_batch.hpp"

namespace qhdl::quantum {

/// State of `num_qubits` qubits; 2^n complex amplitudes.
class StateVector : public StateVectorBatch {
 public:
  /// Initializes |0...0⟩.
  explicit StateVector(std::size_t num_qubits);

  /// Takes explicit amplitudes (must have power-of-two size).
  explicit StateVector(std::vector<Complex> amplitudes);

  /// Sets to a computational basis state.
  void set_basis_state(std::size_t basis_index);

  /// Always exactly one row.
  void resize(std::size_t batch) = delete;

  /// Multiplies the whole state by a scalar (used by derivative ops).
  void scale(Complex factor);

  /// ⟨Z_wire⟩ = Σ_i ±|a_i|², the batch reduction at B = 1: one sequential
  /// sum in ascending i, bitwise equal to Observable::expectation.
  double expval_pauli_z(std::size_t wire) const;

  /// Probability of measuring basis state `basis_index`.
  double probability(std::size_t basis_index) const;

  /// All 2^n basis probabilities.
  std::vector<double> probabilities() const;

  /// Σ|a_i|² (should stay 1 under unitary evolution).
  double norm_squared() const;

  /// ⟨this|other⟩.
  Complex inner_product(const StateVector& other) const;

  /// Debug rendering "(0.70+0.00i)|00⟩ + ...".
  std::string to_string() const;
};

}  // namespace qhdl::quantum
