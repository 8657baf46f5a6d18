#include "quantum/statevector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "quantum/gates.hpp"
#include "quantum/observable.hpp"
#include "quantum/statevector_batch.hpp"
#include "util/rng.hpp"

namespace qhdl::quantum {
namespace {

constexpr double kTol = 1e-12;

TEST(StateVector, InitializesToGroundState) {
  const StateVector state{3};
  EXPECT_EQ(state.num_qubits(), 3u);
  EXPECT_EQ(state.dimension(), 8u);
  EXPECT_NEAR(std::abs(state.amplitudes()[0] - Complex{1.0, 0.0}), 0.0, kTol);
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_NEAR(std::abs(state.amplitudes()[i]), 0.0, kTol);
  }
}

TEST(StateVector, RejectsBadQubitCounts) {
  EXPECT_THROW(StateVector{0}, std::invalid_argument);
  EXPECT_THROW(StateVector{64}, std::invalid_argument);
}

TEST(StateVector, ExplicitAmplitudesValidated) {
  EXPECT_NO_THROW(StateVector(std::vector<Complex>(4, Complex{0.5, 0.0})));
  EXPECT_THROW(StateVector(std::vector<Complex>(3)), std::invalid_argument);
  EXPECT_THROW(StateVector(std::vector<Complex>(1)), std::invalid_argument);
}

TEST(StateVector, SetBasisState) {
  StateVector state{2};
  state.set_basis_state(2);  // |10⟩
  EXPECT_NEAR(state.probability(2), 1.0, kTol);
  EXPECT_NEAR(state.probability(0), 0.0, kTol);
  EXPECT_THROW(state.set_basis_state(4), std::out_of_range);
}

TEST(StateVector, PauliXFlipsWireZeroMsb) {
  // Wire 0 is the most significant bit (PennyLane convention).
  StateVector state{2};
  state.apply_single_qubit(gates::pauli_x(), 0);
  EXPECT_NEAR(state.probability(0b10), 1.0, kTol);
}

TEST(StateVector, PauliXFlipsWireOneLsb) {
  StateVector state{2};
  state.apply_single_qubit(gates::pauli_x(), 1);
  EXPECT_NEAR(state.probability(0b01), 1.0, kTol);
}

TEST(StateVector, HadamardCreatesUniformSuperposition) {
  StateVector state{1};
  state.apply_single_qubit(gates::hadamard(), 0);
  EXPECT_NEAR(state.probability(0), 0.5, kTol);
  EXPECT_NEAR(state.probability(1), 0.5, kTol);
}

TEST(StateVector, BellStateViaHadamardCnot) {
  StateVector state{2};
  state.apply_single_qubit(gates::hadamard(), 0);
  state.apply_cnot(0, 1);
  EXPECT_NEAR(state.probability(0b00), 0.5, kTol);
  EXPECT_NEAR(state.probability(0b11), 0.5, kTol);
  EXPECT_NEAR(state.probability(0b01), 0.0, kTol);
  EXPECT_NEAR(state.probability(0b10), 0.0, kTol);
}

TEST(StateVector, CnotControlZeroIsIdentity) {
  StateVector state{2};  // |00⟩, control = wire 0 = 0
  state.apply_cnot(0, 1);
  EXPECT_NEAR(state.probability(0), 1.0, kTol);
}

TEST(StateVector, CnotValidatesWires) {
  StateVector state{2};
  EXPECT_THROW(state.apply_cnot(0, 0), std::invalid_argument);
  EXPECT_THROW(state.apply_cnot(0, 5), std::out_of_range);
}

TEST(StateVector, CzAppliesPhaseOn11) {
  StateVector state{2};
  state.apply_single_qubit(gates::pauli_x(), 0);
  state.apply_single_qubit(gates::pauli_x(), 1);  // |11⟩
  state.apply_cz(0, 1);
  EXPECT_NEAR(std::abs(state.amplitudes()[3] - Complex{-1.0, 0.0}), 0.0,
              kTol);
}

TEST(StateVector, SwapExchangesWires) {
  StateVector state{2};
  state.apply_single_qubit(gates::pauli_x(), 1);  // |01⟩
  state.apply_swap(0, 1);                          // -> |10⟩
  EXPECT_NEAR(state.probability(0b10), 1.0, kTol);
}

TEST(StateVector, SwapSameWireIsNoOp) {
  StateVector state{2};
  state.apply_single_qubit(gates::hadamard(), 0);
  const auto before = std::vector<Complex>(state.amplitudes().begin(),
                                           state.amplitudes().end());
  state.apply_swap(1, 1);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(std::abs(state.amplitudes()[i] - before[i]), 0.0, kTol);
  }
}

TEST(StateVector, ExpvalZSigns) {
  StateVector state{2};
  EXPECT_NEAR(state.expval_pauli_z(0), 1.0, kTol);   // |0⟩ -> +1
  state.apply_single_qubit(gates::pauli_x(), 0);
  EXPECT_NEAR(state.expval_pauli_z(0), -1.0, kTol);  // |1⟩ -> -1
  EXPECT_NEAR(state.expval_pauli_z(1), 1.0, kTol);   // other wire unaffected
}

TEST(StateVector, ExpvalZOfSuperpositionIsZero) {
  StateVector state{1};
  state.apply_single_qubit(gates::hadamard(), 0);
  EXPECT_NEAR(state.expval_pauli_z(0), 0.0, kTol);
}

TEST(StateVector, RotationPreservesNorm) {
  StateVector state{3};
  state.apply_single_qubit(gates::rx(0.7), 0);
  state.apply_single_qubit(gates::ry(1.3), 1);
  state.apply_single_qubit(gates::rz(-2.1), 2);
  state.apply_cnot(0, 2);
  EXPECT_NEAR(state.norm_squared(), 1.0, kTol);
}

TEST(StateVector, RxRotatesExpvalZAsCosine) {
  // ⟨Z⟩ after RX(θ)|0⟩ = cos(θ).
  for (double theta : {0.0, 0.3, 1.1, std::numbers::pi / 2, 2.7}) {
    StateVector state{1};
    state.apply_single_qubit(gates::rx(theta), 0);
    EXPECT_NEAR(state.expval_pauli_z(0), std::cos(theta), kTol)
        << "theta=" << theta;
  }
}

TEST(StateVector, InnerProductAndScale) {
  StateVector a{1};
  StateVector b{1};
  b.apply_single_qubit(gates::hadamard(), 0);
  const Complex ip = a.inner_product(b);  // ⟨0|+⟩ = 1/√2
  EXPECT_NEAR(ip.real(), 1.0 / std::numbers::sqrt2, kTol);
  EXPECT_NEAR(ip.imag(), 0.0, kTol);

  b.scale(Complex{2.0, 0.0});
  EXPECT_NEAR(b.norm_squared(), 4.0, kTol);
}

TEST(StateVector, InnerProductDimensionMismatchThrows) {
  const StateVector a{1};
  const StateVector b{2};
  EXPECT_THROW(a.inner_product(b), std::invalid_argument);
}

TEST(StateVector, ControlledDerivativeZeroesControlZeroSubspace) {
  StateVector state{2};
  state.apply_single_qubit(gates::hadamard(), 0);  // (|0⟩+|1⟩)/√2 ⊗ |0⟩
  state.apply_controlled_derivative(gates::rx_derivative(0.4), 0, 1);
  // Control-0 amplitudes must be exactly zero.
  EXPECT_NEAR(std::abs(state.amplitudes()[0b00]), 0.0, kTol);
  EXPECT_NEAR(std::abs(state.amplitudes()[0b01]), 0.0, kTol);
}

TEST(StateVector, ExpvalZEqualsObservableExpectationBitwise) {
  // One reduction canon: ⟨Z_w⟩ is the sequential ascending-index sum that
  // Observable::expectation runs too, under whichever backend is active.
  util::Rng rng{2030};
  for (std::size_t qubits = 3; qubits <= 7; ++qubits) {
    StateVector state{qubits};
    for (std::size_t w = 0; w < qubits; ++w) {
      state.apply_single_qubit(gates::hadamard(), w);
      state.apply_single_qubit(gates::ry(rng.uniform(-3.0, 3.0)), w);
      state.apply_single_qubit(gates::rz(rng.uniform(-3.0, 3.0)), w);
    }
    for (std::size_t w = 0; w + 1 < qubits; ++w) state.apply_cnot(w, w + 1);
    for (std::size_t w = 0; w < qubits; ++w) {
      EXPECT_EQ(state.expval_pauli_z(w),
                Observable::pauli_z(w).expectation(state))
          << "q=" << qubits << " w=" << w;
    }
  }
}

TEST(StateVector, ProbabilitiesSumToOne) {
  StateVector state{3};
  state.apply_single_qubit(gates::hadamard(), 0);
  state.apply_single_qubit(gates::ry(0.9), 1);
  state.apply_cnot(0, 2);
  const auto probs = state.probabilities();
  double total = 0.0;
  for (double p : probs) total += p;
  EXPECT_NEAR(total, 1.0, kTol);
}

TEST(StateVector, ToStringShowsBasisKets) {
  StateVector state{2};
  state.apply_single_qubit(gates::pauli_x(), 1);
  EXPECT_NE(state.to_string().find("|01⟩"), std::string::npos);
}

TEST(StateVectorBatch, PerRowMatrixSpanSizeIsChecked) {
  // The per-row 2x2 reads exactly 4 * batch() SoA entries; any other span
  // size is rejected with the size named, before a kernel runs.
  StateVectorBatch batch{2, 3};
  for (const std::size_t size : {11u, 13u, 0u}) {
    const std::vector<Complex> m(size, Complex{1.0, 0.0});
    try {
      batch.apply_single_qubit_per_row(m, 0);
      FAIL() << "span size " << size << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("size " + std::to_string(size)),
                std::string::npos)
          << e.what();
    }
  }
  for (const Complex& a : batch.amplitudes().subspan(3)) {
    EXPECT_EQ(a, Complex{});
  }
  const Mat2 identity{Complex{1.0, 0.0}, {}, {}, Complex{1.0, 0.0}};
  std::vector<Complex> m(12);
  for (std::size_t b = 0; b < 3; ++b) store_lane(identity, m.data(), 3, b);
  EXPECT_NO_THROW(batch.apply_single_qubit_per_row(m, 1));
}

TEST(Mat2, UnitaryCheck) {
  EXPECT_TRUE(gates::hadamard().is_unitary());
  EXPECT_TRUE(gates::rx(0.37).is_unitary());
  const Mat2 not_unitary{Complex{2, 0}, Complex{0, 0}, Complex{0, 0},
                         Complex{1, 0}};
  EXPECT_FALSE(not_unitary.is_unitary());
}

TEST(Mat2, DaggerAndProduct) {
  const Mat2 s = gates::s();
  const Mat2 identity = s * s.dagger();
  EXPECT_NEAR(std::abs(identity.m00 - Complex{1, 0}), 0.0, kTol);
  EXPECT_NEAR(std::abs(identity.m11 - Complex{1, 0}), 0.0, kTol);
  EXPECT_NEAR(std::abs(identity.m01), 0.0, kTol);
}

}  // namespace
}  // namespace qhdl::quantum
