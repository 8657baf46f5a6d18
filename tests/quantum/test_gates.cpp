#include "quantum/gates.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

namespace qhdl::quantum {
namespace {

constexpr double kTol = 1e-12;

TEST(GateMeta, ArityAndFlags) {
  EXPECT_EQ(gate_arity(GateType::RX), 1u);
  EXPECT_EQ(gate_arity(GateType::CNOT), 2u);
  EXPECT_EQ(gate_arity(GateType::CRZ), 2u);
  EXPECT_TRUE(gate_is_parameterized(GateType::RY));
  EXPECT_TRUE(gate_is_parameterized(GateType::CRX));
  EXPECT_FALSE(gate_is_parameterized(GateType::Hadamard));
  EXPECT_TRUE(gate_is_controlled(GateType::CNOT));
  EXPECT_FALSE(gate_is_controlled(GateType::SWAP));
  EXPECT_EQ(gate_name(GateType::PhaseShift), "PhaseShift");
}

/// All parameterized single-qubit matrices must be unitary at any angle.
class RotationUnitarity
    : public ::testing::TestWithParam<std::tuple<GateType, double>> {};

TEST_P(RotationUnitarity, MatrixIsUnitary) {
  const auto [gate, theta] = GetParam();
  EXPECT_TRUE(gates::matrix_for(gate, theta).is_unitary())
      << gate_name(gate) << "(" << theta << ")";
}

INSTANTIATE_TEST_SUITE_P(
    AnglesAndGates, RotationUnitarity,
    ::testing::Combine(::testing::Values(GateType::RX, GateType::RY,
                                         GateType::RZ, GateType::PhaseShift),
                       ::testing::Values(-3.0, -0.5, 0.0, 0.37, 1.0,
                                         std::numbers::pi, 6.0)));

/// Fixed gates are unitary.
class FixedUnitarity : public ::testing::TestWithParam<GateType> {};

TEST_P(FixedUnitarity, MatrixIsUnitary) {
  EXPECT_TRUE(gates::matrix_for(GetParam(), 0.0).is_unitary());
}

INSTANTIATE_TEST_SUITE_P(FixedGates, FixedUnitarity,
                         ::testing::Values(GateType::PauliX, GateType::PauliY,
                                           GateType::PauliZ,
                                           GateType::Hadamard, GateType::S,
                                           GateType::T));

TEST(GateMatrices, RotationsAtZeroAreIdentity) {
  for (GateType g : {GateType::RX, GateType::RY, GateType::RZ,
                     GateType::PhaseShift}) {
    const Mat2 m = gates::matrix_for(g, 0.0);
    EXPECT_NEAR(std::abs(m.m00 - Complex{1, 0}), 0.0, kTol) << gate_name(g);
    EXPECT_NEAR(std::abs(m.m11 - Complex{1, 0}), 0.0, kTol) << gate_name(g);
    EXPECT_NEAR(std::abs(m.m01), 0.0, kTol) << gate_name(g);
    EXPECT_NEAR(std::abs(m.m10), 0.0, kTol) << gate_name(g);
  }
}

TEST(GateMatrices, RxAtPiIsMinusIX) {
  const Mat2 m = gates::rx(std::numbers::pi);
  EXPECT_NEAR(std::abs(m.m01 - Complex{0, -1}), 0.0, kTol);
  EXPECT_NEAR(std::abs(m.m10 - Complex{0, -1}), 0.0, kTol);
  EXPECT_NEAR(std::abs(m.m00), 0.0, kTol);
}

TEST(GateMatrices, SSquaredIsZ) {
  const Mat2 z = gates::s() * gates::s();
  EXPECT_NEAR(std::abs(z.m11 - Complex{-1, 0}), 0.0, kTol);
}

TEST(GateMatrices, TSquaredIsS) {
  const Mat2 s2 = gates::t() * gates::t();
  EXPECT_NEAR(std::abs(s2.m11 - gates::s().m11), 0.0, kTol);
}

/// Closed-form trig entries of a rotation and its derivative, from
/// h_c = cos(θ/2), h_s = sin(θ/2), f_c = cos θ and f_s = sin θ. Per-row and
/// shared dispatch both take their matrices from gates::, so these bits
/// are what a batch row and its one-row call agree on.
struct TrigEntries {
  Mat2 gate;
  Mat2 derivative;
};

TrigEntries closed_form(GateType type, double h_c, double h_s, double f_c,
                        double f_s) {
  const Complex zero{0.0, 0.0};
  switch (type) {
    case GateType::RX:
      return {{Complex{h_c, 0.0}, Complex{0.0, -h_s}, Complex{0.0, -h_s},
               Complex{h_c, 0.0}},
              {Complex{-0.5 * h_s, 0.0}, Complex{0.0, -0.5 * h_c},
               Complex{0.0, -0.5 * h_c}, Complex{-0.5 * h_s, 0.0}}};
    case GateType::RY:
      return {{Complex{h_c, 0.0}, Complex{-h_s, 0.0}, Complex{h_s, 0.0},
               Complex{h_c, 0.0}},
              {Complex{-0.5 * h_s, 0.0}, Complex{-0.5 * h_c, 0.0},
               Complex{0.5 * h_c, 0.0}, Complex{-0.5 * h_s, 0.0}}};
    case GateType::RZ:
      return {{Complex{h_c, -h_s}, zero, zero, Complex{h_c, h_s}},
              {Complex{-0.5 * h_s, -0.5 * h_c}, zero, zero,
               Complex{-0.5 * h_s, 0.5 * h_c}}};
    default:  // PhaseShift
      return {{Complex{1.0, 0.0}, zero, zero, Complex{f_c, f_s}},
              {zero, zero, zero, Complex{0.0, 1.0} * Complex{f_c, f_s}}};
  }
}

bool same_bits(const Mat2& a, const Mat2& b) {
  return std::memcmp(&a, &b, sizeof(Mat2)) == 0;
}

TEST(GateMatrices, RotationEntriesEqualClosedFormTrigBitwise) {
  // memcmp, so signed zeros count. The angle at -θ is checked against the
  // trig of +θ with sin negated, which also pins libm's sin(-x) == -sin(x)
  // and cos(-x) == cos(x) bitwise: the inverse gate is the gate at -θ.
  std::vector<double> angles = {0.0,   -0.0,   std::numbers::pi,
                                1e-300, 1e3,   -0.37,
                                -2.5,   -6.0,  5e-324};
  // Encoding angles: standardized spiral features and the dense outputs
  // fed to the encodings stay well inside ±8.
  for (int k = -600; k <= 600; ++k) angles.push_back(0.0137 * k);
  for (const GateType type : {GateType::RX, GateType::RY, GateType::RZ,
                              GateType::PhaseShift}) {
    for (const double theta : angles) {
      const double h_c = std::cos(theta / 2.0);
      const double h_s = std::sin(theta / 2.0);
      const double f_c = std::cos(theta);
      const double f_s = std::sin(theta);
      const TrigEntries plus = closed_form(type, h_c, h_s, f_c, f_s);
      const TrigEntries minus = closed_form(type, h_c, -h_s, f_c, -f_s);
      EXPECT_TRUE(same_bits(gates::matrix_for(type, theta), plus.gate))
          << gate_name(type) << "(" << theta << ")";
      EXPECT_TRUE(
          same_bits(gates::derivative_for(type, theta), plus.derivative))
          << gate_name(type) << "'(" << theta << ")";
      EXPECT_TRUE(same_bits(gates::matrix_for(type, -theta), minus.gate))
          << gate_name(type) << "(-" << theta << ")";
      EXPECT_TRUE(
          same_bits(gates::derivative_for(type, -theta), minus.derivative))
          << gate_name(type) << "'(-" << theta << ")";
    }
  }
}

/// Derivative matrices match finite differences of the gate matrices.
class DerivativeCheck
    : public ::testing::TestWithParam<std::tuple<GateType, double>> {};

TEST_P(DerivativeCheck, MatchesFiniteDifference) {
  const auto [gate, theta] = GetParam();
  const double eps = 1e-7;
  const Mat2 plus = gates::matrix_for(gate, theta + eps);
  const Mat2 minus = gates::matrix_for(gate, theta - eps);
  const Mat2 derivative = gates::derivative_for(gate, theta);

  const auto check = [&](Complex analytic, Complex p, Complex m,
                         const char* entry) {
    const Complex numeric = (p - m) / (2.0 * eps);
    EXPECT_NEAR(std::abs(analytic - numeric), 0.0, 1e-7)
        << gate_name(gate) << " " << entry << " at theta=" << theta;
  };
  check(derivative.m00, plus.m00, minus.m00, "m00");
  check(derivative.m01, plus.m01, minus.m01, "m01");
  check(derivative.m10, plus.m10, minus.m10, "m10");
  check(derivative.m11, plus.m11, minus.m11, "m11");
}

INSTANTIATE_TEST_SUITE_P(
    Rotations, DerivativeCheck,
    ::testing::Combine(::testing::Values(GateType::RX, GateType::RY,
                                         GateType::RZ, GateType::PhaseShift),
                       ::testing::Values(-1.2, 0.0, 0.7, 2.9)));

TEST(GateMatrices, DerivativeForFixedGateThrows) {
  EXPECT_THROW(gates::derivative_for(GateType::Hadamard, 0.0),
               std::invalid_argument);
}

TEST(GateMatrices, MatrixForCnotThrows) {
  EXPECT_THROW(gates::matrix_for(GateType::CNOT, 0.0), std::invalid_argument);
}

/// apply_gate followed by apply_gate_inverse restores the state for every
/// gate type.
class InverseRoundTrip : public ::testing::TestWithParam<GateType> {};

TEST_P(InverseRoundTrip, RestoresState) {
  const GateType gate = GetParam();
  StateVector state{3};
  // Prepare a non-trivial state.
  state.apply_single_qubit(gates::hadamard(), 0);
  state.apply_single_qubit(gates::ry(0.8), 1);
  state.apply_single_qubit(gates::rx(1.4), 2);
  state.apply_cnot(0, 1);
  const std::vector<Complex> before(state.amplitudes().begin(),
                                    state.amplitudes().end());

  const double theta = 0.9137;
  const std::size_t wire1 = gate_arity(gate) == 2 ? 2 : SIZE_MAX;
  apply_gate(state, gate, theta, 0, wire1);
  apply_gate_inverse(state, gate, theta, 0, wire1);

  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(std::abs(state.amplitudes()[i] - before[i]), 0.0, 1e-12)
        << gate_name(gate) << " amplitude " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGates, InverseRoundTrip,
    ::testing::Values(GateType::PauliX, GateType::PauliY, GateType::PauliZ,
                      GateType::Hadamard, GateType::S, GateType::T,
                      GateType::RX, GateType::RY, GateType::RZ,
                      GateType::PhaseShift, GateType::CNOT, GateType::CZ,
                      GateType::SWAP, GateType::CRX, GateType::CRY,
                      GateType::CRZ, GateType::RXX, GateType::RYY,
                      GateType::RZZ));

TEST(ApplyGate, TwoQubitGateWithoutSecondWireThrows) {
  StateVector state{2};
  EXPECT_THROW(apply_gate(state, GateType::CNOT, 0.0, 0),
               std::invalid_argument);
}

TEST(ApplyGate, DerivativeOfFixedGateThrows) {
  StateVector state{2};
  EXPECT_THROW(apply_gate_derivative(state, GateType::CNOT, 0.0, 0, 1),
               std::invalid_argument);
}

TEST(ApplyGate, ControlledRotationActsOnlyOnControlOne) {
  // CRX on |00⟩ does nothing; on |10⟩ rotates the target.
  StateVector state{2};
  apply_gate(state, GateType::CRX, 1.1, 0, 1);
  EXPECT_NEAR(state.probability(0b00), 1.0, kTol);

  StateVector excited{2};
  excited.apply_single_qubit(gates::pauli_x(), 0);
  apply_gate(excited, GateType::CRX, 1.1, 0, 1);
  EXPECT_NEAR(excited.probability(0b10), std::cos(0.55) * std::cos(0.55),
              1e-12);
  EXPECT_NEAR(excited.probability(0b11), std::sin(0.55) * std::sin(0.55),
              1e-12);
}

}  // namespace
}  // namespace qhdl::quantum
