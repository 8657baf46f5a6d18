#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "quantum/adjoint_diff.hpp"
#include "quantum/channels.hpp"
#include "quantum/parameter_shift.hpp"
#include "quantum/sampling.hpp"
#include "test_helpers.hpp"

namespace qhdl::quantum {
namespace {

constexpr double kTol = 1e-12;

TEST(IsingGates, RzzAppliesParityPhases) {
  // On |+⟩⊗|+⟩, RZZ(θ) creates entanglement detectable via ⟨X⊗X⟩... here we
  // just check the basis phases directly.
  StateVector state{2};
  state.apply_single_qubit(gates::hadamard(), 0);
  state.apply_single_qubit(gates::hadamard(), 1);
  const double theta = 0.8;
  apply_gate(state, GateType::RZZ, theta, 0, 1);
  const auto amps = state.amplitudes();
  // Even parity (00, 11): phase e^{-iθ/2}; odd (01, 10): e^{+iθ/2}.
  EXPECT_NEAR(std::arg(amps[0b00]), -theta / 2.0, kTol);
  EXPECT_NEAR(std::arg(amps[0b11]), -theta / 2.0, kTol);
  EXPECT_NEAR(std::arg(amps[0b01]), theta / 2.0, kTol);
  EXPECT_NEAR(std::arg(amps[0b10]), theta / 2.0, kTol);
}

TEST(IsingGates, RxxOnGroundStateRotatesTo11) {
  StateVector state{2};
  apply_gate(state, GateType::RXX, 1.1, 0, 1);
  EXPECT_NEAR(state.probability(0b00), std::cos(0.55) * std::cos(0.55),
              kTol);
  EXPECT_NEAR(state.probability(0b11), std::sin(0.55) * std::sin(0.55),
              kTol);
  EXPECT_NEAR(state.probability(0b01), 0.0, kTol);
}

TEST(IsingGates, RyyMatchesRxxOnGroundStateProbabilities) {
  // On |00⟩ both RXX and RYY produce cos|00⟩ ± i sin|11⟩ — same probs.
  StateVector xx{2}, yy{2};
  apply_gate(xx, GateType::RXX, 0.9, 0, 1);
  apply_gate(yy, GateType::RYY, 0.9, 0, 1);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(xx.probability(i), yy.probability(i), kTol);
  }
  // But with opposite relative phase on |11⟩.
  EXPECT_NEAR(std::abs(xx.amplitudes()[3] + yy.amplitudes()[3]), 0.0, kTol);
}

TEST(IsingGates, PreserveNorm) {
  util::Rng rng{3};
  StateVector state{3};
  state.apply_single_qubit(gates::hadamard(), 0);
  state.apply_single_qubit(gates::ry(0.7), 1);
  apply_gate(state, GateType::RXX, rng.uniform(-3, 3), 0, 1);
  apply_gate(state, GateType::RYY, rng.uniform(-3, 3), 1, 2);
  apply_gate(state, GateType::RZZ, rng.uniform(-3, 3), 0, 2);
  EXPECT_NEAR(state.norm_squared(), 1.0, 1e-12);
}

TEST(IsingGates, GradientsAgreeAcrossMethods) {
  // Circuit mixing Ising gates with singles; adjoint vs shift vs numeric.
  Circuit c{3};
  c.parameterized_gate(GateType::RY, 0, 0);
  c.parameterized_gate(GateType::RXX, 1, 0, 1);
  c.parameterized_gate(GateType::RZZ, 2, 1, 2);
  c.parameterized_gate(GateType::RYY, 3, 0, 2);
  const std::vector<double> params{0.7, -0.9, 1.3, 0.4};
  const Observable obs = Observable::pauli_z(2);

  const AdjointResult adjoint = adjoint_gradient(c, params, obs);
  const auto shift = parameter_shift_gradient(c, params, obs);
  const auto numeric = testing::numerical_circuit_gradient(c, params, obs);
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_NEAR(adjoint.gradient[i], shift[i], 1e-10) << i;
    EXPECT_NEAR(adjoint.gradient[i], numeric[i], 1e-7) << i;
  }
}

TEST(IsingGates, DensityMatrixMatchesStatevector) {
  Circuit c{2};
  c.parameterized_gate(GateType::RY, 0, 0);
  c.parameterized_gate(GateType::RXX, 1, 0, 1);
  c.parameterized_gate(GateType::RZZ, 2, 0, 1);
  const std::vector<double> params{0.6, 1.2, -0.5};

  const StateVector psi = c.execute(params);
  const auto noiseless = noisy_expvals(c, params, NoiseModel::noiseless(),
                                       std::vector<std::size_t>{0, 1});
  EXPECT_NEAR(noiseless[0], psi.expval_pauli_z(0), 1e-11);
  EXPECT_NEAR(noiseless[1], psi.expval_pauli_z(1), 1e-11);
}

TEST(IsingGates, NoisyParameterShiftMatchesFiniteDifference) {
  Circuit c{2};
  c.parameterized_gate(GateType::RY, 0, 0);
  c.parameterized_gate(GateType::RZZ, 1, 0, 1);
  std::vector<double> params{0.8, -0.6};
  const NoiseModel noise = NoiseModel::depolarizing(0.04);
  const auto analytic =
      noisy_parameter_shift_vjp(c, params, noise, std::vector<std::size_t>{1},
                                std::vector<double>{1.0})
          .gradient;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const double eps = 1e-6;
    const double saved = params[i];
    params[i] = saved + eps;
    const double plus =
        noisy_expvals(c, params, noise, std::vector<std::size_t>{1})[0];
    params[i] = saved - eps;
    const double minus =
        noisy_expvals(c, params, noise, std::vector<std::size_t>{1})[0];
    params[i] = saved;
    EXPECT_NEAR(analytic[i], (plus - minus) / (2 * eps), 1e-7) << i;
  }
}

TEST(Sampling, DeterministicStateGivesDeterministicSamples) {
  StateVector state{2};  // |00⟩
  util::Rng rng{1};
  const auto outcomes = sample_basis_states(state, 100, rng);
  for (std::size_t outcome : outcomes) EXPECT_EQ(outcome, 0u);
  EXPECT_THROW(sample_basis_states(state, 0, rng), std::invalid_argument);
}

TEST(Sampling, CountsFollowBornRule) {
  StateVector state{1};
  state.apply_single_qubit(gates::ry(2.0 * std::acos(std::sqrt(0.3))), 0);
  // P(0) should be 0.3.
  util::Rng rng{2};
  const auto counts = sample_counts(state, 20000, rng);
  const double p0 =
      static_cast<double>(counts.count(0) ? counts.at(0) : 0) / 20000.0;
  EXPECT_NEAR(p0, 0.3, 0.02);
}

TEST(Sampling, ExpvalEstimateConvergesAsInverseSqrtShots) {
  StateVector state{1};
  state.apply_single_qubit(gates::rx(0.9), 0);
  const double exact = state.expval_pauli_z(0);

  // Repeated estimates: empirical std dev shrinks roughly like 1/sqrt(shots).
  const auto stddev_of = [&](std::size_t shots, std::uint64_t seed) {
    util::Rng rng{seed};
    double sum = 0.0, sum_sq = 0.0;
    const int reps = 60;
    for (int r = 0; r < reps; ++r) {
      const double e = estimate_expval_z(state, 0, shots, rng);
      sum += e;
      sum_sq += e * e;
    }
    const double mean = sum / reps;
    EXPECT_NEAR(mean, exact, 0.1);
    return std::sqrt(sum_sq / reps - mean * mean);
  };
  const double sd_small = stddev_of(64, 3);
  const double sd_large = stddev_of(4096, 4);
  EXPECT_LT(sd_large, sd_small / 4.0);  // expect ~1/8, allow slack
}

TEST(Sampling, SharedShotsAcrossWires) {
  StateVector state{2};
  state.apply_single_qubit(gates::hadamard(), 0);
  state.apply_cnot(0, 1);  // Bell: wires perfectly correlated
  util::Rng rng{5};
  const std::vector<std::size_t> wires{0, 1};
  const auto estimates = estimate_expvals_z(state, wires, 5000, rng);
  EXPECT_NEAR(estimates[0], 0.0, 0.05);
  EXPECT_NEAR(estimates[1], 0.0, 0.05);
  EXPECT_THROW(
      estimate_expvals_z(state, std::vector<std::size_t>{7}, 10, rng),
      std::out_of_range);
}

TEST(Sampling, BasisSamplerCoversSupport) {
  StateVector state{2};
  state.apply_single_qubit(gates::hadamard(), 0);
  state.apply_single_qubit(gates::hadamard(), 1);
  const BasisSampler sampler{state};
  util::Rng rng{6};
  std::set<std::size_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(sampler.draw(rng));
  EXPECT_EQ(seen.size(), 4u);
}

}  // namespace
}  // namespace qhdl::quantum
