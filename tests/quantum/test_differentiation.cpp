// Cross-validation of the three gradient methods: adjoint differentiation,
// parameter-shift rules, and central finite differences — over hand-built
// circuits and randomized property sweeps.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "quantum/adjoint_diff.hpp"
#include "quantum/parameter_shift.hpp"
#include "quantum/statevector_batch.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace qhdl::quantum {
namespace {

TEST(AdjointDiff, SingleRxAnalytic) {
  // E(θ) = ⟨Z⟩ after RX(θ) = cos θ; dE/dθ = -sin θ.
  Circuit c{1};
  c.parameterized_gate(GateType::RX, 0, 0);
  for (double theta : {-2.0, -0.3, 0.0, 0.9, 2.5}) {
    const std::vector<double> params{theta};
    const AdjointResult r =
        adjoint_gradient(c, params, Observable::pauli_z(0));
    EXPECT_NEAR(r.expectation, std::cos(theta), 1e-12);
    EXPECT_NEAR(r.gradient[0], -std::sin(theta), 1e-12);
  }
}

TEST(AdjointDiff, RyAnalytic) {
  Circuit c{1};
  c.parameterized_gate(GateType::RY, 0, 0);
  const std::vector<double> params{0.77};
  const AdjointResult r = adjoint_gradient(c, params, Observable::pauli_z(0));
  EXPECT_NEAR(r.gradient[0], -std::sin(0.77), 1e-12);
}

TEST(AdjointDiff, SharedParameterAccumulates) {
  // RX(θ)RX(θ) = RX(2θ): dE/dθ = -2 sin(2θ).
  Circuit c{1};
  c.parameterized_gate(GateType::RX, 0, 0);
  c.parameterized_gate(GateType::RX, 0, 0);
  const std::vector<double> params{0.6};
  const AdjointResult r = adjoint_gradient(c, params, Observable::pauli_z(0));
  EXPECT_NEAR(r.gradient[0], -2.0 * std::sin(1.2), 1e-12);
}

TEST(AdjointDiff, EntangledCircuitMatchesNumerical) {
  Circuit c{2};
  c.parameterized_gate(GateType::RY, 0, 0);
  c.gate(GateType::CNOT, 0, 1);
  c.parameterized_gate(GateType::RX, 1, 1);
  const std::vector<double> params{0.8, -1.3};
  const Observable obs = Observable::pauli_z(1);
  const AdjointResult r = adjoint_gradient(c, params, obs);
  const auto numeric = testing::numerical_circuit_gradient(c, params, obs);
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_NEAR(r.gradient[i], numeric[i], 1e-8);
  }
}

TEST(ParameterShift, MatchesAnalyticSingleGate) {
  Circuit c{1};
  c.parameterized_gate(GateType::RX, 0, 0);
  const std::vector<double> params{1.1};
  const auto grad =
      parameter_shift_gradient(c, params, Observable::pauli_z(0));
  EXPECT_NEAR(grad[0], -std::sin(1.1), 1e-12);
}

TEST(ParameterShift, EvaluationCountRules) {
  Circuit c{2};
  c.parameterized_gate(GateType::RX, 0, 0);       // 2 evals
  c.parameterized_gate(GateType::CRY, 1, 0, 1);   // 4 evals
  c.gate(GateType::CNOT, 0, 1);                   // 0 evals
  c.parameterized_gate(GateType::PhaseShift, 2, 1);  // 2 evals
  EXPECT_EQ(parameter_shift_evaluation_count(c), 8u);
}

TEST(ParameterShift, ShiftHelperBounds) {
  Circuit c{1};
  c.parameterized_gate(GateType::RX, 0, 0);
  const std::vector<double> params{0.5};
  const auto ignore = [](const Op&, std::span<const double>) {};
  // A lane whose row lies past the parameter rows.
  const ShiftLane past{1, 0, 0.1};
  EXPECT_THROW(for_each_lane_op(c, params, 1, {&past, 1}, ignore),
               std::out_of_range);
  // A shift rule fed the wrong number of shifted values.
  EXPECT_THROW(shift_rule_derivative(GateType::RX, params),
               std::invalid_argument);
  EXPECT_THROW(shift_rule_shifts(GateType::CNOT), std::logic_error);
  // A gradient buffer that is not rows * width * parameters.
  std::vector<double> gradient(2);
  EXPECT_THROW(shift_rule_rows(c, 1, 1,
                               [](std::span<const ShiftLane>,
                                  std::span<double>) {},
                               gradient),
               std::invalid_argument);
}

/// Property sweep: all three gradient methods agree on random circuits
/// covering RX/RY/RZ/PhaseShift/CRX/CRY/CRZ/CNOT/CZ.
struct RandomCircuitCase {
  std::size_t qubits;
  std::size_t ops;
  std::uint64_t seed;
};

class GradientAgreement : public ::testing::TestWithParam<RandomCircuitCase> {
};

TEST_P(GradientAgreement, AdjointVsShiftVsNumerical) {
  const RandomCircuitCase param = GetParam();
  util::Rng rng{param.seed};
  std::vector<double> params;
  const Circuit c =
      testing::random_circuit(param.qubits, param.ops, rng, params);

  // Random weighted-Z observable exercises the multi-term path.
  std::vector<double> weights;
  std::vector<std::size_t> wires;
  for (std::size_t w = 0; w < param.qubits; ++w) {
    weights.push_back(rng.uniform(-1.0, 1.0));
    wires.push_back(w);
  }
  const Observable obs = Observable::weighted_z_sum(weights, wires);

  const AdjointResult adjoint = adjoint_gradient(c, params, obs);
  const auto shift = parameter_shift_gradient(c, params, obs);
  const auto numeric = testing::numerical_circuit_gradient(c, params, obs);

  ASSERT_EQ(adjoint.gradient.size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_NEAR(adjoint.gradient[i], shift[i], 1e-10)
        << "param " << i << " adjoint vs shift";
    EXPECT_NEAR(adjoint.gradient[i], numeric[i], 1e-7)
        << "param " << i << " adjoint vs numerical";
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomCircuits, GradientAgreement,
    ::testing::Values(RandomCircuitCase{1, 4, 101},
                      RandomCircuitCase{2, 6, 102},
                      RandomCircuitCase{2, 10, 103},
                      RandomCircuitCase{3, 8, 104},
                      RandomCircuitCase{3, 14, 105},
                      RandomCircuitCase{4, 12, 106},
                      RandomCircuitCase{4, 20, 107},
                      RandomCircuitCase{5, 16, 108}));

TEST(AdjointVjp, MatchesWeightedJacobianContraction) {
  util::Rng rng{55};
  std::vector<double> params;
  const Circuit c = testing::random_circuit(3, 10, rng, params);

  std::vector<Observable> observables;
  for (std::size_t w = 0; w < 3; ++w) {
    observables.push_back(Observable::pauli_z(w));
  }
  const std::vector<double> upstream{0.3, -1.1, 0.5};

  const AdjointVjpResult vjp = adjoint_vjp(c, params, observables, upstream);
  const auto jacobian = adjoint_jacobian(c, params, observables);

  for (std::size_t j = 0; j < params.size(); ++j) {
    double expected = 0.0;
    for (std::size_t k = 0; k < observables.size(); ++k) {
      expected += upstream[k] * jacobian[k][j];
    }
    EXPECT_NEAR(vjp.gradient[j], expected, 1e-10);
  }
  // Expectations from the VJP match direct evaluation.
  const StateVector psi = c.execute(params);
  for (std::size_t k = 0; k < observables.size(); ++k) {
    EXPECT_NEAR(vjp.expectations[k], observables[k].expectation(psi), 1e-12);
  }
}

TEST(AdjointVjp, ZeroUpstreamGivesZeroGradient) {
  util::Rng rng{56};
  std::vector<double> params;
  const Circuit c = testing::random_circuit(2, 6, rng, params);
  const std::vector<Observable> observables{Observable::pauli_z(0)};
  const std::vector<double> upstream{0.0};
  const AdjointVjpResult vjp = adjoint_vjp(c, params, observables, upstream);
  for (double g : vjp.gradient) EXPECT_DOUBLE_EQ(g, 0.0);
}

TEST(AdjointVjp, SizeMismatchThrows) {
  Circuit c{1};
  c.parameterized_gate(GateType::RX, 0, 0);
  const std::vector<double> params{0.1};
  const std::vector<Observable> observables{Observable::pauli_z(0)};
  const std::vector<double> upstream{1.0, 2.0};
  EXPECT_THROW(adjoint_vjp(c, params, observables, upstream),
               std::invalid_argument);
}

TEST(AdjointDiff, GradientOfCircuitWithOnlyFixedGatesIsEmpty) {
  Circuit c{2};
  c.gate(GateType::Hadamard, 0).gate(GateType::CNOT, 0, 1);
  const AdjointResult r = adjoint_gradient(c, std::vector<double>{},
                                           Observable::pauli_z(0));
  EXPECT_TRUE(r.gradient.empty());
  EXPECT_NEAR(r.expectation, 0.0, 1e-12);
}

TEST(AdjointDiff, DiagonalExpectationsBatchMatchesTheScalarLoopBitwise) {
  // The i/b/k loop the batched expectations were first written as: out
  // starts at 0.0 and each out[b, k] adds diag[k][i] * |a_ib|^2 in
  // ascending i. Batch 40 crosses the kernel's 32-lane chunk.
  util::Rng rng{2611};
  for (const std::size_t batch : {1, 3, 8, 16, 40}) {
    for (std::size_t qubits = 1; qubits <= 5; ++qubits) {
      StateVectorBatch state{qubits, batch};
      for (Complex& amp : state.amplitudes()) {
        amp = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
      }
      for (std::size_t obs_count = 1; obs_count <= qubits; ++obs_count) {
        std::vector<std::vector<double>> diagonals;
        for (std::size_t k = 0; k < obs_count; ++k) {
          diagonals.push_back(
              rng.uniform_vector(state.dimension(), -1.0, 1.0));
        }
        std::vector<double> expected(batch * obs_count, 0.0);
        const auto amps = state.amplitudes();
        for (std::size_t i = 0; i < state.dimension(); ++i) {
          for (std::size_t b = 0; b < batch; ++b) {
            const double p = std::norm(amps[i * batch + b]);
            for (std::size_t k = 0; k < obs_count; ++k) {
              expected[b * obs_count + k] += diagonals[k][i] * p;
            }
          }
        }
        std::vector<double> out(batch * obs_count, -1.0);
        diagonal_expectations_batch(state, diagonals, out);
        for (std::size_t e = 0; e < out.size(); ++e) {
          EXPECT_EQ(out[e], expected[e])
              << "batch " << batch << " q " << qubits << " obs "
              << obs_count << " entry " << e;
        }
      }
    }
  }
}

}  // namespace
}  // namespace qhdl::quantum
