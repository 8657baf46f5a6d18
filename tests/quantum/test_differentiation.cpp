// Cross-validation of the three gradient methods: adjoint differentiation,
// parameter-shift rules, and central finite differences — over hand-built
// circuits and randomized property sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>

#include "quantum/adjoint_diff.hpp"
#include "quantum/exec_plan.hpp"
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


// --- the reverse sweep against its three-call form --------------------------

/// The reverse sweep as three separate gate calls per op, each evaluating its
/// own matrices from its own angles: U(−θ) on φ, dU/dθ on μ, U(−θ) again on
/// λ (the sweep now builds each op's matrices once and shares one cos/sin per
/// rotation angle). Written out against the StateVectorBatch kernels so it
/// shares no dispatch code with the library.
void three_call_apply(StateVectorBatch& s, GateType type,
                      std::span<const double> angles, std::size_t w0,
                      std::size_t w1, bool derivative) {
  if (!gate_is_parameterized(type)) {
    // The fixed ops of sweep_circuit: Hadamard (dense 2x2, its dagger) and
    // CNOT (its own inverse).
    if (type == GateType::CNOT) {
      s.apply_cnot(w0, w1);
    } else {
      s.apply_single_qubit(gates::matrix_for(type, 0.0).dagger(), w0);
    }
    return;
  }
  const std::size_t rows = angles.size();
  const auto mat = [&](std::size_t b) {
    return derivative ? gates::derivative_for(type, angles[b])
                      : gates::matrix_for(type, -angles[b]);
  };
  const auto pair = [&](std::size_t b) {
    return derivative ? gates::ising_pair_derivative(type, angles[b])
                      : gates::ising_pair(type, -angles[b]);
  };
  if (gate_arity(type) == 1) {
    if (rows == 1) {
      const Mat2 m = mat(0);
      if (type == GateType::RZ || type == GateType::PhaseShift) {
        s.apply_diagonal(m.m00, m.m11, w0);
      } else {
        s.apply_single_qubit(m, w0);
      }
      return;
    }
    std::vector<Complex> soa(4 * rows);
    for (std::size_t b = 0; b < rows; ++b) store_lane(mat(b), soa.data(), rows, b);
    s.apply_single_qubit_per_row(soa, w0);
    return;
  }
  if (gate_is_controlled(type)) {
    std::vector<Mat2> ms(rows);
    for (std::size_t b = 0; b < rows; ++b) ms[b] = mat(b);
    if (rows == 1 && derivative) {
      s.apply_controlled_derivative(ms[0], w0, w1);
    } else if (rows == 1) {
      s.apply_controlled(ms[0], w0, w1);
    } else if (derivative) {
      s.apply_controlled_derivative_per_row(ms, w0, w1);
    } else {
      s.apply_controlled_per_row(ms, w0, w1);
    }
    return;
  }
  std::vector<Mat2> even(rows), odd(rows);
  for (std::size_t b = 0; b < rows; ++b) {
    const gates::IsingPair p = pair(b);
    even[b] = p.even;
    odd[b] = p.odd;
  }
  if (rows == 1) {
    s.apply_double_flip_pairs(even[0], odd[0], w0, w1);
  } else {
    s.apply_double_flip_pairs_per_row(even, odd, w0, w1);
  }
}

/// adjoint_vjp_batch_diagonal's forward, seed and sweep with the sweep as
/// three_call_apply calls; returns the gradient (rows * parameters).
std::vector<double> three_call_vjp(const Circuit& circuit,
                                   std::span<const double> params,
                                   std::size_t rows,
                                   std::span<const std::vector<double>> diags,
                                   std::span<const double> upstream) {
  const std::size_t stride = circuit.parameter_count();
  const std::size_t dim = std::size_t{1} << circuit.num_qubits();
  StateVectorBatch phi{circuit.num_qubits(), rows};
  circuit.run_batch(phi, params, stride);
  StateVectorBatch lambda{circuit.num_qubits(), rows};
  StateVectorBatch mu{circuit.num_qubits(), rows};
  const std::span<Complex> lam = lambda.amplitudes();
  std::fill(lam.begin(), lam.end(), Complex{0.0, 0.0});
  for (std::size_t k = 0; k < diags.size(); ++k) {
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t b = 0; b < rows; ++b) {
        const double w = upstream[b * diags.size() + k];
        if (w == 0.0) continue;
        lam[i * rows + b] +=
            w * (diags[k][i] * phi.amplitudes()[i * rows + b]);
      }
    }
  }
  std::vector<double> gradient(rows * stride, 0.0);
  std::vector<double> inner(rows);
  const auto ops = circuit.compiled_plan()->flat_ops();
  for (std::size_t idx = ops.size(); idx-- > 0;) {
    const PlanOp& op = ops[idx];
    std::vector<double> angles(rows, op.fixed_angle);
    if (op.param_slot >= 0) {
      for (std::size_t b = 0; b < rows; ++b) {
        angles[b] = params[b * stride + static_cast<std::size_t>(op.param_slot)];
      }
    }
    if (std::all_of(angles.begin(), angles.end(),
                    [&](double a) { return a == angles[0]; })) {
      angles.resize(1);
    }
    three_call_apply(phi, op.type, angles, op.wire0, op.wire1, false);
    if (op.param_slot >= 0) {
      mu.assign_from(phi);
      three_call_apply(mu, op.type, angles, op.wire0, op.wire1, true);
      lambda.inner_products_real(mu, inner);
      for (std::size_t b = 0; b < rows; ++b) {
        gradient[b * stride + static_cast<std::size_t>(op.param_slot)] +=
            2.0 * inner[b];
      }
    }
    if (idx == 0) break;
    three_call_apply(lambda, op.type, angles, op.wire0, op.wire1, false);
  }
  return gradient;
}

/// Hadamards, then two layers of `type` (on every wire, or on neighbouring
/// pairs, reversed in the second layer) each followed by a CNOT chain, then
/// one fixed-angle `type` op, which the sweep inverts but does not
/// differentiate.
Circuit sweep_circuit(GateType type, std::size_t qubits) {
  Circuit c{qubits};
  for (std::size_t w = 0; w < qubits; ++w) c.gate(GateType::Hadamard, w);
  const bool two = gate_arity(type) == 2;
  std::size_t slot = 0;
  for (const bool reversed : {false, true}) {
    for (std::size_t w = 0; w + (two ? 1 : 0) < qubits; ++w) {
      if (!two) {
        c.parameterized_gate(type, slot++, w);
      } else if (reversed) {
        c.parameterized_gate(type, slot++, w + 1, w);
      } else {
        c.parameterized_gate(type, slot++, w, w + 1);
      }
    }
    for (std::size_t w = 0; w + 1 < qubits; ++w) {
      c.gate(GateType::CNOT, w, w + 1);
    }
  }
  c.gate(type, two ? 1 : 0, two ? 0 : SIZE_MAX, 0.61);
  return c;
}

TEST(AdjointDiff, SweepMatchesThreeCallSweepBitwise) {
  // Every parameterized gate type, q = 1-5, rows 1, 3 and 8; with per-row
  // angles the even slots stay shared, so one sweep runs both kernels.
  // Slots 0 and 2 hold +0.0 and -0.0, where a sign slip shows in the bits.
  util::Rng rng{2903};
  for (const GateType type :
       {GateType::RX, GateType::RY, GateType::RZ, GateType::PhaseShift,
        GateType::CRX, GateType::CRY, GateType::CRZ, GateType::RXX,
        GateType::RYY, GateType::RZZ}) {
    for (std::size_t qubits = gate_arity(type); qubits <= 5; ++qubits) {
      const Circuit circuit = sweep_circuit(type, qubits);
      const std::size_t stride = circuit.parameter_count();
      std::vector<Observable> observables;
      std::vector<std::vector<double>> diags;
      for (std::size_t w = 0; w < qubits; ++w) {
        observables.push_back(Observable::pauli_z(w));
        diags.push_back(observables.back().diagonal(qubits));
      }
      for (const std::size_t rows : {1, 3, 8}) {
        for (const bool per_row : {false, true}) {
          std::vector<double> params(rows * stride);
          for (std::size_t p = 0; p < stride; ++p) {
            const double shared = p == 0   ? 0.0
                                  : p == 2 ? -0.0
                                           : rng.uniform(-4.0, 4.0);
            for (std::size_t b = 0; b < rows; ++b) {
              params[b * stride + p] = per_row && p % 2 == 1
                                           ? rng.uniform(-4.0, 4.0)
                                           : shared;
            }
          }
          const std::vector<double> upstream =
              rng.uniform_vector(rows * qubits, -1.0, 1.0);
          const std::vector<double> expected =
              three_call_vjp(circuit, params, rows, diags, upstream);
          std::vector<double> gradient(rows * stride, -1.0);
          adjoint_vjp_batch(circuit, params, stride, rows, observables,
                            upstream, gradient);
          const std::string label = gate_name(type) + " q" +
                                    std::to_string(qubits) + " rows " +
                                    std::to_string(rows) +
                                    (per_row ? " per-row" : " shared");
          EXPECT_EQ(std::memcmp(gradient.data(), expected.data(),
                                expected.size() * sizeof(double)),
                    0)
              << label;
          if (rows != 1) continue;
          // The scalar entry point is the one-row sweep; its expectations
          // are the forward state's.
          const AdjointVjpResult scalar =
              adjoint_vjp(circuit, params, observables, upstream);
          EXPECT_EQ(std::memcmp(scalar.gradient.data(), expected.data(),
                                expected.size() * sizeof(double)),
                    0)
              << label;
          const StateVector psi = circuit.execute(params);
          for (std::size_t k = 0; k < qubits; ++k) {
            const double value = observables[k].expectation(psi);
            EXPECT_EQ(std::memcmp(&scalar.expectations[k], &value,
                                  sizeof(double)),
                      0)
                << label << " obs " << k;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace qhdl::quantum
