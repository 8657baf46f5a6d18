#include "quantum/density_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "quantum/channels.hpp"
#include "test_helpers.hpp"
#include "util/backend_registry.hpp"
#include "util/rng.hpp"

namespace qhdl::quantum {
namespace {

constexpr double kTol = 1e-12;

constexpr GateType kEveryGate[] = {
    GateType::PauliX, GateType::PauliY, GateType::PauliZ,
    GateType::Hadamard, GateType::S, GateType::T,
    GateType::RX, GateType::RY, GateType::RZ,
    GateType::PhaseShift, GateType::CNOT, GateType::CZ,
    GateType::SWAP, GateType::CRX, GateType::CRY,
    GateType::CRZ, GateType::RXX, GateType::RYY,
    GateType::RZZ};

using qhdl::testing::BackendScope;

/// Entangled state with complex amplitudes, so every gate moves ρ.
StateVector random_state(std::size_t qubits, util::Rng& rng) {
  StateVector psi{qubits};
  for (std::size_t w = 0; w < qubits; ++w) {
    apply_gate(psi, GateType::Hadamard, 0.0, w);
    apply_gate(psi, GateType::T, 0.0, w);
    apply_gate(psi, GateType::RY, rng.uniform(-2.0, 2.0), w);
  }
  for (std::size_t w = 0; w + 1 < qubits; ++w) {
    apply_gate(psi, GateType::CNOT, 0.0, w, w + 1);
  }
  return psi;
}

TEST(DensityMatrix, InitializesPureGroundState) {
  const DensityMatrix rho{2};
  EXPECT_EQ(rho.dimension(), 4u);
  EXPECT_NEAR(rho.trace().real(), 1.0, kTol);
  EXPECT_NEAR(rho.purity(), 1.0, kTol);
  EXPECT_NEAR(rho.at(0, 0).real(), 1.0, kTol);
}

TEST(DensityMatrix, RejectsBadSizes) {
  EXPECT_THROW(DensityMatrix{0}, std::invalid_argument);
  EXPECT_THROW(DensityMatrix{20}, std::invalid_argument);
}

TEST(DensityMatrix, FromStatevectorMatchesExpectations) {
  StateVector psi{2};
  psi.apply_single_qubit(gates::ry(0.8), 0);
  psi.apply_cnot(0, 1);
  const DensityMatrix rho = DensityMatrix::from_statevector(psi);
  EXPECT_NEAR(rho.trace().real(), 1.0, kTol);
  EXPECT_NEAR(rho.purity(), 1.0, kTol);
  EXPECT_NEAR(rho.expval_pauli_z(0), psi.expval_pauli_z(0), kTol);
  EXPECT_NEAR(rho.expval_pauli_z(1), psi.expval_pauli_z(1), kTol);
}

TEST(DensityMatrix, MaximallyMixed) {
  const DensityMatrix rho = DensityMatrix::maximally_mixed(2);
  EXPECT_NEAR(rho.trace().real(), 1.0, kTol);
  EXPECT_NEAR(rho.purity(), 0.25, kTol);
  EXPECT_NEAR(rho.expval_pauli_z(0), 0.0, kTol);
}

TEST(DensityMatrix, UnitaryEvolutionMatchesStatevector) {
  // Apply the same circuit to both representations; all ⟨Z⟩ must agree.
  StateVector psi{3};
  DensityMatrix rho{3};
  const auto apply_both = [&](auto&& fn) {
    fn(psi);
    // Mirror on rho via the dedicated methods below.
  };
  (void)apply_both;

  psi.apply_single_qubit(gates::hadamard(), 0);
  rho.apply_single_qubit(gates::hadamard(), 0);
  psi.apply_single_qubit(gates::rx(0.7), 1);
  rho.apply_single_qubit(gates::rx(0.7), 1);
  psi.apply_cnot(0, 2);
  rho.apply_gate(GateType::CNOT, 0.0, 0, 2);
  psi.apply_cz(1, 2);
  rho.apply_gate(GateType::CZ, 0.0, 1, 2);
  psi.apply_single_qubit(gates::ry(-1.1), 2);
  rho.apply_single_qubit(gates::ry(-1.1), 2);

  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_NEAR(rho.expval_pauli_z(w), psi.expval_pauli_z(w), 1e-11)
        << "wire " << w;
  }
  EXPECT_NEAR(rho.purity(), 1.0, 1e-11);
  EXPECT_LT(rho.hermiticity_error(), 1e-12);
}

TEST(DensityMatrix, ControlledRotationMatchesStatevector) {
  StateVector psi{2};
  DensityMatrix rho{2};
  psi.apply_single_qubit(gates::hadamard(), 0);
  rho.apply_single_qubit(gates::hadamard(), 0);
  psi.apply_controlled(gates::rx(0.9), 0, 1);
  rho.apply_gate(GateType::CRX, 0.9, 0, 1);
  EXPECT_NEAR(rho.expval_pauli_z(1), psi.expval_pauli_z(1), 1e-12);
}

TEST(DensityMatrix, EveryGateMatchesProjectorOfStatevector) {
  // U ρ U† through the column sandwich equals |Uψ⟩⟨Uψ| for every gate,
  // on every wire (every ordered pair for two-qubit gates).
  util::Rng rng{77};
  for (std::size_t qubits = 2; qubits <= 4; ++qubits) {
    for (const GateType type : kEveryGate) {
      for (std::size_t a = 0; a < qubits; ++a) {
        for (std::size_t b = 0; b < qubits; ++b) {
          const bool two_qubit = gate_arity(type) == 2;
          if (two_qubit ? a == b : b != 0) continue;
          const std::size_t wire1 = two_qubit ? b : SIZE_MAX;
          const double angle = rng.uniform(-3.0, 3.0);
          StateVector psi = random_state(qubits, rng);
          DensityMatrix rho = DensityMatrix::from_statevector(psi);
          apply_gate(psi, type, angle, a, wire1);
          rho.apply_gate(type, angle, a, wire1);
          const auto amps = psi.amplitudes();
          double worst = 0.0;
          for (std::size_t i = 0; i < rho.dimension(); ++i) {
            for (std::size_t j = 0; j < rho.dimension(); ++j) {
              worst = std::max(worst, std::abs(rho.at(i, j) -
                                               amps[i] * std::conj(amps[j])));
            }
          }
          EXPECT_LT(worst, 1e-12)
              << gate_name(type) << " q=" << qubits << " wires " << a << ","
              << (two_qubit ? std::to_string(b) : std::string{"-"});
        }
      }
    }
  }
}

TEST(DensityMatrix, SingleQubitGatesMatchTheirDense2x2Bitwise) {
  // A shared-angle single-qubit gate takes its specialized kernel (phase
  // multiply, PauliX swap or dense 2x2) on ρ's columns; the same sandwich
  // with the dense 2x2 of its gates:: matrix gives the same bits, under
  // every backend.
  util::Rng rng{78};
  for (const util::simd::Backend* backend :
       qhdl::testing::supported_backends()) {
    const BackendScope scope{backend->name};
    for (const GateType type : kEveryGate) {
      if (gate_arity(type) != 1) continue;
      for (std::size_t wire = 0; wire < 3; ++wire) {
        const double angle = rng.uniform(-3.0, 3.0);
        DensityMatrix dispatched =
            DensityMatrix::from_statevector(random_state(3, rng));
        DensityMatrix dense = dispatched;
        dispatched.apply_gate(type, angle, wire);
        dense.apply_single_qubit(gates::matrix_for(type, angle), wire);
        for (std::size_t i = 0; i < dense.dimension(); ++i) {
          for (std::size_t j = 0; j < dense.dimension(); ++j) {
            EXPECT_EQ(dispatched.at(i, j), dense.at(i, j))
                << backend->name << " " << gate_name(type) << " wire "
                << wire << " entry " << i << "," << j;
          }
        }
      }
    }
  }
}

TEST(DensityMatrix, SandwichEqualsExplicitLeftThenRightProduct) {
  // The sandwich (M (M ρ)†)† must give the values of the explicit product
  // (M ρ) M† — left-multiply the columns by M, then the rows by conj(M) —
  // entry for entry under == (only the sign of a zero may differ), so
  // noisy results keep their bits. Without the closing conjugate transpose
  // the result is still M ρ M† to rounding (ρ is Hermitian); only this
  // test notices it.
  util::Rng rng{91};
  const std::size_t qubits = 3;
  const auto random_entry = [&] {
    return Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  };
  for (std::size_t wire = 0; wire < qubits; ++wire) {
    DensityMatrix rho =
        DensityMatrix::from_statevector(random_state(qubits, rng));
    rho.apply_channel(channels::amplitude_damping(0.3),
                      (wire + 1) % qubits);
    const Mat2 m{random_entry(), random_entry(), random_entry(),
                 random_entry()};
    const std::size_t dim = rho.dimension();
    const std::size_t mask = std::size_t{1} << (qubits - 1 - wire);
    std::vector<Complex> expected(dim * dim);
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        expected[i * dim + j] = rho.at(i, j);
      }
    }
    for (std::size_t col = 0; col < dim; ++col) {
      for (std::size_t r0 = 0; r0 < dim; ++r0) {
        if ((r0 & mask) != 0) continue;
        const Complex a0 = expected[r0 * dim + col];
        const Complex a1 = expected[(r0 | mask) * dim + col];
        expected[r0 * dim + col] = m.m00 * a0 + m.m01 * a1;
        expected[(r0 | mask) * dim + col] = m.m10 * a0 + m.m11 * a1;
      }
    }
    for (std::size_t row = 0; row < dim; ++row) {
      for (std::size_t c0 = 0; c0 < dim; ++c0) {
        if ((c0 & mask) != 0) continue;
        const Complex a0 = expected[row * dim + c0];
        const Complex a1 = expected[row * dim + (c0 | mask)];
        expected[row * dim + c0] =
            std::conj(m.m00) * a0 + std::conj(m.m01) * a1;
        expected[row * dim + (c0 | mask)] =
            std::conj(m.m10) * a0 + std::conj(m.m11) * a1;
      }
    }
    rho.apply_single_qubit(m, wire);
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        EXPECT_EQ(rho.at(i, j), expected[i * dim + j])
            << "wire " << wire << " entry " << i << "," << j;
      }
    }
  }
}

TEST(DensityMatrix, ChannelsAreTracePreserving) {
  for (const auto& channel :
       {channels::depolarizing(0.2), channels::amplitude_damping(0.3),
        channels::phase_damping(0.4), channels::bit_flip(0.1),
        channels::phase_flip(0.25)}) {
    EXPECT_TRUE(channel.is_trace_preserving()) << channel.name;
  }
}

TEST(DensityMatrix, ChannelProbabilityValidated) {
  EXPECT_THROW(channels::depolarizing(-0.1), std::invalid_argument);
  EXPECT_THROW(channels::bit_flip(1.5), std::invalid_argument);
}

TEST(DensityMatrix, DepolarizingShrinksBlochVector) {
  // |+⟩ under depolarizing(p): ⟨X⟩ shrinks by (1 - 4p/3).
  DensityMatrix rho{1};
  rho.apply_single_qubit(gates::hadamard(), 0);
  const double p = 0.3;
  rho.apply_channel(channels::depolarizing(p), 0);
  EXPECT_NEAR(rho.trace().real(), 1.0, kTol);
  // ⟨X⟩ = 2 Re(ρ01).
  EXPECT_NEAR(2.0 * rho.at(0, 1).real(), 1.0 - 4.0 * p / 3.0, 1e-12);
  EXPECT_LT(rho.purity(), 1.0);
}

TEST(DensityMatrix, FullDepolarizingGivesMaximallyMixed) {
  DensityMatrix rho{1};
  rho.apply_single_qubit(gates::ry(0.7), 0);
  rho.apply_channel(channels::depolarizing(0.75), 0);
  // p = 3/4 is the fully-depolarizing point for this Kraus parameterization.
  EXPECT_NEAR(rho.at(0, 0).real(), 0.5, 1e-12);
  EXPECT_NEAR(rho.expval_pauli_z(0), 0.0, 1e-12);
}

TEST(DensityMatrix, AmplitudeDampingDecaysExcitedState) {
  DensityMatrix rho{1};
  rho.apply_single_qubit(gates::pauli_x(), 0);  // |1⟩
  rho.apply_channel(channels::amplitude_damping(0.4), 0);
  // P(1) = 1 - γ.
  EXPECT_NEAR(rho.probabilities()[1], 0.6, 1e-12);
  EXPECT_NEAR(rho.expval_pauli_z(0), 2.0 * 0.4 - 1.0 + 2.0 * 0.0, 1e-9);
}

TEST(DensityMatrix, PhaseDampingKillsCoherenceOnly) {
  DensityMatrix rho{1};
  rho.apply_single_qubit(gates::hadamard(), 0);
  const auto probs_before = rho.probabilities();
  rho.apply_channel(channels::phase_damping(0.5), 0);
  const auto probs_after = rho.probabilities();
  EXPECT_NEAR(probs_after[0], probs_before[0], 1e-12);  // populations kept
  EXPECT_LT(std::abs(rho.at(0, 1)), 0.5);               // coherence reduced
}

TEST(DensityMatrix, ReducedSingleQubitOfBellIsMixed) {
  StateVector bell{2};
  bell.apply_single_qubit(gates::hadamard(), 0);
  bell.apply_cnot(0, 1);
  const DensityMatrix rho = DensityMatrix::from_statevector(bell);
  const Mat2 reduced = rho.reduced_single_qubit(0);
  EXPECT_NEAR(reduced.m00.real(), 0.5, kTol);
  EXPECT_NEAR(reduced.m11.real(), 0.5, kTol);
  EXPECT_NEAR(std::abs(reduced.m01), 0.0, kTol);

  // Statevector fast path agrees.
  const Mat2 direct = reduced_single_qubit(bell, 0);
  EXPECT_NEAR(std::abs(direct.m00 - reduced.m00), 0.0, kTol);
  EXPECT_NEAR(std::abs(direct.m01 - reduced.m01), 0.0, kTol);
}

TEST(DensityMatrix, ReducedOfProductStateIsPure) {
  StateVector psi{2};
  psi.apply_single_qubit(gates::ry(0.9), 0);  // product state
  const Mat2 rho0 = reduced_single_qubit(psi, 0);
  const double purity = std::norm(rho0.m00) + std::norm(rho0.m01) +
                        std::norm(rho0.m10) + std::norm(rho0.m11);
  EXPECT_NEAR(purity, 1.0, kTol);
}

TEST(NoisyExecution, NoiselessMatchesStatevector) {
  Circuit circuit{2};
  circuit.parameterized_gate(GateType::RY, 0, 0);
  circuit.gate(GateType::CNOT, 0, 1);
  const std::vector<double> params{0.8};

  const auto noiseless = noisy_expvals(circuit, params,
                                       NoiseModel::noiseless(),
                                       std::vector<std::size_t>{0, 1});
  const StateVector psi = circuit.execute(params);
  EXPECT_NEAR(noiseless[0], psi.expval_pauli_z(0), 1e-12);
  EXPECT_NEAR(noiseless[1], psi.expval_pauli_z(1), 1e-12);
}

TEST(NoisyExecution, DepolarizingDampsExpectations) {
  Circuit circuit{2};
  circuit.parameterized_gate(GateType::RY, 0, 0);
  circuit.gate(GateType::CNOT, 0, 1);
  const std::vector<double> params{0.8};
  const std::vector<std::size_t> wires{0, 1};

  const auto clean =
      noisy_expvals(circuit, params, NoiseModel::noiseless(), wires);
  const auto noisy =
      noisy_expvals(circuit, params, NoiseModel::depolarizing(0.05), wires);
  for (std::size_t w = 0; w < 2; ++w) {
    EXPECT_LT(std::abs(noisy[w]), std::abs(clean[w]) + 1e-12) << "wire " << w;
  }
}

TEST(NoisyExecution, ParameterShiftMatchesFiniteDifferenceUnderNoise) {
  Circuit circuit{2};
  circuit.parameterized_gate(GateType::RY, 0, 0);
  circuit.gate(GateType::CNOT, 0, 1);
  circuit.parameterized_gate(GateType::RX, 1, 1);
  std::vector<double> params{0.7, -0.4};
  const NoiseModel noise = NoiseModel::depolarizing(0.03);

  const auto analytic =
      noisy_parameter_shift_vjp(circuit, params, noise,
                                std::vector<std::size_t>{1},
                                std::vector<double>{1.0})
          .gradient;

  for (std::size_t i = 0; i < params.size(); ++i) {
    const double eps = 1e-6;
    const double saved = params[i];
    params[i] = saved + eps;
    const double plus = noisy_expvals(circuit, params, noise,
                                      std::vector<std::size_t>{1})[0];
    params[i] = saved - eps;
    const double minus = noisy_expvals(circuit, params, noise,
                                       std::vector<std::size_t>{1})[0];
    params[i] = saved;
    EXPECT_NEAR(analytic[i], (plus - minus) / (2 * eps), 1e-7)
        << "param " << i;
  }
}

TEST(NoisyExecution, TraceStaysOneThroughDeepNoisyCircuit) {
  Circuit circuit{3};
  for (std::size_t p = 0; p < 6; ++p) {
    circuit.parameterized_gate(GateType::RX, p, p % 3);
  }
  circuit.gate(GateType::CNOT, 0, 1).gate(GateType::CNOT, 1, 2);
  util::Rng rng{5};
  const auto params = rng.uniform_vector(6, -3.0, 3.0);

  NoiseModel noise;
  noise.per_gate_channels.push_back(channels::amplitude_damping(0.02));
  noise.per_gate_channels.push_back(channels::phase_damping(0.01));
  const DensityMatrix rho = run_noisy(circuit, params, noise);
  EXPECT_NEAR(rho.trace().real(), 1.0, 1e-9);
  EXPECT_LE(rho.purity(), 1.0 + 1e-9);
  EXPECT_LT(rho.hermiticity_error(), 1e-10);
}

TEST(NoisyExecution, ExpvalsAndVjpBitIdenticalAcrossBackends) {
  // Mixed states run on the registry kernels, so every supported backend
  // (avx2 SIMD across ρ's columns) must reproduce generic's values exactly.
  Circuit circuit{3};
  std::vector<double> params;
  util::Rng rng{31};
  for (const GateType type : kEveryGate) {
    const std::size_t a = rng.index(3);
    const std::size_t b = (a + 1 + rng.index(2)) % 3;
    const std::size_t wire1 = gate_arity(type) == 2 ? b : SIZE_MAX;
    if (gate_is_parameterized(type)) {
      circuit.parameterized_gate(type, params.size(), a, wire1);
      params.push_back(rng.uniform(-3.0, 3.0));
    } else {
      circuit.gate(type, a, wire1);
    }
  }
  const std::vector<std::size_t> wires{0, 1, 2};
  const std::vector<double> upstream{0.7, -1.3, 0.4};
  for (const NoiseModel& noise : {NoiseModel::depolarizing(0.03),
                                  NoiseModel::amplitude_damping(0.05)}) {
    const auto run = [&] {
      return noisy_parameter_shift_vjp(circuit, params, noise, wires,
                                       upstream);
    };
    NoisyVjpResult golden;
    std::vector<double> golden_expvals;
    {
      const BackendScope scope{"generic"};
      golden = run();
      golden_expvals = noisy_expvals(circuit, params, noise, wires);
    }
    for (const util::simd::Backend* backend : util::simd::backends()) {
      if (!backend->supported()) continue;
      const BackendScope scope{backend->name};
      const NoisyVjpResult result = run();
      const std::string label =
          std::string{backend->name} + " " +
          noise.per_gate_channels.front().name;
      EXPECT_EQ(noisy_expvals(circuit, params, noise, wires), golden_expvals)
          << label;
      EXPECT_EQ(result.expectations, golden.expectations) << label;
      EXPECT_EQ(result.gradient, golden.gradient) << label;
    }
  }
}

}  // namespace
}  // namespace qhdl::quantum
