// Dense-matrix oracle suite (DESIGN.md §8): random circuits over every gate
// type at 1-6 qubits, pure and mixed under all five noise channels, checked
// against quantum/oracle.hpp under every supported kernel backend. The
// oracle builds each unitary by Kronecker products from its own closed-form
// entries and shares no code with quantum::gates or the util::simd kernels,
// so a sign flipped in a kernel, in a gate matrix or in the dispatch that
// every backend shares fails here even though the backends still agree with
// each other. Covered: fused plans, the uncompiled and unfused replays,
// ⟨Z⟩ expectations, the adjoint and parameter-shift gradients, the batched
// forward and VJP, and density-matrix evolution with its shift-rule VJP.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numbers>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "quantum/adjoint_diff.hpp"
#include "quantum/channels.hpp"
#include "quantum/circuit.hpp"
#include "quantum/density_matrix.hpp"
#include "quantum/executor.hpp"
#include "quantum/observable.hpp"
#include "quantum/parameter_shift.hpp"
#include "quantum/statevector.hpp"
#include "quantum/statevector_batch.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace {

using namespace qhdl;
using quantum::Circuit;
using quantum::GateType;
using quantum::Observable;
using quantum::StateVector;
using quantum::StateVectorBatch;
using qhdl::testing::expect_amplitudes_near;
using qhdl::testing::to_oracle;

constexpr double kTol = 1e-12;

const std::vector<GateType> kAllGates = {
    GateType::PauliX, GateType::PauliY, GateType::PauliZ,
    GateType::Hadamard, GateType::S, GateType::T,
    GateType::RX, GateType::RY, GateType::RZ, GateType::PhaseShift,
    GateType::CNOT, GateType::CZ, GateType::SWAP,
    GateType::CRX, GateType::CRY, GateType::CRZ,
    GateType::RXX, GateType::RYY, GateType::RZZ,
};

struct RandomCircuit {
  Circuit circuit;
  std::vector<double> params;
};

/// Every gate type the register fits, once each in a shuffled order, then
/// `extra` more drawn at random, on random wires. A parameterized gate reads
/// a fresh runtime parameter, one an earlier gate already reads (so
/// gradients need the product rule), or a fixed angle. About one gate in
/// five is repeated right after itself, so the plan's involution
/// cancellation and chain fusion both fire.
RandomCircuit random_circuit(std::size_t qubits, std::size_t extra,
                             util::Rng& rng) {
  std::vector<GateType> fits;
  for (const GateType type : kAllGates) {
    if (quantum::gate_arity(type) <= qubits) fits.push_back(type);
  }
  std::vector<GateType> order = fits;
  rng.shuffle(order);
  for (std::size_t i = 0; i < extra; ++i) {
    order.push_back(fits[rng.index(fits.size())]);
  }
  RandomCircuit out{Circuit{qubits}, {}};
  std::size_t parameters = 0;
  for (const GateType type : order) {
    const std::size_t w0 = rng.index(qubits);
    std::size_t w1 = SIZE_MAX;
    if (quantum::gate_arity(type) == 2) {
      w1 = (w0 + 1 + rng.index(qubits - 1)) % qubits;
    }
    const std::size_t copies = rng.uniform() < 0.2 ? 2 : 1;
    for (std::size_t c = 0; c < copies; ++c) {
      if (!quantum::gate_is_parameterized(type)) {
        out.circuit.gate(type, w0, w1);
      } else if (rng.uniform() < 0.2) {
        out.circuit.gate(type, w0, w1, rng.uniform(-3.0, 3.0));
      } else if (parameters > 0 && rng.uniform() < 0.25) {
        out.circuit.parameterized_gate(type, rng.index(parameters), w0, w1);
      } else {
        out.circuit.parameterized_gate(type, parameters++, w0, w1);
      }
    }
  }
  out.params =
      rng.uniform_vector(out.circuit.parameter_count(), -3.0, 3.0);
  return out;
}

std::string circuit_label(const char* backend, std::size_t qubits,
                          std::size_t trial) {
  return std::string{backend} + " q=" + std::to_string(qubits) + " trial " +
         std::to_string(trial);
}

void expect_values_near(std::span<const double> got,
                        std::span<const double> want, double tolerance,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tolerance) << label << " entry " << i;
  }
}

std::vector<std::size_t> all_wires(std::size_t qubits) {
  std::vector<std::size_t> wires(qubits);
  for (std::size_t w = 0; w < qubits; ++w) wires[w] = w;
  return wires;
}

std::vector<Observable> z_observables(std::size_t qubits) {
  std::vector<Observable> observables;
  for (std::size_t w = 0; w < qubits; ++w) {
    observables.push_back(Observable::pauli_z(w));
  }
  return observables;
}

/// Largest |entry| of a - b.
double max_difference(const oracle::Matrix& a, const oracle::Matrix& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    worst = std::max(worst, std::abs(a.entries[i] - b.entries[i]));
  }
  return worst;
}

// --- the oracle checks itself ------------------------------------------------

TEST(Oracle, MatricesAreUnitaryWithExactDerivatives) {
  // Each closed-form gate is unitary on its own wires and embedded on any
  // wire (pair) of 3 qubits; each derivative matrix matches a central finite
  // difference of the gate; every Kraus set is trace preserving.
  util::Rng rng{1};
  for (const oracle::Gate gate : oracle::kAllGates) {
    const double theta = rng.uniform(-3.0, 3.0);
    const oracle::Matrix u = oracle::local_unitary(gate, theta);
    EXPECT_LT(max_difference(oracle::dagger(u) * u, oracle::identity(u.dim)),
              1e-15);
    for (std::size_t w0 = 0; w0 < 3; ++w0) {
      for (std::size_t w1 = 0; w1 < 3; ++w1) {
        if (oracle::arity(gate) == 1 ? w1 != 0 : w1 == w0) continue;
        const oracle::Matrix full = oracle::embed(
            u, 3, w0, oracle::arity(gate) == 1 ? oracle::kNoWire : w1);
        EXPECT_LT(
            max_difference(oracle::dagger(full) * full, oracle::identity(8)),
            1e-15);
      }
    }
    if (!oracle::parameterized(gate)) continue;
    const double eps = 1e-6;
    const oracle::Matrix plus = oracle::local_unitary(gate, theta + eps);
    const oracle::Matrix minus = oracle::local_unitary(gate, theta - eps);
    const oracle::Matrix derivative = oracle::local_derivative(gate, theta);
    for (std::size_t i = 0; i < derivative.entries.size(); ++i) {
      const oracle::Complex difference =
          (plus.entries[i] - minus.entries[i]) / (2.0 * eps);
      EXPECT_LT(std::abs(difference - derivative.entries[i]), 1e-9);
    }
  }
  for (const oracle::Channel channel : oracle::kAllChannels) {
    oracle::Matrix sum{2};
    for (const oracle::Matrix& k : oracle::kraus(channel, 0.3)) {
      sum = sum + oracle::dagger(k) * k;
    }
    EXPECT_LT(max_difference(sum, oracle::identity(2)), 1e-15);
  }
}

TEST(Oracle, WireConventionsMatchTheLibrary) {
  // Wire 0 is the most significant bit and a two-qubit gate's first wire is
  // its control: CNOT(0 -> 1) maps |10⟩ to |11⟩, CNOT(1 -> 0) maps |01⟩ to
  // |11⟩, and RX(π) on wire 1 of |00⟩ gives -i|01⟩.
  const auto basis = [](std::size_t index) {
    oracle::State state(4);
    state[index] = 1.0;
    return state;
  };
  const oracle::Matrix cnot01 = oracle::embed(
      oracle::local_unitary(oracle::Gate::CNOT, 0.0), 2, 0, 1);
  const oracle::Matrix cnot10 = oracle::embed(
      oracle::local_unitary(oracle::Gate::CNOT, 0.0), 2, 1, 0);
  EXPECT_EQ(oracle::matvec(cnot01, basis(2)), basis(3));
  EXPECT_EQ(oracle::matvec(cnot10, basis(1)), basis(3));
  const oracle::State flipped = oracle::matvec(
      oracle::embed(oracle::local_unitary(oracle::Gate::RX, std::numbers::pi), 2, 1),
      basis(0));
  EXPECT_NEAR(std::abs(flipped[1] - oracle::Complex{0.0, -1.0}), 0.0,
              1e-15);
  EXPECT_NEAR(std::abs(flipped[0]), 0.0, 1e-15);
}

// --- pure states -------------------------------------------------------------

TEST(Oracle, RandomCircuitsMatchOracleStates) {
  // The fused plan, the uncompiled per-op loop and the plan's flat stream
  // replayed unfused all reproduce the oracle's amplitudes and ⟨Z_w⟩.
  util::Rng rng{2};
  for (std::size_t qubits = 1; qubits <= 6; ++qubits) {
    for (std::size_t trial = 0; trial < 3; ++trial) {
      const RandomCircuit c = random_circuit(qubits, 12, rng);
      const oracle::State expected =
          oracle::run(to_oracle(c.circuit), c.params);
      for (const auto* backend : qhdl::testing::supported_backends()) {
        const qhdl::testing::BackendScope scope{backend->name};
        const std::string label = circuit_label(backend->name, qubits, trial);
        const StateVector fused = c.circuit.execute(c.params);
        expect_amplitudes_near(fused.amplitudes(), expected, kTol,
                               label + " fused");
        expect_amplitudes_near(
            qhdl::testing::run_uncompiled(c.circuit, c.params).amplitudes(),
            expected, kTol, label + " uncompiled");
        StateVector unfused{qubits};
        qhdl::testing::run_plan_unfused(c.circuit, unfused, c.params,
                                        c.params.size());
        expect_amplitudes_near(unfused.amplitudes(), expected, kTol,
                               label + " unfused");
        for (std::size_t w = 0; w < qubits; ++w) {
          EXPECT_NEAR(fused.expval_pauli_z(w),
                      oracle::expval_z(expected, qubits, w), kTol)
              << label << " <Z" << w << ">";
        }
      }
    }
  }
}

TEST(Oracle, RandomCircuitGradientsMatchExactDerivatives) {
  // adjoint_vjp (every wire, random weights), adjoint_gradient and
  // parameter_shift_gradient (one wire) against the oracle's
  // 2·Re⟨ψ|O|∂ψ⟩ sums, shared parameters included.
  util::Rng rng{3};
  for (std::size_t qubits = 1; qubits <= 6; ++qubits) {
    for (std::size_t trial = 0; trial < 2; ++trial) {
      const RandomCircuit c = random_circuit(qubits, 10, rng);
      const oracle::Circuit exact = to_oracle(c.circuit);
      const std::vector<std::size_t> wires = all_wires(qubits);
      const std::vector<Observable> observables = z_observables(qubits);
      const std::vector<double> upstream =
          rng.uniform_vector(qubits, -1.0, 1.0);
      const std::size_t wire = rng.index(qubits);
      const std::vector<double> one_hot_weight{1.0};
      const std::vector<std::size_t> one_wire{wire};
      const std::vector<double> vjp =
          oracle::vjp(exact, c.params, wires, upstream);
      const std::vector<double> gradient =
          oracle::vjp(exact, c.params, one_wire, one_hot_weight);
      for (const auto* backend : qhdl::testing::supported_backends()) {
        const qhdl::testing::BackendScope scope{backend->name};
        const std::string label = circuit_label(backend->name, qubits, trial);
        expect_values_near(
            quantum::adjoint_vjp(c.circuit, c.params, observables, upstream)
                .gradient,
            vjp, kTol, label + " adjoint vjp");
        expect_values_near(quantum::adjoint_gradient(c.circuit, c.params,
                                                     observables[wire])
                               .gradient,
                           gradient, kTol, label + " adjoint gradient");
        expect_values_near(quantum::parameter_shift_gradient(
                               c.circuit, c.params, observables[wire]),
                           gradient, kTol, label + " parameter shift");
      }
    }
  }
}

TEST(Oracle, BatchedRunsAndVjpsMatchOracle) {
  // Rows that share some angles and differ in others (shared and per-row
  // kernels, chains fused once or per row): the batched plan, the batched
  // Executor forward and its VJP — the adjoint sweep and the
  // parameter-shift fallback — against the oracle row by row.
  util::Rng rng{4};
  for (std::size_t qubits = 1; qubits <= 6; ++qubits) {
    const RandomCircuit c = random_circuit(qubits, 8, rng);
    const oracle::Circuit exact = to_oracle(c.circuit);
    const std::size_t stride = c.params.size();
    const std::vector<std::size_t> wires = all_wires(qubits);
    for (const std::size_t rows : {std::size_t{1}, std::size_t{3},
                                   std::size_t{5}}) {
      std::vector<double> params(rows * stride);
      for (std::size_t b = 0; b < rows; ++b) {
        for (std::size_t p = 0; p < stride; ++p) {
          params[b * stride + p] =
              rng.uniform() < 0.3 ? rng.uniform(-3.0, 3.0) : c.params[p];
        }
      }
      const std::vector<double> upstream =
          rng.uniform_vector(rows * qubits, -1.0, 1.0);
      for (const auto* backend : qhdl::testing::supported_backends()) {
        const qhdl::testing::BackendScope scope{backend->name};
        const std::string label =
            circuit_label(backend->name, qubits, 0) + " b=" +
            std::to_string(rows);
        StateVectorBatch fused{qubits, rows};
        c.circuit.run_batch(fused, params, stride);
        StateVectorBatch unfused{qubits, rows};
        qhdl::testing::run_plan_unfused(c.circuit, unfused, params, stride);
        const quantum::Executor adjoint{c.circuit, z_observables(qubits)};
        const quantum::Executor shift{c.circuit, z_observables(qubits),
                                      quantum::DiffMethod::ParameterShift};
        StateVectorBatch state{qubits, rows};
        std::vector<double> expectations(rows * qubits);
        adjoint.run_batch(state, params, stride, expectations);
        std::vector<double> adjoint_gradient(rows * stride);
        adjoint.run_with_vjp_batch(params, stride, rows, upstream,
                                   adjoint_gradient, &state);
        std::vector<double> shift_gradient(rows * stride);
        shift.run_with_vjp_batch(params, stride, rows, upstream,
                                 shift_gradient);
        for (std::size_t b = 0; b < rows; ++b) {
          const std::string row = label + " row " + std::to_string(b);
          const std::span<const double> row_params{params.data() + b * stride,
                                                   stride};
          const std::span<const double> row_up{upstream.data() + b * qubits,
                                               qubits};
          const oracle::State expected = oracle::run(exact, row_params);
          expect_amplitudes_near(fused.extract_row(b).amplitudes(), expected,
                                 kTol, row + " fused");
          expect_amplitudes_near(unfused.extract_row(b).amplitudes(),
                                 expected, kTol, row + " unfused");
          for (std::size_t w = 0; w < qubits; ++w) {
            EXPECT_NEAR(expectations[b * qubits + w],
                        oracle::expval_z(expected, qubits, w), kTol)
                << row << " <Z" << w << ">";
          }
          const std::vector<double> vjp =
              oracle::vjp(exact, row_params, wires, row_up);
          const std::span<const double> row_adjoint{
              adjoint_gradient.data() + b * stride, stride};
          const std::span<const double> row_shift{
              shift_gradient.data() + b * stride, stride};
          expect_values_near(row_adjoint, vjp, kTol, row + " adjoint vjp");
          expect_values_near(row_shift, vjp, kTol, row + " shift vjp");
        }
      }
    }
  }
}

// --- mixed states ------------------------------------------------------------

quantum::KrausChannel library_channel(oracle::Channel channel, double p) {
  switch (channel) {
    case oracle::Channel::Depolarizing:
      return quantum::channels::depolarizing(p);
    case oracle::Channel::AmplitudeDamping:
      return quantum::channels::amplitude_damping(p);
    case oracle::Channel::PhaseDamping:
      return quantum::channels::phase_damping(p);
    case oracle::Channel::BitFlip:
      return quantum::channels::bit_flip(p);
    case oracle::Channel::PhaseFlip:
      return quantum::channels::phase_flip(p);
  }
  throw std::logic_error("library_channel: unknown channel");
}

TEST(Oracle, NoisyCircuitsMatchOracleDensityMatrices) {
  // Every channel constructor, alone after every gate: ρ from run_noisy,
  // the noisy ⟨Z_w⟩ and the shift-rule VJP against the oracle's
  // U ρ U† / Σ K ρ K† evolution and its exact derivative
  // 2·Re Tr(O Φ(∂U ρ U†)).
  util::Rng rng{5};
  for (const oracle::Channel channel : oracle::kAllChannels) {
    for (std::size_t qubits = 1; qubits <= 6; ++qubits) {
      const RandomCircuit c = random_circuit(qubits, qubits <= 4 ? 6 : 0, rng);
      const oracle::Circuit exact = to_oracle(c.circuit);
      const double p = rng.uniform(0.02, 0.3);
      quantum::NoiseModel noise;
      noise.per_gate_channels.push_back(library_channel(channel, p));
      const std::vector<std::vector<oracle::Matrix>> oracle_noise{
          oracle::kraus(channel, p)};
      const oracle::Matrix rho =
          oracle::run_noisy(exact, c.params, oracle_noise);
      const std::vector<std::size_t> wires = all_wires(qubits);
      const std::vector<double> upstream =
          rng.uniform_vector(qubits, -1.0, 1.0);
      const std::vector<double> vjp =
          oracle::noisy_vjp(exact, c.params, oracle_noise, wires, upstream);
      std::vector<double> expvals;
      for (std::size_t w = 0; w < qubits; ++w) {
        expvals.push_back(oracle::expval_z(rho, qubits, w));
      }
      for (const auto* backend : qhdl::testing::supported_backends()) {
        const qhdl::testing::BackendScope scope{backend->name};
        const std::string label =
            circuit_label(backend->name, qubits, 0) + " " +
            noise.per_gate_channels.front().name;
        const quantum::DensityMatrix got =
            quantum::run_noisy(c.circuit, c.params, noise);
        ASSERT_EQ(got.dimension(), rho.dim) << label;
        for (std::size_t i = 0; i < rho.dim; ++i) {
          for (std::size_t j = 0; j < rho.dim; ++j) {
            EXPECT_NEAR(got.at(i, j).real(), rho(i, j).real(), kTol)
                << label << " rho " << i << "," << j << " (real)";
            EXPECT_NEAR(got.at(i, j).imag(), rho(i, j).imag(), kTol)
                << label << " rho " << i << "," << j << " (imag)";
          }
        }
        expect_values_near(
            quantum::noisy_expvals(c.circuit, c.params, noise, wires),
            expvals, kTol, label + " expvals");
        const quantum::NoisyVjpResult result =
            quantum::noisy_parameter_shift_vjp(c.circuit, c.params, noise,
                                               wires, upstream);
        expect_values_near(result.expectations, expvals, kTol,
                           label + " vjp expectations");
        expect_values_near(result.gradient, vjp, kTol, label + " vjp");
      }
    }
  }
}

TEST(Oracle, PureDensityEvolutionMatchesOracle) {
  // Noiseless gates on a mixed start: ρ = |ψ⟩⟨ψ| of a random state mixed
  // with I/2^q, then every gate type on random wires through
  // DensityMatrix::apply_gate, against U ρ U†.
  util::Rng rng{6};
  for (std::size_t qubits = 1; qubits <= 4; ++qubits) {
    const RandomCircuit c = random_circuit(qubits, 4, rng);
    const StateVector psi = c.circuit.execute(c.params);
    const RandomCircuit gates = random_circuit(qubits, 4, rng);
    const oracle::Circuit exact = to_oracle(gates.circuit);
    oracle::Matrix expected = oracle::projector(to_oracle(psi));
    const double mix = 0.25;
    const double uniform = mix / static_cast<double>(expected.dim);
    for (oracle::Complex& e : expected.entries) e *= 1.0 - mix;
    for (std::size_t i = 0; i < expected.dim; ++i) expected(i, i) += uniform;
    const oracle::Matrix start = expected;
    for (const oracle::Op& op : exact.ops) {
      expected = oracle::conjugate(
          oracle::op_unitary(exact, op, gates.params), expected);
    }
    for (const auto* backend : qhdl::testing::supported_backends()) {
      const qhdl::testing::BackendScope scope{backend->name};
      quantum::DensityMatrix rho{qubits};
      for (std::size_t i = 0; i < start.dim; ++i) {
        for (std::size_t j = 0; j < start.dim; ++j) rho.at(i, j) = start(i, j);
      }
      for (const quantum::Op& op : gates.circuit.ops()) {
        rho.apply_gate(op.type, op.angle(gates.params), op.wire0, op.wire1);
      }
      const std::string label = circuit_label(backend->name, qubits, 0);
      for (std::size_t i = 0; i < expected.dim; ++i) {
        for (std::size_t j = 0; j < expected.dim; ++j) {
          EXPECT_NEAR(std::abs(rho.at(i, j) - expected(i, j)), 0.0, kTol)
              << label << " rho " << i << "," << j;
        }
      }
    }
  }
}

}  // namespace
