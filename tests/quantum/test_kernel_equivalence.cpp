// Golden-state equivalence suite for the specialized gate kernels
// (DESIGN.md §8): every gate type × every qubit position × {3,4,5} qubits,
// the gate dispatch (and its inverse and derivative) must match the dense
// matrix oracle (quantum/oracle.hpp) to 1e-12 on a random non-trivial state
// — plus fused-chain, batched-SoA, and gradient-preservation properties.
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qnn/ansatz.hpp"
#include "qnn/encoding.hpp"
#include "quantum/adjoint_diff.hpp"
#include "quantum/circuit.hpp"
#include "quantum/gates.hpp"
#include "quantum/observable.hpp"
#include "quantum/statevector.hpp"
#include "quantum/statevector_batch.hpp"
#include "test_helpers.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace qhdl;
using quantum::Circuit;
using quantum::GateType;
using quantum::Observable;
using quantum::StateVector;
using quantum::StateVectorBatch;

constexpr double kTol = 1e-12;

using qhdl::testing::to_oracle;

const std::vector<GateType> kAllGates = {
    GateType::PauliX, GateType::PauliY, GateType::PauliZ,
    GateType::Hadamard, GateType::S, GateType::T,
    GateType::RX, GateType::RY, GateType::RZ, GateType::PhaseShift,
    GateType::CNOT, GateType::CZ, GateType::SWAP,
    GateType::CRX, GateType::CRY, GateType::CRZ,
    GateType::RXX, GateType::RYY, GateType::RZZ,
};

/// A reproducible, fully-entangled, non-real state: Hadamard + T on every
/// wire, then a CNOT ring, then per-wire RY with distinct angles.
StateVector random_state(std::size_t qubits, util::Rng& rng) {
  StateVector state{qubits};
  for (std::size_t w = 0; w < qubits; ++w) {
    state.apply_single_qubit(quantum::gates::hadamard(), w);
    state.apply_single_qubit(quantum::gates::t(), w);
    state.apply_single_qubit(quantum::gates::ry(rng.uniform(-2.0, 2.0)), w);
  }
  for (std::size_t w = 0; w + 1 < qubits; ++w) state.apply_cnot(w, w + 1);
  return state;
}

void expect_states_close(const StateVector& a, const StateVector& b,
                         double tolerance, const std::string& label) {
  qhdl::testing::expect_amplitudes_near(a.amplitudes(), b.amplitudes(),
                                        tolerance, label);
}

/// The oracle's full-register matrix of `type` on (w0, w1): the gate, its
/// inverse (U†) or its derivative (∂U/∂θ).
enum class Form { Gate, Inverse, Derivative };
oracle::Matrix oracle_matrix(Form form, GateType type, double theta,
                             std::size_t qubits, std::size_t w0,
                             std::size_t w1) {
  const oracle::Gate gate = to_oracle(type);
  if (form == Form::Derivative) {
    return oracle::embed(oracle::local_derivative(gate, theta), qubits, w0,
                         w1);
  }
  const oracle::Matrix u =
      oracle::embed(oracle::local_unitary(gate, theta), qubits, w0, w1);
  return form == Form::Inverse ? oracle::dagger(u) : u;
}

/// The library's own 2x2 for a single-qubit `form`, as the dispatch builds
/// it: what the dense kernel must reproduce per row.
quantum::Mat2 library_matrix(Form form, GateType type, double theta) {
  switch (form) {
    case Form::Gate:
      return quantum::gates::matrix_for(type, theta);
    case Form::Inverse:
      return quantum::gate_is_parameterized(type)
                 ? quantum::gates::matrix_for(type, -theta)
                 : quantum::gates::matrix_for(type, 0.0).dagger();
    case Form::Derivative:
      return quantum::gates::derivative_for(type, theta);
  }
  throw std::logic_error("library_matrix: unknown form");
}

std::string case_label(GateType type, std::size_t qubits, std::size_t w0,
                       std::size_t w1) {
  std::string label = quantum::gate_name(type) + " q=" +
                      std::to_string(qubits) + " w0=" + std::to_string(w0);
  if (w1 != SIZE_MAX) label += " w1=" + std::to_string(w1);
  return label;
}

/// Applies apply_fn to a copy of `initial` and checks 1e-12 agreement with
/// the oracle's dense matvec by `expected`.
template <typename ApplyFn>
void check_against_oracle(const StateVector& initial, const ApplyFn& apply_fn,
                          const oracle::Matrix& expected,
                          const std::string& label) {
  StateVector state = initial;
  apply_fn(state);
  const oracle::State want = oracle::matvec(expected, to_oracle(initial));
  qhdl::testing::expect_amplitudes_near(state.amplitudes(), want, kTol,
                                        label);
}

/// A B = 3 batch of copies of `initial` with a distinct angle per row
/// (`apply_batch`): each row must be bit-identical to the one-row call
/// `apply_single` with that row's angle (a per-row single-qubit gate runs
/// the per-row dense 2x2, its one-row call the shared kernel). For a
/// single-qubit gate, each row must also be bit-identical to the shared
/// dense 2x2 kernel run with that row's library matrix (two-qubit gates'
/// structure kernels have no dense 2x2 twin).
template <typename BatchFn, typename SingleFn>
void check_rows_match_one_row_calls(const StateVector& initial, double theta,
                                    const BatchFn& apply_batch,
                                    const SingleFn& apply_single,
                                    Form form, GateType type, std::size_t w0,
                                    const std::string& label) {
  const std::vector<double> angles = {theta, theta + 0.5, -theta - 0.25};
  const bool dense_twin = quantum::gate_arity(type) == 1;
  const std::string backend = util::simd::active_backend().name;
  StateVectorBatch batch{initial.num_qubits(), angles.size()};
  for (std::size_t b = 0; b < angles.size(); ++b) batch.set_row(b, initial);
  apply_batch(batch, std::span<const double>{angles});
  for (std::size_t b = 0; b < angles.size(); ++b) {
    StateVector single = initial;
    apply_single(single, angles[b]);
    StateVector dense = initial;
    if (dense_twin) {
      dense.apply_single_qubit(library_matrix(form, type, angles[b]), w0);
    }
    const StateVector row = batch.extract_row(b);
    for (std::size_t i = 0; i < row.dimension(); ++i) {
      EXPECT_EQ(row.amplitudes()[i], single.amplitudes()[i])
          << label << " [" << backend << "] row " << b << " amplitude " << i;
      if (dense_twin) {
        EXPECT_EQ(row.amplitudes()[i], dense.amplitudes()[i])
            << label << " [" << backend << "] row " << b
            << " vs dense 2x2, amplitude " << i;
      }
    }
  }
}

/// Every check_* above for one gate `form` at (w0, w1) on a fresh random
/// state: the one-row call against the oracle, and the per-row batch
/// against the one-row calls and the dense 2x2.
void check_form(Form form, GateType type, double theta, std::size_t qubits,
                std::size_t w0, std::size_t w1, util::Rng& rng) {
  const auto apply = [form, type, w0, w1](StateVector& s, double angle) {
    switch (form) {
      case Form::Gate:
        quantum::apply_gate(s, type, angle, w0, w1);
        return;
      case Form::Inverse:
        quantum::apply_gate_inverse(s, type, angle, w0, w1);
        return;
      case Form::Derivative:
        quantum::apply_gate_derivative(s, type, angle, w0, w1);
        return;
    }
  };
  const auto apply_batch = [form, type, w0, w1](
                               StateVectorBatch& s,
                               std::span<const double> angles) {
    switch (form) {
      case Form::Gate:
        quantum::apply_gate_batch(s, type, angles, w0, w1);
        return;
      case Form::Inverse:
        quantum::apply_gate_inverse_batch(s, type, angles, w0, w1);
        return;
      case Form::Derivative:
        quantum::apply_gate_derivative_batch(s, type, angles, w0, w1);
        return;
    }
  };
  const char* prefix = form == Form::Gate      ? ""
                       : form == Form::Inverse ? "inverse "
                                               : "derivative ";
  const std::string label = prefix + case_label(type, qubits, w0, w1);
  const StateVector initial = random_state(qubits, rng);
  check_against_oracle(
      initial, [&](StateVector& s) { apply(s, theta); },
      oracle_matrix(form, type, theta, qubits, w0, w1), label);
  check_rows_match_one_row_calls(initial, theta, apply_batch, apply, form,
                                 type, w0, "rows " + label);
}

TEST(KernelEquivalence, EveryGateEveryPositionMatchesGeneric) {
  util::Rng rng{123};
  for (const std::size_t qubits : {3u, 4u, 5u}) {
    for (const GateType type : kAllGates) {
      const double theta = rng.uniform(-3.0, 3.0);
      for (std::size_t w0 = 0; w0 < qubits; ++w0) {
        if (quantum::gate_arity(type) == 1) {
          check_form(Form::Gate, type, theta, qubits, w0, SIZE_MAX, rng);
          continue;
        }
        for (std::size_t w1 = 0; w1 < qubits; ++w1) {
          if (w1 != w0) check_form(Form::Gate, type, theta, qubits, w0, w1,
                                   rng);
        }
      }
    }
  }
}

TEST(KernelEquivalence, InverseGatesMatchGeneric) {
  util::Rng rng{321};
  for (const std::size_t qubits : {3u, 5u}) {
    for (const GateType type : kAllGates) {
      const double theta = rng.uniform(-3.0, 3.0);
      const std::size_t w0 = rng.index(qubits);
      std::size_t w1 = SIZE_MAX;
      if (quantum::gate_arity(type) == 2) {
        w1 = (w0 + 1 + rng.index(qubits - 1)) % qubits;
      }
      check_form(Form::Inverse, type, theta, qubits, w0, w1, rng);
    }
  }
}

TEST(KernelEquivalence, InverseUndoesGate) {
  util::Rng rng{77};
  for (const GateType type : kAllGates) {
    const std::size_t qubits = 4;
    const double theta = rng.uniform(-3.0, 3.0);
    const std::size_t w0 = rng.index(qubits);
    std::size_t w1 = SIZE_MAX;
    if (quantum::gate_arity(type) == 2) {
      w1 = (w0 + 1 + rng.index(qubits - 1)) % qubits;
    }
    const StateVector initial = random_state(qubits, rng);
    StateVector state = initial;
    quantum::apply_gate(state, type, theta, w0, w1);
    quantum::apply_gate_inverse(state, type, theta, w0, w1);
    expect_states_close(state, initial, kTol,
                        "U†U " + case_label(type, qubits, w0, w1));
  }
}

TEST(KernelEquivalence, DerivativeKernelsMatchGeneric) {
  util::Rng rng{55};
  const std::vector<GateType> parameterized = {
      GateType::RX,  GateType::RY,  GateType::RZ,  GateType::PhaseShift,
      GateType::CRX, GateType::CRY, GateType::CRZ, GateType::RXX,
      GateType::RYY, GateType::RZZ};
  for (const std::size_t qubits : {3u, 4u, 5u}) {
    for (const GateType type : parameterized) {
      const double theta = rng.uniform(-3.0, 3.0);
      for (std::size_t w0 = 0; w0 < qubits; ++w0) {
        std::size_t w1 = SIZE_MAX;
        if (quantum::gate_arity(type) == 2) w1 = (w0 + 1) % qubits;
        check_form(Form::Derivative, type, theta, qubits, w0, w1, rng);
      }
    }
  }
}

Circuit make_sel_circuit(std::size_t qubits, std::size_t depth,
                         std::vector<double>& params, util::Rng& rng) {
  Circuit circuit{qubits};
  qnn::AngleEncoding encoding;
  std::size_t offset = encoding.append(circuit, qubits);
  offset += qnn::append_ansatz(circuit, qnn::AnsatzKind::StronglyEntangling,
                               qubits, depth, offset);
  params = rng.uniform_vector(offset, -2.0, 2.0);
  return circuit;
}

TEST(KernelEquivalence, FusedCircuitRunMatchesGeneric) {
  // SEL rot-triples produce 3-gate chains on each wire — the fusion path.
  util::Rng rng{99};
  for (const std::size_t qubits : {3u, 4u, 5u}) {
    std::vector<double> params;
    const Circuit circuit = make_sel_circuit(qubits, 4, params, rng);
    StateVector fused{qubits};
    util::Metrics::global().reset();
    circuit.run(fused, params);
    const util::MetricsSnapshot stats = util::Metrics::global().snapshot();
    EXPECT_GT(stats.at("kernel.fused"), 0u) << "SEL rot chains should fuse";
    EXPECT_GT(stats.at("kernel.fused_gates"), stats.at("kernel.fused"))
        << "each fused chain absorbs >= 2 gates";
    // The same plan's flat stream, op by op, and the oracle.
    StateVector unfused{qubits};
    qhdl::testing::run_plan_unfused(circuit, unfused, params, params.size());
    const std::string label = "SEL q=" + std::to_string(qubits);
    expect_states_close(fused, unfused, kTol, label + " vs unfused");
    qhdl::testing::expect_amplitudes_near(
        fused.amplitudes(), oracle::run(to_oracle(circuit), params), kTol,
        label + " vs oracle");
  }
}

TEST(KernelEquivalence, SpecializedExpectationsBitIdenticalNoFusion) {
  // On a fusion-free circuit (no adjacent same-wire single-qubit chains),
  // the specialized kernels reproduce the expectations of the same ops with
  // every single-qubit gate run as the dense 2x2 of its gates:: matrix
  // bit-for-bit: each kernel performs the same operations in the same
  // order as the dense matvec. Both agree with the oracle to 1e-12.
  util::Rng rng{42};
  const std::size_t qubits = 4;
  Circuit circuit{qubits};
  circuit.parameterized_gate(GateType::RX, 0, 0);
  circuit.parameterized_gate(GateType::RY, 1, 1);
  circuit.parameterized_gate(GateType::RZ, 2, 2);
  circuit.parameterized_gate(GateType::PhaseShift, 3, 3);
  circuit.gate(GateType::CNOT, 0, 1);
  circuit.gate(GateType::CZ, 2, 3);
  const auto params = rng.uniform_vector(4, -2.0, 2.0);

  const StateVector psi = circuit.execute(params);
  StateVector dense{qubits};
  for (const quantum::Op& op : circuit.ops()) {
    if (quantum::gate_arity(op.type) == 1) {
      dense.apply_single_qubit(
          quantum::gates::matrix_for(op.type, op.angle(params)), op.wire0);
    } else {
      quantum::apply_gate(dense, op.type, op.angle(params), op.wire0,
                          op.wire1);
    }
  }
  const oracle::State expected = oracle::run(to_oracle(circuit), params);
  for (std::size_t w = 0; w < qubits; ++w) {
    EXPECT_DOUBLE_EQ(psi.expval_pauli_z(w), dense.expval_pauli_z(w))
        << "wire " << w;
    EXPECT_NEAR(psi.expval_pauli_z(w), oracle::expval_z(expected, qubits, w),
                kTol)
        << "wire " << w;
  }
}

TEST(KernelEquivalence, BatchedRunMatchesPerRow) {
  util::Rng rng{7};
  for (const std::size_t qubits : {3u, 4u, 5u}) {
    std::vector<double> params_proto;
    const Circuit circuit = make_sel_circuit(qubits, 3, params_proto, rng);
    const std::size_t stride = params_proto.size();
    const std::size_t batch = 6;
    // Rows share ansatz weights but differ in encoding angles (the hybrid
    // layer's shape) — exercises shared AND per-row kernels.
    std::vector<double> params(batch * stride);
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t p = 0; p < stride; ++p) {
        params[b * stride + p] =
            p < qubits ? rng.uniform(-2.0, 2.0) : params_proto[p];
      }
    }
    StateVectorBatch sv_batch{qubits, batch};
    circuit.run_batch(sv_batch, params, stride);
    for (std::size_t b = 0; b < batch; ++b) {
      // Per-row reference without fusion: gate-by-gate dispatch.
      const std::span<const double> row_params{params.data() + b * stride,
                                               stride};
      expect_states_close(sv_batch.extract_row(b),
                          qhdl::testing::run_uncompiled(circuit, row_params),
                          kTol, "batch row " + std::to_string(b));
    }
  }
}

TEST(KernelEquivalence, BatchedVjpMatchesPerRowVjp) {
  util::Rng rng{8};
  const std::size_t qubits = 4;
  std::vector<double> params_proto;
  const Circuit circuit = make_sel_circuit(qubits, 3, params_proto, rng);
  const std::size_t stride = params_proto.size();
  const std::size_t batch = 5;
  std::vector<double> params(batch * stride);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t p = 0; p < stride; ++p) {
      params[b * stride + p] =
          p < qubits ? rng.uniform(-2.0, 2.0) : params_proto[p];
    }
  }
  std::vector<Observable> observables;
  for (std::size_t w = 0; w < qubits; ++w) {
    observables.push_back(Observable::pauli_z(w));
  }
  std::vector<double> upstream(batch * qubits);
  for (auto& u : upstream) u = rng.uniform(-1.0, 1.0);

  std::vector<double> gradient(batch * stride);
  quantum::adjoint_vjp_batch(circuit, params, stride, batch, observables,
                             upstream, gradient);
  // The batched forward's expectations, as the hybrid layer computes them.
  std::vector<std::vector<double>> diagonals;
  for (const Observable& obs : observables) {
    diagonals.push_back(obs.diagonal(qubits));
  }
  StateVectorBatch forward{qubits, batch};
  circuit.run_batch(forward, params, stride);
  std::vector<double> expectations(batch * qubits);
  quantum::diagonal_expectations_batch(forward, diagonals, expectations);

  for (std::size_t b = 0; b < batch; ++b) {
    const std::span<const double> row_params{params.data() + b * stride,
                                             stride};
    const std::span<const double> row_up{upstream.data() + b * qubits,
                                         qubits};
    const auto row =
        quantum::adjoint_vjp(circuit, row_params, observables, row_up);
    for (std::size_t k = 0; k < qubits; ++k) {
      EXPECT_NEAR(expectations[b * qubits + k],
                  row.expectations[k], kTol)
          << "row " << b << " obs " << k;
    }
    for (std::size_t p = 0; p < stride; ++p) {
      EXPECT_NEAR(gradient[b * stride + p], row.gradient[p], kTol)
          << "row " << b << " param " << p;
    }
  }
}

TEST(KernelEquivalence, FusionPreservesAdjointGradients) {
  // Property: gradients computed with specialized kernels + fusion in the
  // forward pass agree with the oracle's exact derivative matrices to 1e-12
  // for every ansatz.
  util::Rng rng{64};
  for (const auto kind :
       {qnn::AnsatzKind::StronglyEntangling, qnn::AnsatzKind::BasicEntangler,
        qnn::AnsatzKind::HardwareEfficient}) {
    const std::size_t qubits = 4;
    Circuit circuit{qubits};
    qnn::AngleEncoding encoding;
    std::size_t offset = encoding.append(circuit, qubits);
    offset += qnn::append_ansatz(circuit, kind, qubits, 3, offset);
    const auto params = rng.uniform_vector(offset, -2.0, 2.0);
    std::vector<Observable> observables;
    std::vector<std::size_t> wires;
    std::vector<double> upstream;
    for (std::size_t w = 0; w < qubits; ++w) {
      observables.push_back(Observable::pauli_z(w));
      wires.push_back(w);
      upstream.push_back(rng.uniform(-1.0, 1.0));
    }
    const quantum::AdjointVjpResult specialized =
        quantum::adjoint_vjp(circuit, params, observables, upstream);
    const oracle::Circuit exact = to_oracle(circuit);
    const std::vector<double> gradient =
        oracle::vjp(exact, params, wires, upstream);
    ASSERT_EQ(specialized.gradient.size(), gradient.size());
    for (std::size_t p = 0; p < gradient.size(); ++p) {
      EXPECT_NEAR(specialized.gradient[p], gradient[p], kTol)
          << qnn::ansatz_name(kind) << " param " << p;
    }
    const oracle::State psi = oracle::run(exact, params);
    for (std::size_t k = 0; k < observables.size(); ++k) {
      EXPECT_NEAR(specialized.expectations[k],
                  oracle::expval_z(psi, qubits, wires[k]), kTol)
          << qnn::ansatz_name(kind) << " obs " << k;
    }
  }
}

TEST(KernelEquivalence, DispatchCountersClassifyCircuit) {
  util::Metrics::global().reset();
  StateVector state{3};
  quantum::apply_gate(state, GateType::RZ, 0.3, 0);
  quantum::apply_gate(state, GateType::RX, 0.4, 1);
  quantum::apply_gate(state, GateType::PauliX, 0.0, 2);
  quantum::apply_gate(state, GateType::Hadamard, 0.0, 0);
  quantum::apply_gate(state, GateType::CNOT, 0.0, 0, 1);
  quantum::apply_gate(state, GateType::CRY, 0.5, 1, 2);
  quantum::apply_gate(state, GateType::RZZ, 0.6, 0, 2);
  const util::MetricsSnapshot stats = util::Metrics::global().snapshot();
  EXPECT_EQ(stats.at("kernel.diagonal"), 1u);
  EXPECT_EQ(stats.at("kernel.permutation"), 2u);  // PauliX + CNOT
  EXPECT_EQ(stats.at("kernel.generic"), 2u);      // RX + Hadamard
  EXPECT_EQ(stats.at("kernel.controlled"), 1u);
  EXPECT_EQ(stats.at("kernel.double_flip"), 1u);
  EXPECT_EQ(stats.at("kernel.two_qubit_dense"), 0u);
}

}  // namespace
