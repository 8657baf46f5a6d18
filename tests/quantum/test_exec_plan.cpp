// Compiled execution plans (DESIGN.md §12): golden equivalence of plan
// execution against a test-local uncompiled reference (the circuit's ops
// applied one by one on the same backend) for every gate × position ×
// {3,4,5} qubits, fusion/cancellation lowering invariants, the unfused
// replay of the same plan's flat stream, the per-circuit plan memo
// (independent or racing compiles give identical results, mutation
// invalidates it), and the strict parameter size contract the compile
// pass relies on.
#include <atomic>
#include <memory>
#include <string>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "qnn/ansatz.hpp"
#include "qnn/encoding.hpp"
#include "quantum/adjoint_diff.hpp"
#include "quantum/circuit.hpp"
#include "quantum/exec_plan.hpp"
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
using quantum::ExecutionPlan;
using quantum::FusedOp;
using quantum::GateType;
using quantum::Observable;
using quantum::StateVector;
using quantum::StateVectorBatch;

constexpr double kTol = 1e-12;

const std::vector<GateType> kAllGates = {
    GateType::PauliX, GateType::PauliY, GateType::PauliZ,
    GateType::Hadamard, GateType::S, GateType::T,
    GateType::RX, GateType::RY, GateType::RZ, GateType::PhaseShift,
    GateType::CNOT, GateType::CZ, GateType::SWAP,
    GateType::CRX, GateType::CRY, GateType::CRZ,
    GateType::RXX, GateType::RYY, GateType::RZZ,
};

void expect_states_close(const StateVector& a, const StateVector& b,
                         double tolerance, const std::string& label) {
  ASSERT_EQ(a.dimension(), b.dimension()) << label;
  for (std::size_t i = 0; i < a.dimension(); ++i) {
    EXPECT_NEAR(a.amplitudes()[i].real(), b.amplitudes()[i].real(),
                tolerance)
        << label << " amplitude " << i << " (real)";
    EXPECT_NEAR(a.amplitudes()[i].imag(), b.amplitudes()[i].imag(),
                tolerance)
        << label << " amplitude " << i << " (imag)";
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

using qhdl::testing::run_uncompiled;

/// Runs `circuit` through its plan and through run_uncompiled from
/// |0...0> and checks amplitude agreement to `tolerance` (1e-12 where the
/// plan fuses gates; 0, i.e. bit-identity, where it does not).
void check_compiled_matches_uncompiled(const Circuit& circuit,
                                       std::span<const double> params,
                                       const std::string& label,
                                       double tolerance = kTol) {
  expect_states_close(circuit.execute(params),
                      run_uncompiled(circuit, params), tolerance, label);
}

TEST(ExecPlan, EveryGateEveryPositionMatchesUncompiled) {
  // Golden suite: each gate at each position, sandwiched between a mixing
  // prefix (so the state is non-trivial and complex) and neighbors that
  // exercise the chain fuser around it.
  util::Rng rng{2024};
  for (const std::size_t qubits : {3u, 4u, 5u}) {
    for (const GateType type : kAllGates) {
      const std::size_t arity = quantum::gate_arity(type);
      for (std::size_t w0 = 0; w0 < qubits; ++w0) {
        const std::size_t w1 =
            arity == 2 ? (w0 + 1 + rng.index(qubits - 1)) % qubits : SIZE_MAX;
        Circuit circuit{qubits};
        std::size_t slot = 0;
        for (std::size_t w = 0; w < qubits; ++w) {
          circuit.gate(GateType::Hadamard, w);
          circuit.parameterized_gate(GateType::RY, slot++, w);
        }
        for (std::size_t w = 0; w + 1 < qubits; ++w) {
          circuit.gate(GateType::CNOT, w, w + 1);
        }
        if (quantum::gate_is_parameterized(type)) {
          circuit.parameterized_gate(type, slot++, w0, w1);
        } else {
          circuit.gate(type, w0, w1);
        }
        circuit.parameterized_gate(GateType::RX, slot++, w0);
        const auto params = rng.uniform_vector(slot, -3.0, 3.0);
        check_compiled_matches_uncompiled(
            circuit, params,
            quantum::gate_name(type) + " q=" + std::to_string(qubits) +
                " w0=" + std::to_string(w0));
      }
    }
  }
}

TEST(ExecPlan, SelAnsatzMatchesUncompiledAllDepths) {
  util::Rng rng{31};
  for (const std::size_t qubits : {3u, 4u, 5u}) {
    for (const std::size_t depth : {1u, 4u, 10u}) {
      std::vector<double> params;
      const Circuit circuit = make_sel_circuit(qubits, depth, params, rng);
      check_compiled_matches_uncompiled(
          circuit, params,
          "SEL q=" + std::to_string(qubits) + " d=" + std::to_string(depth));
    }
  }
}

TEST(ExecPlan, RunBatchBitIdenticalToUncompiled) {
  util::Rng rng{17};
  for (const std::size_t qubits : {3u, 5u}) {
    std::vector<double> proto;
    const Circuit circuit = make_sel_circuit(qubits, 3, proto, rng);
    const std::size_t stride = proto.size();
    const std::size_t batch = 6;
    std::vector<double> params(batch * stride);
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t p = 0; p < stride; ++p) {
        params[b * stride + p] =
            p < qubits ? rng.uniform(-2.0, 2.0) : proto[p];
      }
    }
    StateVectorBatch compiled{qubits, batch};
    circuit.run_batch(compiled, params, stride);
    for (std::size_t b = 0; b < batch; ++b) {
      const std::span<const double> row_params{params.data() + b * stride,
                                               stride};
      const std::string label = "row " + std::to_string(b);
      const StateVector row = compiled.extract_row(b);
      // The batch path runs the same plan as the scalar path, so each row
      // is bit-identical to it; the SEL rot chains fuse, so the uncompiled
      // per-op reference agrees to 1e-12.
      expect_states_close(row, circuit.execute(row_params), 0.0,
                          label + " vs scalar plan");
      expect_states_close(row, run_uncompiled(circuit, row_params), kTol,
                          label + " vs uncompiled");
    }
  }
}

TEST(ExecPlan, AdjointVjpBitIdenticalToUncompiled) {
  // adjoint_vjp sweeps the plan's flat stream. An uncompiled reverse sweep
  // over the circuit's own op list, seeded from the same forward state,
  // must give bit-identical gradients: the two lists differ only by the
  // cancelled CNOT pair, which is an exact permutation.
  util::Rng rng{23};
  const std::size_t qubits = 4;
  std::vector<double> params;
  Circuit circuit = make_sel_circuit(qubits, 3, params, rng);
  circuit.gate(GateType::CNOT, 1, 2);
  circuit.gate(GateType::CNOT, 1, 2);
  ASSERT_EQ(circuit.compiled_plan()->cancelled_op_count(), 2u);
  std::vector<Observable> observables;
  std::vector<double> upstream;
  for (std::size_t w = 0; w < qubits; ++w) {
    observables.push_back(Observable::pauli_z(w));
    upstream.push_back(rng.uniform(-1.0, 1.0));
  }
  const quantum::AdjointVjpResult compiled =
      quantum::adjoint_vjp(circuit, params, observables, upstream);

  StateVector phi = circuit.execute(params);
  std::vector<double> expectations;
  StateVector lambda{qubits};
  StateVector scratch{qubits};
  for (auto& a : lambda.amplitudes()) a = quantum::Complex{0.0, 0.0};
  for (std::size_t k = 0; k < observables.size(); ++k) {
    expectations.push_back(observables[k].expectation(phi));
    observables[k].apply(phi, scratch);
    for (std::size_t i = 0; i < lambda.dimension(); ++i) {
      lambda.amplitudes()[i] += upstream[k] * scratch.amplitudes()[i];
    }
  }
  std::vector<double> gradient(circuit.parameter_count(), 0.0);
  for (std::size_t idx = circuit.op_count(); idx-- > 0;) {
    const quantum::Op& op = circuit.ops()[idx];
    const double angle = op.angle(params);
    quantum::apply_gate_inverse(phi, op.type, angle, op.wire0, op.wire1);
    if (op.param_index.has_value()) {
      StateVector mu = phi;
      quantum::apply_gate_derivative(mu, op.type, angle, op.wire0, op.wire1);
      gradient[*op.param_index] += 2.0 * lambda.inner_product(mu).real();
    }
    quantum::apply_gate_inverse(lambda, op.type, angle, op.wire0, op.wire1);
  }

  ASSERT_EQ(compiled.gradient.size(), gradient.size());
  for (std::size_t p = 0; p < gradient.size(); ++p) {
    EXPECT_EQ(compiled.gradient[p], gradient[p]) << "param " << p;
  }
  for (std::size_t k = 0; k < observables.size(); ++k) {
    EXPECT_EQ(compiled.expectations[k], expectations[k]) << "obs " << k;
  }
}

TEST(ExecPlan, InvolutionPairsCancel) {
  // X·X, CNOT·CNOT, CZ·CZ (reversed wires too — CZ is symmetric), SWAP·SWAP
  // are pure permutations/sign flips; the peephole pass removes them and the
  // compiled state still matches the uncompiled one exactly (the survivors
  // sit on different wires, so nothing fuses).
  Circuit circuit{3};
  circuit.gate(GateType::Hadamard, 0);
  circuit.gate(GateType::PauliX, 1);
  circuit.gate(GateType::PauliX, 1);
  circuit.gate(GateType::CNOT, 0, 1);
  circuit.gate(GateType::CNOT, 0, 1);
  circuit.gate(GateType::CZ, 1, 2);
  circuit.gate(GateType::CZ, 2, 1);
  circuit.gate(GateType::SWAP, 0, 2);
  circuit.gate(GateType::SWAP, 2, 0);
  circuit.parameterized_gate(GateType::RY, 0, 2);

  const auto plan = quantum::compile_circuit(circuit);
  EXPECT_EQ(plan->source_op_count(), 10u);
  EXPECT_EQ(plan->cancelled_op_count(), 8u);
  EXPECT_EQ(plan->flat_ops().size(), 2u);  // Hadamard + RY survive

  const std::vector<double> params = {0.37};
  check_compiled_matches_uncompiled(circuit, params, "involution pairs",
                                    0.0);
}

TEST(ExecPlan, CnotReversedWiresDoesNotCancel) {
  // CNOT(0,1)·CNOT(1,0) is NOT identity — the cancellation must compare
  // control and target exactly, not as an unordered pair.
  Circuit circuit{2};
  circuit.gate(GateType::Hadamard, 0);
  circuit.gate(GateType::CNOT, 0, 1);
  circuit.gate(GateType::CNOT, 1, 0);
  const auto plan = quantum::compile_circuit(circuit);
  EXPECT_EQ(plan->cancelled_op_count(), 0u);
  check_compiled_matches_uncompiled(circuit, {}, "reversed CNOT");
}

TEST(ExecPlan, FixedSingleQubitChainsPrecompute) {
  // H·S·H on one wire: fixed, not all diagonal -> one FixedChain op.
  Circuit circuit{2};
  circuit.gate(GateType::Hadamard, 0);
  circuit.gate(GateType::S, 0);
  circuit.gate(GateType::Hadamard, 0);
  const auto plan = quantum::compile_circuit(circuit);
  ASSERT_EQ(plan->fused_ops().size(), 1u);
  EXPECT_EQ(plan->fused_ops()[0].kind, FusedOp::Kind::FixedChain);
  EXPECT_EQ(plan->fused_ops()[0].gate_count, 3u);
  check_compiled_matches_uncompiled(circuit, {}, "H S H fixed chain");
}

TEST(ExecPlan, DiagonalChainsPrecomputeDiagonal) {
  // S·T·Z on one wire: fixed and all diagonal -> one DiagonalChain op.
  Circuit circuit{2};
  circuit.gate(GateType::S, 1);
  circuit.gate(GateType::T, 1);
  circuit.gate(GateType::PauliZ, 1);
  const auto plan = quantum::compile_circuit(circuit);
  ASSERT_EQ(plan->fused_ops().size(), 1u);
  EXPECT_EQ(plan->fused_ops()[0].kind, FusedOp::Kind::DiagonalChain);
  check_compiled_matches_uncompiled(circuit, {}, "S T Z diagonal chain");
}

TEST(ExecPlan, AdjacentFixedTwoQubitGatesFuseToPair) {
  // CNOT(0,1)·CZ(0,1) and the wire-order-flipped CNOT(0,1)·CZ(1,0) both
  // collapse to one precomputed 4x4; parameterized two-qubit gates do not.
  {
    Circuit circuit{3};
    circuit.gate(GateType::Hadamard, 0);
    circuit.gate(GateType::Hadamard, 1);
    circuit.gate(GateType::CNOT, 0, 1);
    circuit.gate(GateType::CZ, 0, 1);
    const auto plan = quantum::compile_circuit(circuit);
    bool saw_pair = false;
    for (const FusedOp& op : plan->fused_ops()) {
      if (op.kind == FusedOp::Kind::FusedPair) {
        saw_pair = true;
        EXPECT_EQ(op.gate_count, 2u);
      }
    }
    EXPECT_TRUE(saw_pair);
    check_compiled_matches_uncompiled(circuit, {}, "CNOT CZ same order");
  }
  {
    Circuit circuit{3};
    circuit.gate(GateType::Hadamard, 0);
    circuit.gate(GateType::Hadamard, 1);
    circuit.gate(GateType::CNOT, 0, 1);
    circuit.gate(GateType::CZ, 1, 0);
    const auto plan = quantum::compile_circuit(circuit);
    bool saw_pair = false;
    for (const FusedOp& op : plan->fused_ops()) {
      if (op.kind == FusedOp::Kind::FusedPair) saw_pair = true;
    }
    EXPECT_TRUE(saw_pair);
    check_compiled_matches_uncompiled(circuit, {}, "CNOT CZ flipped order");
  }
  {
    Circuit circuit{3};
    circuit.gate(GateType::Hadamard, 0);
    circuit.parameterized_gate(GateType::CRX, 0, 0, 1);
    circuit.parameterized_gate(GateType::CRZ, 1, 0, 1);
    const auto plan = quantum::compile_circuit(circuit);
    for (const FusedOp& op : plan->fused_ops()) {
      EXPECT_NE(op.kind, FusedOp::Kind::FusedPair)
          << "parameterized two-qubit gates must not pair-fuse";
    }
    const std::vector<double> cr_params = {0.4, -0.9};
    check_compiled_matches_uncompiled(circuit, cr_params,
                                      "parameterized CR chain");
  }
}

TEST(ExecPlan, RecompiledPlansGiveIdenticalResultsAcrossThreads) {
  // Each circuit memoizes its own plan, so recompiling is routine: every
  // independently built circuit compiles its own plan, and concurrent
  // first runs on one unprimed circuit race to fill its memo. Every path
  // must produce the same amplitudes and adjoint gradients, bit for bit.
  constexpr std::size_t kQubits = 4;
  constexpr std::size_t kThreads = 8;
  const auto build = [](std::vector<double>& params) {
    util::Rng rng{7};
    return make_sel_circuit(kQubits, 3, params, rng);
  };
  std::vector<Observable> observables;
  std::vector<double> upstream;
  for (std::size_t w = 0; w < kQubits; ++w) {
    observables.push_back(Observable::pauli_z(w));
    upstream.push_back(0.25 * static_cast<double>(w + 1));
  }
  struct Result {
    std::vector<quantum::Complex> amplitudes;
    std::vector<double> gradient;
  };
  const auto evaluate = [&](const Circuit& circuit,
                            std::span<const double> params) {
    StateVector state{kQubits};
    circuit.run(state, params);
    const auto amps = state.amplitudes();
    return Result{{amps.begin(), amps.end()},
                  quantum::adjoint_vjp(circuit, params, observables, upstream)
                      .gradient};
  };
  std::vector<double> params;
  const Circuit baseline = build(params);
  const Result expected = evaluate(baseline, params);

  // Part 1: each thread builds the same structure and compiles its own.
  std::vector<std::shared_ptr<const ExecutionPlan>> plans(kThreads);
  std::vector<Result> own(kThreads);
  {
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        std::vector<double> p;
        const Circuit circuit = build(p);
        plans[t] = circuit.compiled_plan();
        own[t] = evaluate(circuit, p);
      });
    }
    for (auto& w : workers) w.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_NE(plans[t], nullptr) << "thread " << t;
    if (t > 0) {
      EXPECT_NE(plans[t], plans[0]) << "no shared plan store";
    }
    EXPECT_EQ(own[t].amplitudes, expected.amplitudes) << "thread " << t;
    EXPECT_EQ(own[t].gradient, expected.gradient) << "thread " << t;
  }

  // Part 2: concurrent first run() on one unprimed circuit.
  const Circuit shared = build(params);
  std::vector<Result> raced(kThreads);
  std::vector<std::shared_ptr<const ExecutionPlan>> raced_plans(kThreads);
  {
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        raced[t] = evaluate(shared, params);
        raced_plans[t] = shared.compiled_plan();
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(raced[t].amplitudes, expected.amplitudes) << "thread " << t;
    EXPECT_EQ(raced[t].gradient, expected.gradient) << "thread " << t;
    EXPECT_EQ(raced_plans[t], shared.compiled_plan())
        << "racing first runs compile once";
  }
}

TEST(ExecPlan, MemoizedSlotInvalidatesOnMutation) {
  Circuit circuit{3};
  circuit.gate(GateType::Hadamard, 0);
  const auto before = circuit.compiled_plan();
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(circuit.compiled_plan(), before) << "stable while unmutated";
  circuit.gate(GateType::CNOT, 0, 1);
  const auto after = circuit.compiled_plan();
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after, before);
  EXPECT_EQ(before->source_op_count(), 1u);
  EXPECT_EQ(after->source_op_count(), 2u);
  const Circuit copy = circuit;
  EXPECT_EQ(copy.compiled_plan(), after) << "copies share the memo";
}

TEST(ExecPlan, FlatStreamReplaysTheMemoizedPlan) {
  // The memoized plan's flat stream replayed op by op (the test-only
  // unfused executor): one compile, no fused chains, and amplitudes within
  // 1e-12 of the fused run and of the dense-matrix oracle, under every
  // backend.
  util::Rng rng{37};
  std::vector<double> params;
  const Circuit circuit = make_sel_circuit(4, 3, params, rng);
  const std::shared_ptr<const ExecutionPlan> plan = circuit.compiled_plan();
  ASSERT_NE(plan, nullptr);
  const qhdl::oracle::State expected =
      qhdl::oracle::run(qhdl::testing::to_oracle(circuit), params);
  for (const auto* backend : qhdl::testing::supported_backends()) {
    const qhdl::testing::BackendScope scope{backend->name};
    const std::string label = backend->name;
    StateVector unfused{4};
    util::Metrics::global().reset();
    qhdl::testing::run_plan_unfused(circuit, unfused, params, params.size());
    EXPECT_EQ(qhdl::testing::global_count("kernel.fused"), 0u) << label;
    EXPECT_GT(qhdl::testing::global_count("kernel.generic"), 0u) << label;
    expect_states_close(unfused, circuit.execute(params), kTol,
                        label + " unfused vs fused");
    qhdl::testing::expect_amplitudes_near(unfused.amplitudes(), expected,
                                          kTol, label + " unfused vs oracle");
    EXPECT_EQ(circuit.compiled_plan(), plan)
        << label << ": switching backends must not recompile";
  }
}

TEST(ExecPlan, RunRejectsWrongSizedParams) {
  Circuit circuit{2};
  circuit.parameterized_gate(GateType::RX, 0, 0);
  circuit.parameterized_gate(GateType::RY, 1, 1);  // (param 1, wire 1)
  StateVector state{2};
  const std::vector<double> short_params = {0.1};
  const std::vector<double> long_params = {0.1, 0.2, 0.3};
  const std::vector<double> exact = {0.1, 0.2};
  EXPECT_THROW(circuit.run(state, short_params), std::invalid_argument);
  EXPECT_THROW(circuit.run(state, long_params), std::invalid_argument);
  EXPECT_NO_THROW(circuit.run(state, exact));

  StateVectorBatch batch{2, 2};
  // run_batch needs exactly rows * stride values.
  const std::vector<double> batch_exact = {0.1, 0.2, 0.3, 0.4};
  const std::vector<double> batch_long = {0.1, 0.2, 0.3, 0.4, 0.5};
  EXPECT_THROW(circuit.run_batch(batch, batch_long, 2),
               std::invalid_argument);
  EXPECT_NO_THROW(circuit.run_batch(batch, batch_exact, 2));
}

}  // namespace
