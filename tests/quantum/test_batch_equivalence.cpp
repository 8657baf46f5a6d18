// Batched-vs-per-row golden equivalence suite (DESIGN.md §14): the SoA
// batch executor vectorizes ACROSS batch lanes, so every batch row must
// reproduce the scalar per-row path BIT-IDENTICALLY (EXPECT_EQ on raw
// doubles) on every supported backend, for every batch size — including the
// odd tails (1, 3, 5, 7) that exercise the scalar remainder loops — both
// through the compiled plan, through the plan's flat stream replayed unfused
// and through a test-local uncompiled per-op loop. The adjoint batch VJP is
// held to the same contract against row-by-row adjoint_vjp for the
// single-term diagonal observables the hybrid layer emits, from a fused and
// from an unfused forward state.
#include <complex>
#include <cstddef>
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
#include "util/backend_registry.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace qhdl;
namespace simd = util::simd;
using quantum::Circuit;
using quantum::Observable;
using quantum::StateVector;
using quantum::StateVectorBatch;
using Complex = std::complex<double>;

constexpr std::size_t kBatchSizes[] = {1, 3, 5, 7, 16};
constexpr std::size_t kQubitCounts[] = {3, 4, 5};

using qhdl::testing::BackendScope;

/// All backends bound by the batched bit-identity contract: every
/// supported one, generic included.
std::vector<const simd::Backend*> batch_backends_under_test() {
  return qhdl::testing::supported_backends();
}

/// Reproducible entangled non-real state, prepared under the pinned
/// generic backend so every comparison starts from identical bits.
StateVector random_state(std::size_t qubits, util::Rng& rng) {
  const BackendScope scope{"generic"};
  StateVector state{qubits};
  for (std::size_t w = 0; w < qubits; ++w) {
    state.apply_single_qubit(quantum::gates::hadamard(), w);
    state.apply_single_qubit(quantum::gates::t(), w);
    state.apply_single_qubit(quantum::gates::ry(rng.uniform(-2.0, 2.0)), w);
  }
  for (std::size_t w = 0; w + 1 < qubits; ++w) state.apply_cnot(w, w + 1);
  return state;
}

/// Seeds a batch with independent random rows; returns the rows so the test
/// can replay the same gates through the scalar path.
std::vector<StateVector> seed_batch(StateVectorBatch& batch, util::Rng& rng) {
  std::vector<StateVector> rows;
  rows.reserve(batch.batch());
  for (std::size_t b = 0; b < batch.batch(); ++b) {
    rows.push_back(random_state(batch.num_qubits(), rng));
    batch.set_row(b, rows.back());
  }
  return rows;
}

void expect_row_bit_identical(const StateVector& row, const StateVector& golden,
                              const std::string& label) {
  ASSERT_EQ(row.dimension(), golden.dimension()) << label;
  for (std::size_t i = 0; i < row.dimension(); ++i) {
    EXPECT_EQ(row.amplitudes()[i].real(), golden.amplitudes()[i].real())
        << label << " amplitude " << i << " (real)";
    EXPECT_EQ(row.amplitudes()[i].imag(), golden.amplitudes()[i].imag())
        << label << " amplitude " << i << " (imag)";
  }
}

TEST(BatchEquivalence, GateKernelsBitIdenticalPerRow) {
  util::Rng rng{41};
  for (const simd::Backend* backend : batch_backends_under_test()) {
    for (const std::size_t qubits : kQubitCounts) {
      for (const std::size_t batch_size : kBatchSizes) {
        const std::string label = std::string{backend->name} +
                                  " q=" + std::to_string(qubits) +
                                  " b=" + std::to_string(batch_size);
        const quantum::Mat2 ry = quantum::gates::ry(rng.uniform(-3.0, 3.0));
        const double theta = rng.uniform(-3.0, 3.0);
        const Complex d0{std::cos(theta / 2.0), -std::sin(theta / 2.0)};
        const Complex d1{std::cos(theta / 2.0), std::sin(theta / 2.0)};
        quantum::Mat4 dense4;
        for (auto& mrow : dense4.m) {
          for (auto& entry : mrow) {
            entry = Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
          }
        }

        StateVectorBatch batch{qubits, batch_size};
        std::vector<StateVector> rows = seed_batch(batch, rng);
        const BackendScope scope{backend->name};
        for (std::size_t w = 0; w < qubits; ++w) {
          batch.apply_single_qubit(ry, w);
          batch.apply_diagonal(d0, d1, w);
          // Phase-gate fast path (d0 == 1).
          batch.apply_diagonal(Complex{1.0, 0.0}, d1, w);
        }
        batch.apply_cnot(0, qubits - 1);
        batch.apply_cnot(qubits - 1, 0);
        batch.apply_two_qubit(dense4, 1, 0);
        for (std::size_t b = 0; b < batch_size; ++b) {
          StateVector& row = rows[b];
          for (std::size_t w = 0; w < qubits; ++w) {
            row.apply_single_qubit(ry, w);
            row.apply_diagonal(d0, d1, w);
            row.apply_diagonal(Complex{1.0, 0.0}, d1, w);
          }
          row.apply_cnot(0, qubits - 1);
          row.apply_cnot(qubits - 1, 0);
          row.apply_two_qubit(dense4, 1, 0);
          expect_row_bit_identical(batch.extract_row(b), row,
                                   label + " row " + std::to_string(b));
        }
      }
    }
  }
}

TEST(BatchEquivalence, ReductionsBitIdenticalPerRow) {
  util::Rng rng{42};
  for (const simd::Backend* backend : batch_backends_under_test()) {
    for (const std::size_t qubits : kQubitCounts) {
      for (const std::size_t batch_size : kBatchSizes) {
        const std::string label = std::string{backend->name} +
                                  " q=" + std::to_string(qubits) +
                                  " b=" + std::to_string(batch_size);
        StateVectorBatch batch{qubits, batch_size};
        const std::vector<StateVector> rows = seed_batch(batch, rng);
        StateVectorBatch other{qubits, batch_size};
        const std::vector<StateVector> other_rows = seed_batch(other, rng);

        const BackendScope scope{backend->name};
        std::vector<double> out(batch_size);
        for (std::size_t w = 0; w < qubits; ++w) {
          batch.expval_pauli_z(w, out);
          const std::size_t mask = std::size_t{1} << (qubits - 1 - w);
          for (std::size_t b = 0; b < batch_size; ++b) {
            // The batched canon: one sequential running sum per row in
            // ascending amplitude order (Observable::expectation's order).
            double golden = 0.0;
            const auto amps = rows[b].amplitudes();
            for (std::size_t i = 0; i < rows[b].dimension(); ++i) {
              if ((i & mask) == 0) {
                golden += std::norm(amps[i]);
              } else {
                golden -= std::norm(amps[i]);
              }
            }
            EXPECT_EQ(out[b], golden)
                << label << " expval w=" << w << " row " << b;
          }
        }

        batch.inner_products_real(other, out);
        for (std::size_t b = 0; b < batch_size; ++b) {
          EXPECT_EQ(out[b], rows[b].inner_product(other_rows[b]).real())
              << label << " inner row " << b;
        }
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

/// Batch parameter pack in the hybrid layer's shape: per-row encoding
/// angles (first `qubits` slots), shared ansatz weights.
std::vector<double> make_batch_params(const std::vector<double>& proto,
                                      std::size_t qubits, std::size_t batch,
                                      util::Rng& rng) {
  std::vector<double> params(batch * proto.size());
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t p = 0; p < proto.size(); ++p) {
      params[b * proto.size() + p] =
          p < qubits ? rng.uniform(-2.0, 2.0) : proto[p];
    }
  }
  return params;
}

/// Mixed fused chains: every wire carries chains whose factors mix per-row
/// angles (slots [0, 2 * qubits)), shared weights (later slots) and fixed
/// angles. Even wires open with shared factors (the prefix the batch path
/// multiplies once for all rows), odd wires open with a per-row factor, and
/// a final all-shared chain per wire takes the one-matrix path.
Circuit make_mixed_chain_circuit(std::size_t qubits,
                                 std::vector<double>& params,
                                 util::Rng& rng) {
  using quantum::GateType;
  Circuit circuit{qubits};
  std::size_t shared = 2 * qubits;
  const auto next_shared = [&shared] { return shared++; };
  for (std::size_t w = 0; w < qubits; ++w) {
    if (w % 2 == 0) {
      circuit.parameterized_gate(GateType::RZ, next_shared(), w);
      circuit.gate(GateType::Hadamard, w);
      circuit.parameterized_gate(GateType::RY, 2 * w, w);
      circuit.parameterized_gate(GateType::RX, next_shared(), w);
      circuit.parameterized_gate(GateType::RZ, 2 * w + 1, w);
      circuit.gate(GateType::PhaseShift, w, SIZE_MAX, 0.3);
    } else {
      circuit.parameterized_gate(GateType::RX, 2 * w, w);
      circuit.parameterized_gate(GateType::RZ, next_shared(), w);
      circuit.parameterized_gate(GateType::RY, 2 * w + 1, w);
      circuit.gate(GateType::S, w);
      circuit.parameterized_gate(GateType::RY, next_shared(), w);
    }
  }
  for (std::size_t w = 0; w + 1 < qubits; ++w) {
    circuit.gate(GateType::CNOT, w, w + 1);
  }
  for (std::size_t w = 0; w < qubits; ++w) {
    circuit.parameterized_gate(GateType::RZ, next_shared(), w);
    circuit.parameterized_gate(GateType::RY, next_shared(), w);
  }
  params = rng.uniform_vector(shared, -2.0, 2.0);
  return circuit;
}

/// make_batch_params for the mixed-chain circuit: 2 * qubits per-row slots,
/// and every third row repeats the previous row's per-row angles, so some
/// rows agree on every encoding angle while the batch as a whole does not.
std::vector<double> make_mixed_batch_params(const std::vector<double>& proto,
                                            std::size_t qubits,
                                            std::size_t batch,
                                            util::Rng& rng) {
  std::vector<double> params =
      make_batch_params(proto, 2 * qubits, batch, rng);
  for (std::size_t b = 2; b < batch; b += 3) {
    for (std::size_t p = 0; p < 2 * qubits; ++p) {
      params[b * proto.size() + p] = params[(b - 1) * proto.size() + p];
    }
  }
  return params;
}

using qhdl::testing::run_plan_unfused;
using qhdl::testing::run_uncompiled;

/// Batched counterpart of run_uncompiled: the circuit's ops applied one by
/// one through apply_gate_batch — no plan, no fusion.
void run_batch_uncompiled(const Circuit& circuit, StateVectorBatch& batch,
                          std::span<const double> params,
                          std::size_t stride) {
  std::vector<double> angles(batch.batch());
  for (const quantum::Op& op : circuit.ops()) {
    // One shared angle when every row agrees (fixed gates, ansatz
    // weights), else one per row (data encoding).
    bool shared = true;
    for (std::size_t b = 0; b < batch.batch(); ++b) {
      angles[b] = op.param_index.has_value()
                      ? params[b * stride + *op.param_index]
                      : op.fixed_angle;
      shared = shared && angles[b] == angles[0];
    }
    quantum::apply_gate_batch(
        batch, op.type,
        std::span<const double>{angles}.first(shared ? 1 : angles.size()),
        op.wire0, op.wire1);
  }
}

TEST(BatchEquivalence, CircuitRunBitIdenticalPerRowAllModes) {
  util::Rng rng{43};
  for (const std::size_t qubits : kQubitCounts) {
    struct Case {
      const char* name;
      Circuit circuit;
      std::vector<double> proto;
      std::size_t per_row_slots;
    };
    std::vector<Case> cases;
    {
      std::vector<double> proto;
      Circuit circuit = make_sel_circuit(qubits, 3, proto, rng);
      cases.push_back({"sel", std::move(circuit), std::move(proto), qubits});
    }
    {
      std::vector<double> proto;
      Circuit circuit = make_mixed_chain_circuit(qubits, proto, rng);
      cases.push_back(
          {"mixed", std::move(circuit), std::move(proto), 2 * qubits});
    }
    for (const Case& c : cases) {
      const std::size_t stride = c.proto.size();
      for (const std::size_t batch_size : kBatchSizes) {
        const std::vector<double> params =
            c.per_row_slots == qubits
                ? make_batch_params(c.proto, qubits, batch_size, rng)
                : make_mixed_batch_params(c.proto, qubits, batch_size, rng);
        for (const simd::Backend* backend : batch_backends_under_test()) {
          const BackendScope scope{backend->name};
          const std::string base = std::string{c.name} + " " +
                                   backend->name +
                                   " q=" + std::to_string(qubits) +
                                   " b=" + std::to_string(batch_size);
          util::Metrics::global().reset();
          StateVectorBatch compiled{qubits, batch_size};
          c.circuit.run_batch(compiled, params, stride);
          const util::MetricsSnapshot batch_stats =
              util::Metrics::global().snapshot();
          // A batched run fuses each chain once for all rows: the same
          // fused-chain totals as one scalar plan run.
          util::Metrics::global().reset();
          c.circuit.execute(std::span<const double>{params.data(), stride});
          const util::MetricsSnapshot row_stats =
              util::Metrics::global().snapshot();
          EXPECT_EQ(batch_stats.at("kernel.fused"),
                    row_stats.at("kernel.fused"))
              << base;
          EXPECT_EQ(batch_stats.at("kernel.fused_gates"),
                    row_stats.at("kernel.fused_gates"))
              << base;

          StateVectorBatch uncompiled{qubits, batch_size};
          run_batch_uncompiled(c.circuit, uncompiled, params, stride);
          StateVectorBatch unfused{qubits, batch_size};
          run_plan_unfused(c.circuit, unfused, params, stride);
          for (std::size_t b = 0; b < batch_size; ++b) {
            const std::span<const double> row_params{
                params.data() + b * stride, stride};
            const std::string label = base + " row " + std::to_string(b);
            expect_row_bit_identical(compiled.extract_row(b),
                                     c.circuit.execute(row_params),
                                     label + " compiled");
            expect_row_bit_identical(uncompiled.extract_row(b),
                                     run_uncompiled(c.circuit, row_params),
                                     label + " uncompiled");
            StateVector unfused_row{qubits};
            run_plan_unfused(c.circuit, unfused_row, row_params, stride);
            expect_row_bit_identical(unfused.extract_row(b), unfused_row,
                                     label + " unfused plan");
          }
        }
      }
    }
  }
}

TEST(BatchEquivalence, AdjointVjpBitIdenticalPerRowAllModes) {
  util::Rng rng{44};
  const std::size_t qubits = 4;
  std::vector<double> proto;
  const Circuit circuit = make_sel_circuit(qubits, 3, proto, rng);
  std::vector<Observable> observables;
  std::vector<std::vector<double>> diagonals;
  for (std::size_t w = 0; w < qubits; ++w) {
    observables.push_back(Observable::pauli_z(w));
    diagonals.push_back(observables.back().diagonal(qubits));
  }
  for (const std::size_t batch_size : kBatchSizes) {
    const std::vector<double> params =
        make_batch_params(proto, qubits, batch_size, rng);
    std::vector<double> upstream(batch_size * qubits);
    for (auto& u : upstream) u = rng.uniform(-1.0, 1.0);
    // Exercise the w == 0 skip, which both seeds share.
    upstream[0] = 0.0;
    for (const simd::Backend* backend : batch_backends_under_test()) {
      const BackendScope scope{backend->name};
      const std::string label =
          std::string{backend->name} + " b=" + std::to_string(batch_size);
      std::vector<double> gradient(batch_size * proto.size());
      quantum::adjoint_vjp_batch(circuit, params, proto.size(), batch_size,
                                 observables, upstream, gradient);
      // The batched forward's expectations, as the hybrid layer computes
      // them.
      StateVectorBatch forward{qubits, batch_size};
      circuit.run_batch(forward, params, proto.size());
      std::vector<double> expectations(batch_size * qubits);
      quantum::diagonal_expectations_batch(forward, diagonals, expectations);
      for (std::size_t b = 0; b < batch_size; ++b) {
        const std::span<const double> row_params{
            params.data() + b * proto.size(), proto.size()};
        const std::span<const double> row_up{upstream.data() + b * qubits,
                                             qubits};
        const auto row =
            quantum::adjoint_vjp(circuit, row_params, observables, row_up);
        for (std::size_t k = 0; k < qubits; ++k) {
          EXPECT_EQ(expectations[b * qubits + k],
                    row.expectations[k])
              << label << " expectation row " << b << " obs " << k;
        }
        for (std::size_t p = 0; p < proto.size(); ++p) {
          EXPECT_EQ(gradient[b * proto.size() + p], row.gradient[p])
              << label << " gradient row " << b << " param " << p;
        }
      }

      // From an unfused forward state (the plan's flat stream replayed op
      // by op): each row's expectations and gradient are bit-identical to
      // the one-row sweep from that row's own unfused forward.
      StateVectorBatch unfused{qubits, batch_size};
      run_plan_unfused(circuit, unfused, params, proto.size());
      std::vector<double> unfused_expectations(batch_size * qubits);
      quantum::diagonal_expectations_batch(unfused, diagonals,
                                           unfused_expectations);
      std::vector<double> unfused_gradient(batch_size * proto.size());
      quantum::adjoint_vjp_batch(circuit, params, proto.size(), batch_size,
                                 observables, upstream, unfused_gradient,
                                 &unfused);
      for (std::size_t b = 0; b < batch_size; ++b) {
        const std::span<const double> row_params{
            params.data() + b * proto.size(), proto.size()};
        const std::span<const double> row_up{upstream.data() + b * qubits,
                                             qubits};
        StateVector row_state{qubits};
        run_plan_unfused(circuit, row_state, row_params, proto.size());
        std::vector<double> row_expectations(qubits);
        quantum::diagonal_expectations_batch(row_state, diagonals,
                                             row_expectations);
        std::vector<double> row_gradient(proto.size());
        quantum::adjoint_vjp_batch(circuit, row_params, proto.size(), 1,
                                   observables, row_up, row_gradient,
                                   &row_state);
        for (std::size_t k = 0; k < qubits; ++k) {
          EXPECT_EQ(unfused_expectations[b * qubits + k], row_expectations[k])
              << label << " unfused expectation row " << b << " obs " << k;
        }
        for (std::size_t p = 0; p < proto.size(); ++p) {
          EXPECT_EQ(unfused_gradient[b * proto.size() + p], row_gradient[p])
              << label << " unfused gradient row " << b << " param " << p;
        }
      }
    }
  }
}

}  // namespace
