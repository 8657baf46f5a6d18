// Batched-vs-per-row golden equivalence suite (DESIGN.md §14): the SoA
// batch executor vectorizes ACROSS batch lanes, so every batch row must
// reproduce the scalar per-row path BIT-IDENTICALLY (EXPECT_EQ on raw
// doubles) on every supported backend, for every batch size — including the
// odd tails (1, 3, 5, 7) that exercise the scalar remainder loops — both
// through the compiled plan and through a test-local uncompiled per-op loop,
// and under the reference backend too. The adjoint batch VJP is held to the
// same contract against row-by-row adjoint_vjp for the single-term diagonal
// observables the hybrid layer emits.
#include <complex>
#include <cstddef>
#include <optional>
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

/// Pins one backend for the scope; restores env/build/auto selection on
/// exit.
class BackendScope {
 public:
  explicit BackendScope(const char* name) { simd::set_backend(name); }
  ~BackendScope() { simd::set_backend(std::nullopt); }
};

/// All backends bound by the batched bit-identity contract: generic itself
/// plus every supported non-reference SIMD backend.
std::vector<const simd::Backend*> batch_backends_under_test() {
  std::vector<const simd::Backend*> out;
  for (const simd::Backend* backend : simd::backends()) {
    if (backend->reference || !backend->supported()) continue;
    out.push_back(backend);
  }
  return out;
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

/// Every backend a circuit can run on here: the bit-identity backends plus
/// the reference backend, whose unfused generic-kernel scalar path the
/// batched kernels must reproduce per row as well.
std::vector<const simd::Backend*> circuit_backends_under_test() {
  std::vector<const simd::Backend*> out = batch_backends_under_test();
  out.push_back(simd::find_backend("reference"));
  return out;
}

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
    std::vector<double> proto;
    const Circuit circuit = make_sel_circuit(qubits, 3, proto, rng);
    for (const std::size_t batch_size : kBatchSizes) {
      const std::vector<double> params =
          make_batch_params(proto, qubits, batch_size, rng);
      for (const simd::Backend* backend : circuit_backends_under_test()) {
        const BackendScope scope{backend->name};
        StateVectorBatch compiled{qubits, batch_size};
        circuit.run_batch(compiled, params, proto.size());
        StateVectorBatch uncompiled{qubits, batch_size};
        run_batch_uncompiled(circuit, uncompiled, params, proto.size());
        for (std::size_t b = 0; b < batch_size; ++b) {
          const std::span<const double> row_params{
              params.data() + b * proto.size(), proto.size()};
          const std::string label =
              std::string{backend->name} + " q=" + std::to_string(qubits) +
              " b=" + std::to_string(batch_size) + " row " +
              std::to_string(b);
          expect_row_bit_identical(compiled.extract_row(b),
                                   circuit.execute(row_params),
                                   label + " compiled");
          expect_row_bit_identical(uncompiled.extract_row(b),
                                   run_uncompiled(circuit, row_params),
                                   label + " uncompiled");
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
  for (std::size_t w = 0; w < qubits; ++w) {
    observables.push_back(Observable::pauli_z(w));
  }
  for (const std::size_t batch_size : kBatchSizes) {
    const std::vector<double> params =
        make_batch_params(proto, qubits, batch_size, rng);
    std::vector<double> upstream(batch_size * qubits);
    for (auto& u : upstream) u = rng.uniform(-1.0, 1.0);
    // Exercise the w == 0 skip, which both seeds share.
    upstream[0] = 0.0;
    for (const simd::Backend* backend : circuit_backends_under_test()) {
      const BackendScope scope{backend->name};
      const std::string label =
          std::string{backend->name} + " b=" + std::to_string(batch_size);
      const auto batched = quantum::adjoint_vjp_batch(
          circuit, params, proto.size(), batch_size, observables, upstream);
      ASSERT_EQ(batched.expectations.size(), batch_size * qubits) << label;
      ASSERT_EQ(batched.gradient.size(), batch_size * proto.size()) << label;
      for (std::size_t b = 0; b < batch_size; ++b) {
        const std::span<const double> row_params{
            params.data() + b * proto.size(), proto.size()};
        const std::span<const double> row_up{upstream.data() + b * qubits,
                                             qubits};
        const auto row =
            quantum::adjoint_vjp(circuit, row_params, observables, row_up);
        for (std::size_t k = 0; k < qubits; ++k) {
          EXPECT_EQ(batched.expectations[b * qubits + k],
                    row.expectations[k])
              << label << " expectation row " << b << " obs " << k;
        }
        for (std::size_t p = 0; p < proto.size(); ++p) {
          EXPECT_EQ(batched.gradient[b * proto.size() + p], row.gradient[p])
              << label << " gradient row " << b << " param " << p;
        }
      }
    }
  }
}

}  // namespace
