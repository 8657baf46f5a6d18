// Cross-backend golden equivalence suite (DESIGN.md §13): every registered
// supported non-reference backend must reproduce the generic backend's
// amplitudes BIT-IDENTICALLY (EXPECT_EQ on raw doubles, not EXPECT_NEAR)
// for the four registry-dispatched kernels and for full circuit execution,
// through the compiled plan and through a test-local uncompiled per-op loop.
// The reference backend is held to 1e-12 on the expval reduction only — its
// sequential sum order legitimately differs from the canonical mod-8 lane
// order.
#include <complex>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qnn/ansatz.hpp"
#include "qnn/encoding.hpp"
#include "quantum/circuit.hpp"
#include "quantum/gates.hpp"
#include "quantum/statevector.hpp"
#include "test_helpers.hpp"
#include "util/backend_registry.hpp"
#include "util/rng.hpp"

namespace {

using namespace qhdl;
namespace simd = util::simd;
using quantum::Circuit;
using quantum::GateType;
using quantum::StateVector;
using Complex = std::complex<double>;

/// Pins one backend for the scope; restores env/build/auto selection on
/// exit.
class BackendScope {
 public:
  explicit BackendScope(const char* name) { simd::set_backend(name); }
  ~BackendScope() { simd::set_backend(std::nullopt); }
};

/// Supported non-reference backends other than generic — the ones bound by
/// the bit-identity contract.
std::vector<const simd::Backend*> simd_backends_under_test() {
  std::vector<const simd::Backend*> out;
  for (const simd::Backend* backend : simd::backends()) {
    if (backend->reference || !backend->supported()) continue;
    if (std::string{backend->name} == "generic") continue;
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

void expect_states_bit_identical(const StateVector& a, const StateVector& b,
                                 const std::string& label) {
  ASSERT_EQ(a.dimension(), b.dimension()) << label;
  for (std::size_t i = 0; i < a.dimension(); ++i) {
    EXPECT_EQ(a.amplitudes()[i].real(), b.amplitudes()[i].real())
        << label << " amplitude " << i << " (real)";
    EXPECT_EQ(a.amplitudes()[i].imag(), b.amplitudes()[i].imag())
        << label << " amplitude " << i << " (imag)";
  }
}

/// Applies apply_fn to copies of `initial` under `backend` and under
/// generic; the amplitudes must match bit-for-bit.
template <typename ApplyFn>
void check_against_generic(const simd::Backend* backend,
                           const StateVector& initial, const ApplyFn& apply_fn,
                           const std::string& label) {
  StateVector golden = initial;
  StateVector candidate = initial;
  {
    const BackendScope scope{"generic"};
    apply_fn(golden);
  }
  {
    const BackendScope scope{backend->name};
    apply_fn(candidate);
  }
  expect_states_bit_identical(candidate, golden,
                              std::string{backend->name} + " " + label);
}

TEST(BackendEquivalence, DenseSingleQubitBitIdentical) {
  // Qubit counts 1..7 sweep every stride class: the scalar tails (n < 4),
  // the AVX2 stride==1 regrouping, 2-wide stride==2, and the AVX-512
  // 4-wide path (stride >= 4).
  util::Rng rng{2024};
  for (const simd::Backend* backend : simd_backends_under_test()) {
    for (std::size_t qubits = 1; qubits <= 7; ++qubits) {
      for (std::size_t w = 0; w < qubits; ++w) {
        const StateVector initial = random_state(qubits, rng);
        const quantum::Mat2 gate =
            quantum::gates::ry(rng.uniform(-3.0, 3.0));
        const quantum::Mat2 dense = quantum::gates::hadamard();
        check_against_generic(
            backend, initial,
            [&](StateVector& s) {
              s.apply_single_qubit(gate, w);
              s.apply_single_qubit(dense, w);
            },
            "dense q=" + std::to_string(qubits) + " w=" + std::to_string(w));
      }
    }
  }
}

TEST(BackendEquivalence, DiagonalBitIdentical) {
  util::Rng rng{2025};
  for (const simd::Backend* backend : simd_backends_under_test()) {
    for (std::size_t qubits = 1; qubits <= 7; ++qubits) {
      for (std::size_t w = 0; w < qubits; ++w) {
        const StateVector initial = random_state(qubits, rng);
        const double theta = rng.uniform(-3.0, 3.0);
        check_against_generic(
            backend, initial,
            [&](StateVector& s) {
              // General diagonal (RZ: d0 != 1) and the phase-gate fast
              // path (d0 == 1) in one sequence.
              const double c = std::cos(theta / 2.0);
              const double si = std::sin(theta / 2.0);
              s.apply_diagonal(Complex{c, -si}, Complex{c, si}, w);
              s.apply_diagonal(Complex{1.0, 0.0},
                               Complex{std::cos(theta), std::sin(theta)}, w);
            },
            "diag q=" + std::to_string(qubits) + " w=" + std::to_string(w));
      }
    }
  }
}

TEST(BackendEquivalence, CnotBitIdentical) {
  util::Rng rng{2026};
  for (const simd::Backend* backend : simd_backends_under_test()) {
    for (std::size_t qubits = 2; qubits <= 6; ++qubits) {
      for (std::size_t c = 0; c < qubits; ++c) {
        for (std::size_t t = 0; t < qubits; ++t) {
          if (c == t) continue;
          const StateVector initial = random_state(qubits, rng);
          check_against_generic(
              backend, initial,
              [&](StateVector& s) { s.apply_cnot(c, t); },
              "cnot q=" + std::to_string(qubits) + " c=" + std::to_string(c) +
                  " t=" + std::to_string(t));
        }
      }
    }
  }
}

TEST(BackendEquivalence, ExpvalZBitIdenticalAcrossSimdBackends) {
  util::Rng rng{2027};
  for (std::size_t qubits = 1; qubits <= 7; ++qubits) {
    const StateVector state = random_state(qubits, rng);
    for (std::size_t w = 0; w < qubits; ++w) {
      double golden = 0.0;
      {
        const BackendScope scope{"generic"};
        golden = state.expval_pauli_z(w);
      }
      for (const simd::Backend* backend : simd_backends_under_test()) {
        const BackendScope scope{backend->name};
        EXPECT_EQ(state.expval_pauli_z(w), golden)
            << backend->name << " q=" << qubits << " w=" << w;
      }
      // The reference backend keeps the historical sequential reduction:
      // numerically equal to 1e-12, not bitwise.
      {
        const BackendScope scope{"reference"};
        EXPECT_NEAR(state.expval_pauli_z(w), golden, 1e-12)
            << "reference q=" << qubits << " w=" << w;
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

using qhdl::testing::run_uncompiled;

TEST(BackendEquivalence, FullCircuitBitIdenticalCompiledAndUncompiled) {
  util::Rng rng{2028};
  for (const std::size_t qubits : {3u, 5u, 6u}) {
    std::vector<double> params;
    const Circuit circuit = make_sel_circuit(qubits, 4, params, rng);
    for (const bool uncompiled : {false, true}) {
      const auto run = [&] {
        return uncompiled ? run_uncompiled(circuit, params)
                          : circuit.execute(params);
      };
      StateVector golden = [&] {
        const BackendScope scope{"generic"};
        return run();
      }();
      for (const simd::Backend* backend : simd_backends_under_test()) {
        const BackendScope scope{backend->name};
        expect_states_bit_identical(
            run(), golden,
            std::string{backend->name} + " SEL q=" + std::to_string(qubits) +
                (uncompiled ? " uncompiled" : " compiled"));
      }
    }
  }
}

TEST(BackendEquivalence, ReferenceBackendCircuitMatchesGenericNumerically) {
  // The reference backend runs the seed's scalar path (generic kernels, the
  // plan's flat stream unfused); results agree with the registry's generic
  // backend to float tolerance — the historical KernelEquivalence contract.
  util::Rng rng{2029};
  std::vector<double> params;
  const Circuit circuit = make_sel_circuit(5, 4, params, rng);
  const StateVector golden = [&] {
    const BackendScope scope{"generic"};
    return circuit.execute(params);
  }();
  const BackendScope scope{"reference"};
  const StateVector reference = circuit.execute(params);
  ASSERT_EQ(reference.dimension(), golden.dimension());
  for (std::size_t i = 0; i < golden.dimension(); ++i) {
    EXPECT_NEAR(reference.amplitudes()[i].real(),
                golden.amplitudes()[i].real(), 1e-12)
        << "amplitude " << i;
    EXPECT_NEAR(reference.amplitudes()[i].imag(),
                golden.amplitudes()[i].imag(), 1e-12)
        << "amplitude " << i;
  }
}

}  // namespace
