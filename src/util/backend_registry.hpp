// Runtime-dispatched SIMD kernel backend registry (DESIGN.md §13).
//
// The simulator's hottest inner loops — the state-vector gate kernels
// (dense 2x2 with one matrix or one per row, diagonal phase multiply, CNOT
// pair swap, dense 4x4), the expval-Z and inner-product reductions, and
// the row-blocked small GEMM every dense layer runs on — are function
// pointers resolved through this registry instead of fixed scalar code.
// The gate kernels and
// reductions act on a StateVectorBatch's SoA layout; a single StateVector
// is the one-row batch, so one kernel set serves both. Each backend
// translation unit
// (src/util/simd/kernels_*.cpp) self-registers a capability descriptor:
// a name, an auto-detect priority, a supported() CPUID predicate, and its
// KernelOps table. A CPUID-based dispatcher picks the highest-priority
// supported backend at first use; `QHDL_BACKEND=<name>` (env var, CMake
// default, or runtime override) pins the choice.
//
// Bit-identity contract: every backend must produce byte-for-byte
// identical doubles for every op on every input (enforced by the
// BackendEquivalence / GemmBackend golden suites with EXPECT_EQ, and by
// the per-backend CI matrix). The rules that make that possible:
//   * no fused multiply-add in value-producing math — FMA skips the
//     intermediate rounding, so vectorized kernels use explicit mul/add
//     intrinsics and their translation units compile with -ffp-contract=off;
//   * elementwise complex multiplies vectorize via mul/shuffle/addsub,
//     which performs exactly the two roundings per component the scalar
//     formula does;
//   * the GEMM canon: every C element has its own accumulator that starts
//     at +0.0 and adds a*b (a separate multiply and add) in ascending p,
//     then is stored to C or added to it once (broadcast A, vector
//     multiply, vector add), so AVX lanes see the scalar tile's adds;
//   * the state ops vectorize ACROSS the batch lanes of the SoA layout
//     (amps[i * batch + b], unit-stride loads, no shuffles): each lane's
//     arithmetic is the independent per-row scalar formula, so lane-wise
//     SIMD cannot change a single rounding regardless of vector width —
//     scalar tails for odd batch sizes (and for B = 1) are bit-safe by the
//     same argument;
//   * there is one reduction canon: expval_z_batch and
//     inner_products_real_batch keep one sequential running sum per row in
//     ascending amplitude order — the order Observable::expectation and the
//     scalar adjoint sweep use.
#pragma once

#include <complex>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace qhdl::util::simd {

/// Function-pointer table of the registry-dispatched kernels. Signatures
/// are domain-neutral (raw arrays) so quantum and tensor code share one
/// registry without layering inversions; wire checks, dispatch counters,
/// and index math stay with the callers.
struct KernelOps {
  using Complex = std::complex<double>;

  /// Small GEMM, register-blocked over 4 rows of C at a time:
  /// C(i,j) = acc (or C(i,j) += acc when `accumulate`) with acc = +0.0 +
  /// A(i,0)*B(0,j) + ... + A(i,k-1)*B(k-1,j), summed in ascending p with a
  /// separate multiply and add (the GEMM canon). A(i,p) is read from
  /// a[i * a_row_stride + p * a_col_stride], so a transposed A is read in
  /// place; B and C are row-major with leading dimensions ldb and ldc.
  void (*gemm_rows)(std::size_t m, std::size_t n, std::size_t k,
                    const double* a, std::size_t a_row_stride,
                    std::size_t a_col_stride, const double* b,
                    std::size_t ldb, double* c, std::size_t ldc,
                    bool accumulate);

  // State ops. `amps` holds a StateVectorBatch (a StateVector is the
  // batch == 1 case): amplitude i of row b at amps[i * batch + b], so every
  // (i0, i1) gate pair touches two contiguous runs of `batch` complexes —
  // the lanes SIMD vectorizes across. All index parameters (n, stride,
  // quarter, masks) are in AMPLITUDE units; the kernels scale by `batch`
  // internally.

  /// Dense 2x2 on every (i, i+stride) pair of amplitude ROWS: for each lane
  /// b, a0 = m0*v0 + m1*v1 and a1 = m2*v0 + m3*v1 with the scalar
  /// formula's rounding order per lane.
  void (*apply_single_qubit_batch)(Complex* amps, std::size_t n,
                                   std::size_t stride, std::size_t batch,
                                   const Complex* m);

  /// apply_single_qubit_batch with a matrix per lane: lane b reads its
  /// 2x2 from the SoA span `m` as m[k * batch + b] for k = m00, m01, m10,
  /// m11 (4 * batch complexes), with the same per-lane formula and rounding
  /// order. The per-row encoding gates and the fused chains' per-row
  /// products (quantum::ExecutionPlan::run_batch) run through it.
  void (*apply_single_qubit_rows_batch)(Complex* amps, std::size_t n,
                                        std::size_t stride, std::size_t batch,
                                        const Complex* m);

  /// Batched diagonal phase multiply: a_i *= d0 (bit clear) / d1 (bit set).
  /// The d0 == 1 phase-gate fast path (only the set half moves) lives
  /// inside the op so backends can vectorize it separately.
  void (*apply_diagonal_batch)(Complex* amps, std::size_t n,
                               std::size_t stride, std::size_t batch,
                               Complex d0, Complex d1);

  /// Batched CNOT pair swap: for each compact k in [0, quarter), swap the
  /// amplitude rows i = expand_two_zero_bits(k, lo, hi) | cmask and
  /// i | tmask, each a run of `batch` complexes. Pure permutation.
  void (*apply_cnot_pairs_batch)(Complex* amps, std::size_t quarter,
                                 std::size_t lo, std::size_t hi,
                                 std::size_t cmask, std::size_t tmask,
                                 std::size_t batch);

  /// Batched dense 4x4 (fused-pair / two-qubit unitary): for each compact
  /// k in [0, quarter), base = expand_two_zero_bits(k, lo, hi) and the four
  /// amplitude rows {base, base|bmask, base|amask, base|amask|bmask} mix as
  /// out_r = m16[4r]*a0 + m16[4r+1]*a1 + m16[4r+2]*a2 + m16[4r+3]*a3
  /// (left-to-right association).
  void (*apply_two_qubit_batch)(Complex* amps, std::size_t quarter,
                                std::size_t lo, std::size_t hi,
                                std::size_t amask, std::size_t bmask,
                                std::size_t batch, const Complex* m16);

  /// Per-row Σ ±|a_i|²: out[b] accumulates sequentially in ascending i
  /// (the reduction canon — see header comment), sign from (i & mask).
  /// `out` is overwritten.
  void (*expval_z_batch)(const Complex* amps, std::size_t n, std::size_t mask,
                         std::size_t batch, double* out);

  /// Per-row real part of <lhs_b|rhs_b>: out[b] accumulates
  /// l.re*r.re + l.im*r.im sequentially in ascending i (the reduction
  /// canon). `out` is overwritten.
  void (*inner_products_real_batch)(const Complex* lhs, const Complex* rhs,
                                    std::size_t n, std::size_t batch,
                                    double* out);
};

/// Capability descriptor one backend TU registers.
struct Backend {
  const char* name;       ///< selection key ("generic", "avx2", ...)
  int priority;           ///< auto-detect picks the highest supported one
  bool (*supported)();    ///< CPUID gate; constant per process
  KernelOps ops;
};

/// Adds a descriptor (idempotent per name; later registrations of an
/// existing name are ignored). Called by the backend TUs' registrars and by
/// tests injecting fake descriptors.
void register_backend(const Backend* backend);

/// All registered descriptors, highest priority first.
std::vector<const Backend*> backends();

/// Descriptor by name, nullptr when unknown.
const Backend* find_backend(std::string_view name);

/// The active backend after selection-precedence resolution:
/// runtime override > QHDL_BACKEND env > CMake default (QHDL_BACKEND
/// option) > CPUID auto-detect. Throws std::runtime_error when the env or
/// build default names an unknown or unsupported backend.
const Backend& active_backend();

/// Where the active selection came from: "override", "env", "build", or
/// "auto".
const char* active_source();

/// Hot accessor for kernel call sites: the active ops table.
inline const KernelOps& ops() { return active_backend().ops; }

/// Runtime override (strongest precedence). Throws std::invalid_argument —
/// listing the registered names — on an unknown name, and when the named
/// backend's supported() is false on this CPU. nullopt clears the override
/// AND the cached resolution, so the env/build/auto layers are re-read
/// (tests use this to exercise the env layer via setenv).
void set_backend(std::optional<std::string_view> name);

/// One selection-precedence resolution, pure in its inputs (unit-testable
/// without process env mutation). Returns the chosen backend name ("" =
/// auto-detect) and reports the deciding layer through `source`.
std::string resolve_backend_name(const char* override_name,
                                 const char* backend_env,
                                 const char* build_default,
                                 const char** source);

}  // namespace qhdl::util::simd
