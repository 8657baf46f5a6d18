// Runtime-dispatched SIMD kernel backend registry (DESIGN.md §13).
//
// The simulator's hottest inner loops — dense single-qubit application,
// diagonal phase multiplies, CNOT pair swaps, expval-Z reduction, and the
// blocked-GEMM 4x4 micro-kernel — are function pointers resolved through
// this registry instead of fixed scalar code. Each backend translation unit
// (src/util/simd/kernels_*.cpp) self-registers a capability descriptor:
// a name, an auto-detect priority, a supported() predicate backed by
// util::cpuid, and its KernelOps table. A CPUID-based dispatcher picks the
// highest-priority supported backend at first use; `QHDL_BACKEND=<name>`
// (env var, CMake default, or runtime override) pins the choice.
//
// Bit-identity contract: `generic`, `avx2`, and `avx512fma` must produce
// byte-for-byte identical doubles for every op on every input (enforced by
// the BackendEquivalence / GemmBackend golden suites with EXPECT_EQ, and by
// the per-backend CI matrix). The rules that make that possible:
//   * no fused multiply-add in value-producing math — FMA skips the
//     intermediate rounding, so vectorized kernels use explicit mul/add
//     intrinsics and their translation units compile with -ffp-contract=off
//     (the avx512fma backend requires the FMA CPUID bit as a capability
//     gate only);
//   * reductions follow one canonical order: expval-Z accumulates into
//     eight mod-8 lane sums combined as b_l = acc_l + acc_{l+4}, then
//     (b0+b1) + (b2+b3) — expressible as scalar code, two 4-lane AVX2
//     accumulators, or one 8-lane AVX-512 accumulator without changing a
//     single rounding (states smaller than 8 amplitudes reduce
//     sequentially in every backend);
//   * elementwise complex multiplies vectorize via mul/shuffle/addsub,
//     which performs exactly the two roundings per component the scalar
//     formula does;
//   * the GEMM micro-kernel keeps each accumulator element's ascending-p
//     order (broadcast A, vector multiply, vector add), so AVX lanes see
//     the same add sequence the scalar tile loop performs;
//   * the *_batch ops vectorize ACROSS the batch lanes of the SoA layout
//     (amps[i * batch + b], unit-stride loads, no shuffles): each lane's
//     arithmetic is the independent per-row scalar formula, so lane-wise
//     SIMD cannot change a single rounding regardless of vector width —
//     scalar tails for odd batch sizes are bit-safe by the same argument;
//   * batched reductions (expval_z_batch, inner_products_real_batch) keep
//     one sequential running sum per row in ascending amplitude order —
//     the per-row canon that Observable::expectation and the scalar
//     adjoint sweep use — NOT the single-state mod-8 lane order; the two
//     canons are never mixed because the batched and single-state ops are
//     distinct registry entries.
//
// The `reference` backend is the one mode switch for the reference paths:
// scalar ops with the seed's sequential expval reduction, and its
// descriptor's `reference` flag makes circuits run unfused through the
// generic dense gate path (quantum::ExecutionPlan, gates.cpp), keeps the
// hybrid executor off the batched SoA path, and trains classical models on
// the reference Module path instead of the workspace trainer.
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

  /// Dense 2x2 on every (i, i+stride) amplitude pair; m = {m00,m01,m10,m11}.
  /// `n` is the amplitude count, `stride` a power of two in [1, n/2].
  void (*apply_single_qubit)(Complex* amps, std::size_t n, std::size_t stride,
                             const Complex* m);

  /// Diagonal phase multiply: a_i *= d0 (bit clear) / d1 (bit set). The
  /// d0 == 1 phase-gate fast path (only the set half moves) lives inside
  /// the op so backends can vectorize it separately.
  void (*apply_diagonal)(Complex* amps, std::size_t n, std::size_t stride,
                         Complex d0, Complex d1);

  /// CNOT pair swap: for each compact k in [0, quarter), swap the
  /// amplitudes at i = expand_two_zero_bits(k, lo, hi) | cmask and
  /// i | tmask. Pure permutation — trivially bit-exact.
  void (*apply_cnot_pairs)(Complex* amps, std::size_t quarter, std::size_t lo,
                           std::size_t hi, std::size_t cmask,
                           std::size_t tmask);

  /// Σ ±|a_i|² with sign from (i & mask). Canonical mod-8 lane reduction
  /// (header comment) for the SIMD-identical backends; the reference
  /// backend keeps the seed's sequential sum.
  double (*expval_z)(const Complex* amps, std::size_t n, std::size_t mask);

  /// Blocked-GEMM register tile: acc[ii][jj] += Σ_p pa[p*4+ii] *
  /// pb[p*pb_stride+jj], ascending p per element (tensor/gemm.cpp packs
  /// operands; MR = NR = 4 is fixed by the packing layout).
  void (*gemm_micro_4x4)(std::size_t kc, const double* pa, const double* pb,
                         std::size_t pb_stride, double acc[4][4]);

  // Batched SoA ops. `amps` holds a StateVectorBatch: amplitude i of row b
  // at amps[i * batch + b], so every (i0, i1) gate pair touches two
  // contiguous runs of `batch` complexes — the lanes SIMD vectorizes
  // across. All index parameters (n, stride, quarter, masks) are in
  // AMPLITUDE units, exactly as for the single-state ops; the kernels scale
  // by `batch` internally.

  /// Dense 2x2 on every (i, i+stride) pair of amplitude ROWS: for each lane
  /// b, a0 = m0*v0 + m1*v1 and a1 = m2*v0 + m3*v1 with the scalar
  /// formula's rounding order per lane.
  void (*apply_single_qubit_batch)(Complex* amps, std::size_t n,
                                   std::size_t stride, std::size_t batch,
                                   const Complex* m);

  /// Batched diagonal phase multiply; the d0 == 1 fast path (only the set
  /// half moves) lives inside the op, mirroring apply_diagonal.
  void (*apply_diagonal_batch)(Complex* amps, std::size_t n,
                               std::size_t stride, std::size_t batch,
                               Complex d0, Complex d1);

  /// Batched CNOT pair swap: same index stream as apply_cnot_pairs, each
  /// swap moves a run of `batch` complexes. Pure permutation.
  void (*apply_cnot_pairs_batch)(Complex* amps, std::size_t quarter,
                                 std::size_t lo, std::size_t hi,
                                 std::size_t cmask, std::size_t tmask,
                                 std::size_t batch);

  /// Batched dense 4x4 (fused-pair / two-qubit unitary): for each compact
  /// k in [0, quarter), base = expand_two_zero_bits(k, lo, hi) and the four
  /// amplitude rows {base, base|bmask, base|amask, base|amask|bmask} mix as
  /// out_r = m16[4r]*a0 + m16[4r+1]*a1 + m16[4r+2]*a2 + m16[4r+3]*a3
  /// (left-to-right association, matching StateVector::apply_two_qubit).
  void (*apply_two_qubit_batch)(Complex* amps, std::size_t quarter,
                                std::size_t lo, std::size_t hi,
                                std::size_t amask, std::size_t bmask,
                                std::size_t batch, const Complex* m16);

  /// Per-row Σ ±|a_i|²: out[b] accumulates sequentially in ascending i
  /// (the batched reduction canon — see header comment), sign from
  /// (i & mask). `out` is overwritten.
  void (*expval_z_batch)(const Complex* amps, std::size_t n, std::size_t mask,
                         std::size_t batch, double* out);

  /// Per-row real part of <lhs_b|rhs_b>: out[b] accumulates
  /// l.re*r.re + l.im*r.im sequentially in ascending i (batched reduction
  /// canon). `out` is overwritten.
  void (*inner_products_real_batch)(const Complex* lhs, const Complex* rhs,
                                    std::size_t n, std::size_t batch,
                                    double* out);
};

/// Capability descriptor one backend TU registers.
struct Backend {
  const char* name;       ///< selection key ("generic", "avx2", ...)
  int priority;           ///< auto-detect picks the highest supported one
  bool (*supported)();    ///< CPUID gate (util::cpuid); constant per process
  bool reference;         ///< selecting it switches to the reference paths
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
