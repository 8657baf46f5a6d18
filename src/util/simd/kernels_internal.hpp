// Internal declarations shared by the backend kernel translation units
// (src/util/simd/kernels_*.cpp). Not installed API — everything here lives
// in a detail namespace and exists so that the avx2 backend can fall back
// to the scalar kernels (compiled in kernels_generic.cpp without any -m arch
// flags, so the fallback code generation is exactly the generic backend's)
// for shapes too small or too awkward to vectorize.
#pragma once

#include <cstddef>

#include "util/backend_registry.hpp"

namespace qhdl::util::simd::detail {

using Complex = KernelOps::Complex;

/// Spreads compact index `i` into a basis index with a 0 bit at both mask
/// positions (lo_mask < hi_mask, both powers of two). Mirrors the helper in
/// quantum/statevector.cpp — the CNOT kernels walk the same index stream.
inline std::size_t expand_two_zero_bits(std::size_t i, std::size_t lo_mask,
                                        std::size_t hi_mask) {
  const std::size_t j = ((i & ~(lo_mask - 1)) << 1) | (i & (lo_mask - 1));
  return ((j & ~(hi_mask - 1)) << 1) | (j & (hi_mask - 1));
}

// Scalar kernels (generic backend ops; also the avx2 backend's tails).
void scalar_apply_single_qubit(Complex* amps, std::size_t n,
                               std::size_t stride, const Complex* m);
void scalar_apply_diagonal(Complex* amps, std::size_t n, std::size_t stride,
                           Complex d0, Complex d1);
void scalar_apply_cnot_pairs(Complex* amps, std::size_t quarter,
                             std::size_t lo, std::size_t hi, std::size_t cmask,
                             std::size_t tmask);
/// Canonical mod-8 lane reduction (backend_registry.hpp header comment);
/// n < 8 reduces sequentially.
double scalar_expval_z_lanes(const Complex* amps, std::size_t n,
                             std::size_t mask);
/// The seed's strictly sequential reduction (reference backend only).
double scalar_expval_z_sequential(const Complex* amps, std::size_t n,
                                  std::size_t mask);
void scalar_gemm_micro_4x4(std::size_t kc, const double* pa, const double* pb,
                           std::size_t pb_stride, double acc[4][4]);

// Scalar batched-SoA kernels (generic backend ops; the avx2 backend falls
// back to them for tiny batches). Per-row arithmetic and reduction order
// are the batched canon from backend_registry.hpp.
void scalar_apply_single_qubit_batch(Complex* amps, std::size_t n,
                                     std::size_t stride, std::size_t batch,
                                     const Complex* m);
void scalar_apply_diagonal_batch(Complex* amps, std::size_t n,
                                 std::size_t stride, std::size_t batch,
                                 Complex d0, Complex d1);
void scalar_apply_cnot_pairs_batch(Complex* amps, std::size_t quarter,
                                   std::size_t lo, std::size_t hi,
                                   std::size_t cmask, std::size_t tmask,
                                   std::size_t batch);
void scalar_apply_two_qubit_batch(Complex* amps, std::size_t quarter,
                                  std::size_t lo, std::size_t hi,
                                  std::size_t amask, std::size_t bmask,
                                  std::size_t batch, const Complex* m16);
void scalar_expval_z_batch(const Complex* amps, std::size_t n,
                           std::size_t mask, std::size_t batch, double* out);
void scalar_inner_products_real_batch(const Complex* lhs, const Complex* rhs,
                                      std::size_t n, std::size_t batch,
                                      double* out);

}  // namespace qhdl::util::simd::detail
