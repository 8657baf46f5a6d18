// The scalar kernel table, registered as `generic`: the portable default
// and the bit-identity anchor the avx2 backend is compared against.
//
// This TU compiles with no -m arch flags and -ffp-contract=off, so the
// scalar loops here generate exactly the baseline code.
#include "util/simd/kernels_internal.hpp"

namespace qhdl::util::simd {

namespace {

using detail::Complex;
using detail::expand_two_zero_bits;

void scalar_apply_single_qubit_batch(Complex* amps, std::size_t n,
                                     std::size_t stride, std::size_t batch,
                                     const Complex* m) {
  // Rows block+offset for offset in [0, stride) are contiguous, so the
  // offset and lane loops collapse into one run of stride*batch complexes
  // per half.
  const std::size_t run = stride * batch;
  for (std::size_t block = 0; block < n; block += 2 * stride) {
    Complex* a0 = amps + block * batch;
    Complex* a1 = a0 + run;
    for (std::size_t j = 0; j < run; ++j) {
      const Complex v0 = a0[j];
      const Complex v1 = a1[j];
      a0[j] = m[0] * v0 + m[1] * v1;
      a1[j] = m[2] * v0 + m[3] * v1;
    }
  }
}

void scalar_apply_single_qubit_rows_batch(Complex* amps, std::size_t n,
                                          std::size_t stride,
                                          std::size_t batch,
                                          const Complex* m) {
  // Lane b's matrix is {m00, m01, m10, m11}[b], each entry a run of batch.
  const Complex* m00 = m;
  const Complex* m01 = m + batch;
  const Complex* m10 = m + 2 * batch;
  const Complex* m11 = m + 3 * batch;
  for (std::size_t block = 0; block < n; block += 2 * stride) {
    for (std::size_t offset = 0; offset < stride; ++offset) {
      Complex* a0 = amps + (block + offset) * batch;
      Complex* a1 = a0 + stride * batch;
      for (std::size_t b = 0; b < batch; ++b) {
        const Complex v0 = a0[b];
        const Complex v1 = a1[b];
        a0[b] = m00[b] * v0 + m01[b] * v1;
        a1[b] = m10[b] * v0 + m11[b] * v1;
      }
    }
  }
}

void scalar_apply_diagonal_batch(Complex* amps, std::size_t n,
                                 std::size_t stride, std::size_t batch,
                                 Complex d0, Complex d1) {
  if (d0 == Complex{1.0, 0.0}) {
    for (std::size_t block = 0; block < n; block += 2 * stride) {
      Complex* a1 = amps + (block + stride) * batch;
      for (std::size_t b = 0; b < stride * batch; ++b) a1[b] *= d1;
    }
    return;
  }
  for (std::size_t block = 0; block < n; block += 2 * stride) {
    Complex* a0 = amps + block * batch;
    Complex* a1 = a0 + stride * batch;
    for (std::size_t b = 0; b < stride * batch; ++b) {
      a0[b] *= d0;
      a1[b] *= d1;
    }
  }
}

// The two-wire kernels walk compact indices in blocks of `lo`: indices
// k .. k+lo-1 (k a multiple of lo) expand to consecutive amplitude rows, so
// each block is one contiguous run of lo * batch complexes per row group.

void scalar_apply_cnot_pairs_batch(Complex* amps, std::size_t quarter,
                                   std::size_t lo, std::size_t hi,
                                   std::size_t cmask, std::size_t tmask,
                                   std::size_t batch) {
  const std::size_t run = lo * batch;
  for (std::size_t k = 0; k < quarter; k += lo) {
    const std::size_t i = expand_two_zero_bits(k, lo, hi) | cmask;
    Complex* a = amps + i * batch;
    Complex* b = amps + (i | tmask) * batch;
    for (std::size_t j = 0; j < run; ++j) {
      const Complex tmp = a[j];
      a[j] = b[j];
      b[j] = tmp;
    }
  }
}

void scalar_apply_two_qubit_batch(Complex* amps, std::size_t quarter,
                                  std::size_t lo, std::size_t hi,
                                  std::size_t amask, std::size_t bmask,
                                  std::size_t batch, const Complex* m16) {
  const std::size_t run = lo * batch;
  for (std::size_t k = 0; k < quarter; k += lo) {
    const std::size_t base = expand_two_zero_bits(k, lo, hi);
    Complex* rows[4] = {
        amps + base * batch,
        amps + (base | bmask) * batch,
        amps + (base | amask) * batch,
        amps + (base | amask | bmask) * batch,
    };
    for (std::size_t j = 0; j < run; ++j) {
      const Complex a0 = rows[0][j];
      const Complex a1 = rows[1][j];
      const Complex a2 = rows[2][j];
      const Complex a3 = rows[3][j];
      for (std::size_t r = 0; r < 4; ++r) {
        rows[r][j] = m16[4 * r + 0] * a0 + m16[4 * r + 1] * a1 +
                     m16[4 * r + 2] * a2 + m16[4 * r + 3] * a3;
      }
    }
  }
}

void scalar_expval_z_batch(const Complex* amps, std::size_t n,
                           std::size_t mask, std::size_t batch, double* out) {
  // One sequential running sum per row in ascending i — the reduction
  // canon (each lane is an independent scalar chain).
  for (std::size_t b = 0; b < batch; ++b) out[b] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Complex* row = amps + i * batch;
    if ((i & mask) == 0) {
      for (std::size_t b = 0; b < batch; ++b) out[b] += std::norm(row[b]);
    } else {
      for (std::size_t b = 0; b < batch; ++b) out[b] -= std::norm(row[b]);
    }
  }
}

void scalar_inner_products_real_batch(const Complex* lhs, const Complex* rhs,
                                      std::size_t n, std::size_t batch,
                                      double* out) {
  for (std::size_t b = 0; b < batch; ++b) out[b] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Complex* l = lhs + i * batch;
    const Complex* r = rhs + i * batch;
    for (std::size_t b = 0; b < batch; ++b) {
      out[b] += l[b].real() * r[b].real() + l[b].imag() * r[b].imag();
    }
  }
}

// One R-row x W-column tile of C with k streamed: each accumulator starts
// at +0.0 and adds A(i,p)*B(p,j) in ascending p (the GEMM canon), then is
// stored to C or added to it once. R and W are compile-time so the R*W
// accumulators stay in registers.
template <std::size_t R, std::size_t W>
void scalar_gemm_tile(std::size_t k, const double* a, std::size_t a_row_stride,
                      std::size_t a_col_stride, const double* b,
                      std::size_t ldb, double* c, std::size_t ldc,
                      bool accumulate) {
  double acc[R][W] = {};
  for (std::size_t p = 0; p < k; ++p) {
    const double* ap = a + p * a_col_stride;
    const double* brow = b + p * ldb;
    for (std::size_t r = 0; r < R; ++r) {
      const double aval = ap[r * a_row_stride];
      for (std::size_t j = 0; j < W; ++j) acc[r][j] += aval * brow[j];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    double* crow = c + r * ldc;
    for (std::size_t j = 0; j < W; ++j) {
      if (accumulate) {
        crow[j] += acc[r][j];
      } else {
        crow[j] = acc[r][j];
      }
    }
  }
}

/// R rows of C: 4-wide column tiles, then one 1-3 column tile.
template <std::size_t R>
void scalar_gemm_row_block(std::size_t n, std::size_t k, const double* a,
                           std::size_t a_row_stride, std::size_t a_col_stride,
                           const double* b, std::size_t ldb, double* c,
                           std::size_t ldc, bool accumulate) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    scalar_gemm_tile<R, 4>(k, a, a_row_stride, a_col_stride, b + j, ldb,
                           c + j, ldc, accumulate);
  }
  switch (n - j) {
    case 3:
      scalar_gemm_tile<R, 3>(k, a, a_row_stride, a_col_stride, b + j, ldb,
                             c + j, ldc, accumulate);
      break;
    case 2:
      scalar_gemm_tile<R, 2>(k, a, a_row_stride, a_col_stride, b + j, ldb,
                             c + j, ldc, accumulate);
      break;
    case 1:
      scalar_gemm_tile<R, 1>(k, a, a_row_stride, a_col_stride, b + j, ldb,
                             c + j, ldc, accumulate);
      break;
    default:
      break;
  }
}

void scalar_gemm_rows(std::size_t m, std::size_t n, std::size_t k,
                      const double* a, std::size_t a_row_stride,
                      std::size_t a_col_stride, const double* b,
                      std::size_t ldb, double* c, std::size_t ldc,
                      bool accumulate) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    scalar_gemm_row_block<4>(n, k, a + i * a_row_stride, a_row_stride,
                             a_col_stride, b, ldb, c + i * ldc, ldc,
                             accumulate);
  }
  const double* a_tail = a + i * a_row_stride;
  double* c_tail = c + i * ldc;
  switch (m - i) {
    case 3:
      scalar_gemm_row_block<3>(n, k, a_tail, a_row_stride, a_col_stride, b,
                               ldb, c_tail, ldc, accumulate);
      break;
    case 2:
      scalar_gemm_row_block<2>(n, k, a_tail, a_row_stride, a_col_stride, b,
                               ldb, c_tail, ldc, accumulate);
      break;
    case 1:
      scalar_gemm_row_block<1>(n, k, a_tail, a_row_stride, a_col_stride, b,
                               ldb, c_tail, ldc, accumulate);
      break;
    default:
      break;
  }
}

bool always_supported() { return true; }

constexpr KernelOps kScalarOps{
    scalar_gemm_rows,
    scalar_apply_single_qubit_batch,
    scalar_apply_single_qubit_rows_batch,
    scalar_apply_diagonal_batch,
    scalar_apply_cnot_pairs_batch,
    scalar_apply_two_qubit_batch,
    scalar_expval_z_batch,
    scalar_inner_products_real_batch,
};

const Backend kGeneric{
    "generic",
    /*priority=*/0,
    always_supported,
    kScalarOps,
};

}  // namespace

namespace detail {

void register_generic_backend() { register_backend(&kGeneric); }

}  // namespace detail
}  // namespace qhdl::util::simd
