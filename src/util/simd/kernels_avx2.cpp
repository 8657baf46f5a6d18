// AVX2 kernel backend. Every kernel is bit-identical to the generic scalar
// backend (EXPECT_EQ-enforced by the BackendEquivalence / GemmBackend
// suites):
//   * the SoA batch kernels vectorize ACROSS the contiguous batch lanes, so
//     each lane runs the scalar per-row formula unchanged;
//   * complex multiplies use mul / in-lane shuffle / mul / addsub — the
//     same two roundings per component as the scalar (a.re*c.re - a.im*c.im,
//     a.im*c.re + a.re*c.im) formula;
//   * no FMA anywhere (it would skip a rounding), and the TU compiles with
//     -ffp-contract=off so the compiler cannot contract the scalar tails;
//   * CNOT is a pure permutation (wide loads/stores, no arithmetic);
//   * the small GEMM broadcasts A and keeps each C element's own
//     accumulator with its ascending-p multiply/add order (the GEMM canon).
#include "util/simd/kernels_internal.hpp"

#if defined(QHDL_SIMD_AVX2) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <utility>

namespace qhdl::util::simd::detail {

namespace {

/// Multiplies the two packed complex doubles in `v` by the constant
/// (mr + i*mi) broadcast across `mr` / `mi`: re' = re*mr - im*mi,
/// im' = im*mr + re*mi — exactly the scalar complex-multiply roundings.
inline __m256d cmul_const(__m256d v, __m256d mr, __m256d mi) {
  const __m256d t1 = _mm256_mul_pd(v, mr);
  const __m256d swapped = _mm256_permute_pd(v, 0x5);  // [im, re] per complex
  const __m256d t2 = _mm256_mul_pd(swapped, mi);
  // addsub: even lanes t1 - t2 (real), odd lanes t1 + t2 (imag).
  return _mm256_addsub_pd(t1, t2);
}

/// The one-complex (xmm) form of cmul_const for odd tails: the same
/// per-lane operations, so the same roundings.
inline __m128d cmul_const(__m128d v, __m128d mr, __m128d mi) {
  const __m128d t1 = _mm_mul_pd(v, mr);
  const __m128d t2 = _mm_mul_pd(_mm_shuffle_pd(v, v, 0x1), mi);
  return _mm_addsub_pd(t1, t2);
}

inline __m128d low(__m256d v) { return _mm256_castpd256_pd128(v); }

// Batched-SoA kernels. Amplitude row i is a contiguous run of `batch`
// complexes; vectorization is ACROSS those lanes (2 complexes per ymm,
// unit-stride, no shuffles), so each lane executes the scalar per-row
// formula unchanged — the bit-identity argument is lane independence, not
// a reduction-order proof. An odd trailing complex (an odd batch, or the
// stride-1 gates of a one-row batch) runs the same per-lane operations in
// an xmm register.

void avx2_apply_single_qubit_batch(Complex* amps, std::size_t n,
                                   std::size_t stride, std::size_t batch,
                                   const Complex* m) {
  double* base = reinterpret_cast<double*>(amps);
  const __m256d m00r = _mm256_set1_pd(m[0].real());
  const __m256d m00i = _mm256_set1_pd(m[0].imag());
  const __m256d m01r = _mm256_set1_pd(m[1].real());
  const __m256d m01i = _mm256_set1_pd(m[1].imag());
  const __m256d m10r = _mm256_set1_pd(m[2].real());
  const __m256d m10i = _mm256_set1_pd(m[2].imag());
  const __m256d m11r = _mm256_set1_pd(m[3].real());
  const __m256d m11i = _mm256_set1_pd(m[3].imag());
  // Rows block+offset for offset in [0, stride) are contiguous in SoA, so
  // the offset and lane loops collapse into one run of stride*batch
  // complexes per half.
  const std::size_t run = stride * batch;
  for (std::size_t block = 0; block < n; block += 2 * stride) {
    double* p0 = base + 2 * block * batch;
    double* p1 = p0 + 2 * run;
    std::size_t j = 0;
    for (; j + 2 <= run; j += 2) {
      const __m256d a0 = _mm256_loadu_pd(p0 + 2 * j);
      const __m256d a1 = _mm256_loadu_pd(p1 + 2 * j);
      const __m256d r0 = _mm256_add_pd(cmul_const(a0, m00r, m00i),
                                       cmul_const(a1, m01r, m01i));
      const __m256d r1 = _mm256_add_pd(cmul_const(a0, m10r, m10i),
                                       cmul_const(a1, m11r, m11i));
      _mm256_storeu_pd(p0 + 2 * j, r0);
      _mm256_storeu_pd(p1 + 2 * j, r1);
    }
    if (j < run) {
      const __m128d a0 = _mm_loadu_pd(p0 + 2 * j);
      const __m128d a1 = _mm_loadu_pd(p1 + 2 * j);
      _mm_storeu_pd(p0 + 2 * j,
                    _mm_add_pd(cmul_const(a0, low(m00r), low(m00i)),
                               cmul_const(a1, low(m01r), low(m01i))));
      _mm_storeu_pd(p1 + 2 * j,
                    _mm_add_pd(cmul_const(a0, low(m10r), low(m10i)),
                               cmul_const(a1, low(m11r), low(m11i))));
    }
  }
}

/// cmul_const with a different constant per complex: `e` holds two packed
/// complexes [re0, im0, re1, im1], split into the [re0, re0, re1, re1] /
/// [im0, im0, im1, im1] broadcasts cmul_const takes.
inline __m256d cmul_lanes(__m256d v, __m256d e) {
  return cmul_const(v, _mm256_movedup_pd(e), _mm256_permute_pd(e, 0xF));
}

inline __m128d cmul_lanes(__m128d v, __m128d e) {
  return cmul_const(v, _mm_movedup_pd(e), _mm_permute_pd(e, 0x3));
}

void avx2_apply_single_qubit_rows_batch(Complex* amps, std::size_t n,
                                        std::size_t stride, std::size_t batch,
                                        const Complex* m) {
  double* base = reinterpret_cast<double*>(amps);
  // Lane b's entries sit at the same lane offset of four runs of batch.
  const double* m00 = reinterpret_cast<const double*>(m);
  const double* m01 = m00 + 2 * batch;
  const double* m10 = m00 + 4 * batch;
  const double* m11 = m00 + 6 * batch;
  for (std::size_t block = 0; block < n; block += 2 * stride) {
    for (std::size_t offset = 0; offset < stride; ++offset) {
      double* p0 = base + 2 * (block + offset) * batch;
      double* p1 = p0 + 2 * stride * batch;
      std::size_t b = 0;
      for (; b + 2 <= batch; b += 2) {
        const __m256d a0 = _mm256_loadu_pd(p0 + 2 * b);
        const __m256d a1 = _mm256_loadu_pd(p1 + 2 * b);
        const __m256d r0 =
            _mm256_add_pd(cmul_lanes(a0, _mm256_loadu_pd(m00 + 2 * b)),
                          cmul_lanes(a1, _mm256_loadu_pd(m01 + 2 * b)));
        const __m256d r1 =
            _mm256_add_pd(cmul_lanes(a0, _mm256_loadu_pd(m10 + 2 * b)),
                          cmul_lanes(a1, _mm256_loadu_pd(m11 + 2 * b)));
        _mm256_storeu_pd(p0 + 2 * b, r0);
        _mm256_storeu_pd(p1 + 2 * b, r1);
      }
      if (b < batch) {
        const __m128d a0 = _mm_loadu_pd(p0 + 2 * b);
        const __m128d a1 = _mm_loadu_pd(p1 + 2 * b);
        _mm_storeu_pd(p0 + 2 * b,
                      _mm_add_pd(cmul_lanes(a0, _mm_loadu_pd(m00 + 2 * b)),
                                 cmul_lanes(a1, _mm_loadu_pd(m01 + 2 * b))));
        _mm_storeu_pd(p1 + 2 * b,
                      _mm_add_pd(cmul_lanes(a0, _mm_loadu_pd(m10 + 2 * b)),
                                 cmul_lanes(a1, _mm_loadu_pd(m11 + 2 * b))));
      }
    }
  }
}

void avx2_apply_diagonal_batch(Complex* amps, std::size_t n,
                               std::size_t stride, std::size_t batch,
                               Complex d0, Complex d1) {
  double* base = reinterpret_cast<double*>(amps);
  const __m256d d1r = _mm256_set1_pd(d1.real());
  const __m256d d1i = _mm256_set1_pd(d1.imag());
  const std::size_t run = stride * batch;
  if (d0 == Complex{1.0, 0.0}) {
    for (std::size_t block = 0; block < n; block += 2 * stride) {
      double* p1 = base + 2 * (block + stride) * batch;
      std::size_t j = 0;
      for (; j + 2 <= run; j += 2) {
        _mm256_storeu_pd(p1 + 2 * j,
                         cmul_const(_mm256_loadu_pd(p1 + 2 * j), d1r, d1i));
      }
      if (j < run) {
        _mm_storeu_pd(p1 + 2 * j, cmul_const(_mm_loadu_pd(p1 + 2 * j),
                                             low(d1r), low(d1i)));
      }
    }
    return;
  }
  const __m256d d0r = _mm256_set1_pd(d0.real());
  const __m256d d0i = _mm256_set1_pd(d0.imag());
  for (std::size_t block = 0; block < n; block += 2 * stride) {
    double* p0 = base + 2 * block * batch;
    double* p1 = p0 + 2 * run;
    std::size_t j = 0;
    for (; j + 2 <= run; j += 2) {
      _mm256_storeu_pd(p0 + 2 * j,
                       cmul_const(_mm256_loadu_pd(p0 + 2 * j), d0r, d0i));
      _mm256_storeu_pd(p1 + 2 * j,
                       cmul_const(_mm256_loadu_pd(p1 + 2 * j), d1r, d1i));
    }
    if (j < run) {
      _mm_storeu_pd(p0 + 2 * j, cmul_const(_mm_loadu_pd(p0 + 2 * j),
                                           low(d0r), low(d0i)));
      _mm_storeu_pd(p1 + 2 * j, cmul_const(_mm_loadu_pd(p1 + 2 * j),
                                           low(d1r), low(d1i)));
    }
  }
}

// The two-wire kernels walk compact indices in blocks of `lo`: indices
// k .. k+lo-1 (k a multiple of lo) expand to consecutive amplitude rows, so
// each block is one contiguous run of lo * batch complexes per row group.

void avx2_apply_cnot_pairs_batch(Complex* amps, std::size_t quarter,
                                 std::size_t lo, std::size_t hi,
                                 std::size_t cmask, std::size_t tmask,
                                 std::size_t batch) {
  double* base = reinterpret_cast<double*>(amps);
  const std::size_t run = lo * batch;
  for (std::size_t k = 0; k < quarter; k += lo) {
    const std::size_t i = expand_two_zero_bits(k, lo, hi) | cmask;
    double* p = base + 2 * i * batch;
    double* q = base + 2 * (i | tmask) * batch;
    std::size_t j = 0;
    for (; j + 2 <= run; j += 2) {
      const __m256d a = _mm256_loadu_pd(p + 2 * j);
      const __m256d b = _mm256_loadu_pd(q + 2 * j);
      _mm256_storeu_pd(p + 2 * j, b);
      _mm256_storeu_pd(q + 2 * j, a);
    }
    for (; j < run; ++j) {
      const Complex tmp = amps[i * batch + j];
      amps[i * batch + j] = amps[(i | tmask) * batch + j];
      amps[(i | tmask) * batch + j] = tmp;
    }
  }
}

void avx2_apply_two_qubit_batch(Complex* amps, std::size_t quarter,
                                std::size_t lo, std::size_t hi,
                                std::size_t amask, std::size_t bmask,
                                std::size_t batch, const Complex* m16) {
  double* base = reinterpret_cast<double*>(amps);
  __m256d mr[16];
  __m256d mi[16];
  for (std::size_t t = 0; t < 16; ++t) {
    mr[t] = _mm256_set1_pd(m16[t].real());
    mi[t] = _mm256_set1_pd(m16[t].imag());
  }
  const std::size_t run = lo * batch;
  for (std::size_t k = 0; k < quarter; k += lo) {
    const std::size_t idx = expand_two_zero_bits(k, lo, hi);
    const std::size_t rows[4] = {idx, idx | bmask, idx | amask,
                                 idx | amask | bmask};
    std::size_t j = 0;
    for (; j + 2 <= run; j += 2) {
      __m256d a[4];
      for (std::size_t r = 0; r < 4; ++r) {
        a[r] = _mm256_loadu_pd(base + 2 * (rows[r] * batch + j));
      }
      for (std::size_t r = 0; r < 4; ++r) {
        // Left-to-right association, matching the scalar 4x4 row formula.
        __m256d acc = cmul_const(a[0], mr[4 * r], mi[4 * r]);
        acc = _mm256_add_pd(acc, cmul_const(a[1], mr[4 * r + 1],
                                            mi[4 * r + 1]));
        acc = _mm256_add_pd(acc, cmul_const(a[2], mr[4 * r + 2],
                                            mi[4 * r + 2]));
        acc = _mm256_add_pd(acc, cmul_const(a[3], mr[4 * r + 3],
                                            mi[4 * r + 3]));
        _mm256_storeu_pd(base + 2 * (rows[r] * batch + j), acc);
      }
    }
    for (; j < run; ++j) {
      Complex a[4];
      for (std::size_t r = 0; r < 4; ++r) a[r] = amps[rows[r] * batch + j];
      for (std::size_t r = 0; r < 4; ++r) {
        amps[rows[r] * batch + j] = m16[4 * r + 0] * a[0] +
                                    m16[4 * r + 1] * a[1] +
                                    m16[4 * r + 2] * a[2] +
                                    m16[4 * r + 3] * a[3];
      }
    }
  }
}

void avx2_expval_z_batch(const Complex* amps, std::size_t n, std::size_t mask,
                         std::size_t batch, double* out) {
  const double* base = reinterpret_cast<const double*>(amps);
  const __m256d neg = _mm256_set1_pd(-0.0);
  const __m256d none = _mm256_setzero_pd();
  std::size_t b = 0;
  // 4-lane groups; the accumulator stays in hadd's interleaved lane order
  // [b, b+2, b+1, b+3] through the whole i loop (each lane is an
  // independent chain, so register position is irrelevant to rounding) and
  // is unpermuted only at the final scalar store.
  for (; b + 4 <= batch; b += 4) {
    __m256d acc = none;
    for (std::size_t i = 0; i < n; ++i) {
      const double* p = base + 2 * (i * batch + b);
      const __m256d v0 = _mm256_loadu_pd(p);
      const __m256d v1 = _mm256_loadu_pd(p + 4);
      const __m256d norms = _mm256_hadd_pd(_mm256_mul_pd(v0, v0),
                                           _mm256_mul_pd(v1, v1));
      // acc + (-p) is bit-identical to acc - p.
      const __m256d sign = (i & mask) != 0 ? neg : none;
      acc = _mm256_add_pd(acc, _mm256_xor_pd(norms, sign));
    }
    alignas(32) double lane[4];
    _mm256_store_pd(lane, acc);
    out[b] = lane[0];
    out[b + 1] = lane[2];
    out[b + 2] = lane[1];
    out[b + 3] = lane[3];
  }
  for (; b < batch; ++b) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double p = std::norm(amps[i * batch + b]);
      if ((i & mask) == 0) {
        sum += p;
      } else {
        sum -= p;
      }
    }
    out[b] = sum;
  }
}

void avx2_inner_products_real_batch(const Complex* lhs, const Complex* rhs,
                                    std::size_t n, std::size_t batch,
                                    double* out) {
  const double* lbase = reinterpret_cast<const double*>(lhs);
  const double* rbase = reinterpret_cast<const double*>(rhs);
  std::size_t b = 0;
  for (; b + 4 <= batch; b += 4) {
    __m256d acc = _mm256_setzero_pd();  // lane order [b, b+2, b+1, b+3]
    for (std::size_t i = 0; i < n; ++i) {
      const double* lp = lbase + 2 * (i * batch + b);
      const double* rp = rbase + 2 * (i * batch + b);
      const __m256d t0 =
          _mm256_mul_pd(_mm256_loadu_pd(lp), _mm256_loadu_pd(rp));
      const __m256d t1 =
          _mm256_mul_pd(_mm256_loadu_pd(lp + 4), _mm256_loadu_pd(rp + 4));
      // hadd(re*re, im*im): the one add rounding the scalar formula does.
      acc = _mm256_add_pd(acc, _mm256_hadd_pd(t0, t1));
    }
    alignas(32) double lane[4];
    _mm256_store_pd(lane, acc);
    out[b] = lane[0];
    out[b + 1] = lane[2];
    out[b + 2] = lane[1];
    out[b + 3] = lane[3];
  }
  for (; b < batch; ++b) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const Complex l = lhs[i * batch + b];
      const Complex r = rhs[i * batch + b];
      sum += l.real() * r.real() + l.imag() * r.imag();
    }
    out[b] = sum;
  }
}

// Small GEMM: an R-row x 4V-column tile of C with k streamed. Each
// accumulator lane starts at +0.0 and adds A(i,p)*B(p,j) in ascending p with
// an explicit mul then add (no FMA), then is stored to C or added to it once
// — per element the generic scalar tile's exact sequence. A `Masked` tile's
// last vector covers 1-4 columns through `tail`; maskload/maskstore never
// touch the masked-out columns, so a ragged tile ends exactly at C's or B's
// last element. Accumulator t holds row t / V, column vector t % V; the fold
// expressions index it with constants, so every accumulator stays in a
// register across the k loop (GCC keeps a loop-indexed accumulator array in
// memory and stores it back on every p step).
template <std::size_t R, std::size_t V, bool Masked>
void gemm_tile(std::size_t k, const double* a, std::size_t a_row_stride,
               std::size_t a_col_stride, const double* b, std::size_t ldb,
               double* c, std::size_t ldc, bool accumulate, __m256i tail) {
  const auto load = [tail](const double* row, std::size_t v) {
    return Masked && v + 1 == V ? _mm256_maskload_pd(row + 4 * v, tail)
                                : _mm256_loadu_pd(row + 4 * v);
  };
  [&]<std::size_t... T>(std::index_sequence<T...>) {
    __m256d acc[R * V] = {((void)T, _mm256_setzero_pd())...};
    for (std::size_t p = 0; p < k; ++p) {
      const double* brow = b + p * ldb;
      const double* ap = a + p * a_col_stride;
      ((acc[T] = _mm256_add_pd(
            acc[T],
            _mm256_mul_pd(_mm256_broadcast_sd(ap + T / V * a_row_stride),
                          load(brow, T % V)))),
       ...);
    }
    const auto store = [&](std::size_t t, __m256d out) {
      double* cv = c + t / V * ldc + 4 * (t % V);
      if (accumulate) out = _mm256_add_pd(load(c + t / V * ldc, t % V), out);
      if (Masked && t % V + 1 == V) {
        _mm256_maskstore_pd(cv, tail, out);
      } else {
        _mm256_storeu_pd(cv, out);
      }
    };
    (store(T, acc[T]), ...);
  }(std::make_index_sequence<R * V>{});
}

/// Lanes [0, columns) of a 4-wide column vector set, columns in 1..4.
inline __m256i column_mask(std::size_t columns) {
  return _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(columns)),
      _mm256_setr_epi64x(0, 1, 2, 3));
}

/// R rows of C: 8-wide column tiles (8 accumulators at R = 4), then one
/// tile of the 1-7 remaining columns with a masked last vector.
template <std::size_t R>
void gemm_row_block(std::size_t n, std::size_t k, const double* a,
                    std::size_t a_row_stride, std::size_t a_col_stride,
                    const double* b, std::size_t ldb, double* c,
                    std::size_t ldc, bool accumulate) {
  const __m256i full = _mm256_set1_epi64x(-1);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    gemm_tile<R, 2, false>(k, a, a_row_stride, a_col_stride, b + j, ldb,
                           c + j, ldc, accumulate, full);
  }
  const std::size_t rest = n - j;
  if (rest == 0) return;
  const __m256i tail = column_mask((rest - 1) % 4 + 1);
  if (rest > 4) {
    gemm_tile<R, 2, true>(k, a, a_row_stride, a_col_stride, b + j, ldb,
                          c + j, ldc, accumulate, tail);
  } else if (rest == 4) {
    gemm_tile<R, 1, false>(k, a, a_row_stride, a_col_stride, b + j, ldb,
                           c + j, ldc, accumulate, full);
  } else {
    gemm_tile<R, 1, true>(k, a, a_row_stride, a_col_stride, b + j, ldb,
                          c + j, ldc, accumulate, tail);
  }
}

void avx2_gemm_rows(std::size_t m, std::size_t n, std::size_t k,
                    const double* a, std::size_t a_row_stride,
                    std::size_t a_col_stride, const double* b,
                    std::size_t ldb, double* c, std::size_t ldc,
                    bool accumulate) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    gemm_row_block<4>(n, k, a + i * a_row_stride, a_row_stride, a_col_stride,
                      b, ldb, c + i * ldc, ldc, accumulate);
  }
  const double* a_tail = a + i * a_row_stride;
  double* c_tail = c + i * ldc;
  switch (m - i) {
    case 3:
      gemm_row_block<3>(n, k, a_tail, a_row_stride, a_col_stride, b, ldb,
                        c_tail, ldc, accumulate);
      break;
    case 2:
      gemm_row_block<2>(n, k, a_tail, a_row_stride, a_col_stride, b, ldb,
                        c_tail, ldc, accumulate);
      break;
    case 1:
      gemm_row_block<1>(n, k, a_tail, a_row_stride, a_col_stride, b, ldb,
                        c_tail, ldc, accumulate);
      break;
    default:
      break;
  }
}

// __builtin_cpu_supports consults the feature mask the compiler runtime
// fills in from CPUID and XGETBV, so "supported" also means the OS saves
// the ymm registers. __builtin_cpu_init() is idempotent and makes the mask
// valid before the runtime's own initializer has run.
bool avx2_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}

}  // namespace

}  // namespace qhdl::util::simd::detail

namespace qhdl::util::simd {

namespace {

const Backend kAvx2{
    "avx2",
    /*priority=*/50,
    detail::avx2_supported,
    /*reference=*/false,
    KernelOps{
        detail::avx2_gemm_rows,
        detail::avx2_apply_single_qubit_batch,
        detail::avx2_apply_single_qubit_rows_batch,
        detail::avx2_apply_diagonal_batch,
        detail::avx2_apply_cnot_pairs_batch,
        detail::avx2_apply_two_qubit_batch,
        detail::avx2_expval_z_batch,
        detail::avx2_inner_products_real_batch,
    },
};

}  // namespace

namespace detail {

void register_avx2_backend() { register_backend(&kAvx2); }

}  // namespace detail
}  // namespace qhdl::util::simd

#else  // !QHDL_SIMD_AVX2: nothing to register on this target/toolchain

namespace qhdl::util::simd::detail {

void register_avx2_backend() {}

}  // namespace qhdl::util::simd::detail

#endif
