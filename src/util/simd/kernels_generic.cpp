// Scalar kernel backends: `generic` (the portable default and the
// bit-identity anchor the avx2 backend is compared against) and
// `reference` (same scalar loops, but the seed's sequential expval
// reduction, and its descriptor flag switches circuits, the hybrid executor
// and the trainer to their reference paths).
//
// This TU compiles with no -m arch flags and -ffp-contract=off, so the
// scalar loops here — which double as the avx2 backend's small-shape
// fallbacks — generate exactly the baseline code the pre-registry
// statevector.cpp/gemm.cpp loops did.
#include "util/simd/kernels_internal.hpp"

namespace qhdl::util::simd::detail {

void scalar_apply_single_qubit(Complex* amps, std::size_t n,
                               std::size_t stride, const Complex* m) {
  for (std::size_t block = 0; block < n; block += 2 * stride) {
    for (std::size_t offset = 0; offset < stride; ++offset) {
      const std::size_t i0 = block + offset;
      const std::size_t i1 = i0 + stride;
      const Complex a0 = amps[i0];
      const Complex a1 = amps[i1];
      amps[i0] = m[0] * a0 + m[1] * a1;
      amps[i1] = m[2] * a0 + m[3] * a1;
    }
  }
}

void scalar_apply_diagonal(Complex* amps, std::size_t n, std::size_t stride,
                           Complex d0, Complex d1) {
  if (d0 == Complex{1.0, 0.0}) {
    // Phase-type gates (PhaseShift, S, T): only the wire=1 half moves.
    for (std::size_t block = 0; block < n; block += 2 * stride) {
      for (std::size_t offset = 0; offset < stride; ++offset) {
        amps[block + stride + offset] *= d1;
      }
    }
    return;
  }
  for (std::size_t block = 0; block < n; block += 2 * stride) {
    for (std::size_t offset = 0; offset < stride; ++offset) {
      amps[block + offset] *= d0;
      amps[block + stride + offset] *= d1;
    }
  }
}

void scalar_apply_cnot_pairs(Complex* amps, std::size_t quarter,
                             std::size_t lo, std::size_t hi, std::size_t cmask,
                             std::size_t tmask) {
  for (std::size_t k = 0; k < quarter; ++k) {
    const std::size_t i = expand_two_zero_bits(k, lo, hi) | cmask;
    const std::size_t j = i | tmask;
    const Complex tmp = amps[i];
    amps[i] = amps[j];
    amps[j] = tmp;
  }
}

double scalar_expval_z_sequential(const Complex* amps, std::size_t n,
                                  std::size_t mask) {
  double expectation = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = std::norm(amps[i]);
    expectation += (i & mask) == 0 ? p : -p;
  }
  return expectation;
}

double scalar_expval_z_lanes(const Complex* amps, std::size_t n,
                             std::size_t mask) {
  if (n < 8) return scalar_expval_z_sequential(amps, n, mask);
  // Eight mod-8 residue accumulators; n is a power of two >= 8, so there is
  // no tail. Breaking the single dependent add chain is also why this beats
  // the sequential loop in scalar code.
  double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; i += 8) {
    for (std::size_t l = 0; l < 8; ++l) {
      const double p = std::norm(amps[i + l]);
      if (((i + l) & mask) == 0) {
        acc[l] += p;
      } else {
        acc[l] -= p;
      }
    }
  }
  // Canonical combine: pairwise across the 4-lane halves, then a balanced
  // tree — the exact sequence the AVX2 reduction performs.
  const double b0 = acc[0] + acc[4];
  const double b1 = acc[1] + acc[5];
  const double b2 = acc[2] + acc[6];
  const double b3 = acc[3] + acc[7];
  return (b0 + b1) + (b2 + b3);
}

void scalar_apply_single_qubit_batch(Complex* amps, std::size_t n,
                                     std::size_t stride, std::size_t batch,
                                     const Complex* m) {
  for (std::size_t block = 0; block < n; block += 2 * stride) {
    for (std::size_t offset = 0; offset < stride; ++offset) {
      Complex* a0 = amps + (block + offset) * batch;
      Complex* a1 = a0 + stride * batch;
      for (std::size_t b = 0; b < batch; ++b) {
        const Complex v0 = a0[b];
        const Complex v1 = a1[b];
        a0[b] = m[0] * v0 + m[1] * v1;
        a1[b] = m[2] * v0 + m[3] * v1;
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

void scalar_apply_cnot_pairs_batch(Complex* amps, std::size_t quarter,
                                   std::size_t lo, std::size_t hi,
                                   std::size_t cmask, std::size_t tmask,
                                   std::size_t batch) {
  for (std::size_t k = 0; k < quarter; ++k) {
    const std::size_t i = expand_two_zero_bits(k, lo, hi) | cmask;
    Complex* a = amps + i * batch;
    Complex* b = amps + (i | tmask) * batch;
    for (std::size_t lane = 0; lane < batch; ++lane) {
      const Complex tmp = a[lane];
      a[lane] = b[lane];
      b[lane] = tmp;
    }
  }
}

void scalar_apply_two_qubit_batch(Complex* amps, std::size_t quarter,
                                  std::size_t lo, std::size_t hi,
                                  std::size_t amask, std::size_t bmask,
                                  std::size_t batch, const Complex* m16) {
  for (std::size_t k = 0; k < quarter; ++k) {
    const std::size_t base = expand_two_zero_bits(k, lo, hi);
    Complex* rows[4] = {
        amps + base * batch,
        amps + (base | bmask) * batch,
        amps + (base | amask) * batch,
        amps + (base | amask | bmask) * batch,
    };
    for (std::size_t b = 0; b < batch; ++b) {
      const Complex a0 = rows[0][b];
      const Complex a1 = rows[1][b];
      const Complex a2 = rows[2][b];
      const Complex a3 = rows[3][b];
      for (std::size_t r = 0; r < 4; ++r) {
        rows[r][b] = m16[4 * r + 0] * a0 + m16[4 * r + 1] * a1 +
                     m16[4 * r + 2] * a2 + m16[4 * r + 3] * a3;
      }
    }
  }
}

void scalar_expval_z_batch(const Complex* amps, std::size_t n,
                           std::size_t mask, std::size_t batch, double* out) {
  // One sequential running sum per row in ascending i — the batched
  // reduction canon (each lane is an independent scalar chain).
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

void scalar_gemm_micro_4x4(std::size_t kc, const double* pa, const double* pb,
                           std::size_t pb_stride, double acc[4][4]) {
  for (std::size_t p = 0; p < kc; ++p) {
    const double* arow = pa + p * 4;
    const double* brow = pb + p * pb_stride;
    for (std::size_t ii = 0; ii < 4; ++ii) {
      const double aval = arow[ii];
      for (std::size_t jj = 0; jj < 4; ++jj) {
        acc[ii][jj] += aval * brow[jj];
      }
    }
  }
}

}  // namespace qhdl::util::simd::detail

namespace qhdl::util::simd {

namespace {

bool always_supported() { return true; }

const Backend kGeneric{
    "generic",
    /*priority=*/0,
    always_supported,
    /*reference=*/false,
    KernelOps{
        detail::scalar_apply_single_qubit,
        detail::scalar_apply_diagonal,
        detail::scalar_apply_cnot_pairs,
        detail::scalar_expval_z_lanes,
        detail::scalar_gemm_micro_4x4,
        detail::scalar_apply_single_qubit_batch,
        detail::scalar_apply_diagonal_batch,
        detail::scalar_apply_cnot_pairs_batch,
        detail::scalar_apply_two_qubit_batch,
        detail::scalar_expval_z_batch,
        detail::scalar_inner_products_real_batch,
    },
};

const Backend kReference{
    "reference",
    /*priority=*/-1,  // never auto-detected; explicit selection only
    always_supported,
    /*reference=*/true,
    KernelOps{
        detail::scalar_apply_single_qubit,
        detail::scalar_apply_diagonal,
        detail::scalar_apply_cnot_pairs,
        detail::scalar_expval_z_sequential,
        detail::scalar_gemm_micro_4x4,
        // The batched ops' per-row sequential sums ARE the seed's order, so
        // the reference backend shares the scalar batched kernels.
        detail::scalar_apply_single_qubit_batch,
        detail::scalar_apply_diagonal_batch,
        detail::scalar_apply_cnot_pairs_batch,
        detail::scalar_apply_two_qubit_batch,
        detail::scalar_expval_z_batch,
        detail::scalar_inner_products_real_batch,
    },
};

}  // namespace

namespace detail {

void register_generic_backends() {
  register_backend(&kGeneric);
  register_backend(&kReference);
}

}  // namespace detail
}  // namespace qhdl::util::simd
