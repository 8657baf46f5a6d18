// GEMM bit-identity (DESIGN.md §9, §13): every dgemm runs the
// registry-dispatched small-GEMM op, and every supported backend must give
// byte-for-byte the GEMM canon — per C element an accumulator that starts at
// +0.0 and adds a*b in ascending p, then C = acc or C += acc — checked both
// against a naive scalar loop and across backends.
#include <cmath>
#include <cstddef>
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/gemm.hpp"
#include "util/backend_registry.hpp"
#include "util/rng.hpp"

namespace {

using namespace qhdl;
namespace simd = util::simd;

class BackendScope {
 public:
  explicit BackendScope(const char* name) { simd::set_backend(name); }
  ~BackendScope() { simd::set_backend(std::nullopt); }
};

std::vector<const simd::Backend*> supported_backends() {
  std::vector<const simd::Backend*> out;
  for (const simd::Backend* backend : simd::backends()) {
    if (backend->supported()) out.push_back(backend);
  }
  return out;
}

std::vector<double> random_matrix(std::size_t rows, std::size_t cols,
                                  util::Rng& rng) {
  return rng.uniform_vector(rows * cols, -1.0, 1.0);
}

std::vector<double> run_dgemm(std::size_t m, std::size_t n, std::size_t k,
                              const std::vector<double>& a, bool a_transposed,
                              const std::vector<double>& b, bool b_transposed,
                              bool accumulate) {
  std::vector<double> c(m * n, accumulate ? 0.5 : -7.0);
  const std::size_t lda = a_transposed ? m : k;
  const std::size_t ldb = b_transposed ? k : n;
  tensor::gemm::dgemm(m, n, k, a.data(), lda, a_transposed, b.data(), ldb,
                      b_transposed, c.data(), n, accumulate);
  return c;
}

struct Shape {
  std::size_t m, n, k;
  const char* note;
};

TEST(GemmBackend, BitIdenticalAcrossBackends) {
  // Large and ragged shapes (166 rows and 131 columns are not multiples of
  // the register tile), the sub-tile case, and the Dense(10->3) and
  // Dense(3->3) shapes the perfbench sweep trains and evaluates: batch-8
  // forward, weight gradient and input gradient, and the 300- and 1200-row
  // accuracy passes. Shapes are {m, n, k}.
  const std::vector<Shape> shapes = {
      {160, 160, 160, "square"},
      {166, 131, 300, "k > 256, ragged tiles"},
      {8, 48, 32, "wide row"},
      {5, 3, 7, "sub-tile"},
      {8, 3, 10, "Dense(10->3) forward"},
      {10, 3, 8, "Dense(10->3) dW"},
      {8, 10, 3, "Dense(10->3) dX"},
      {8, 3, 3, "Dense(3->3) forward, dW, dX"},
      {300, 3, 10, "300-row pass, Dense(10->3)"},
      {1200, 3, 10, "1200-row pass, Dense(10->3)"},
      {1200, 3, 3, "1200-row pass, Dense(3->3)"},
  };
  util::Rng rng{90210};
  for (const Shape& shape : shapes) {
    for (const bool a_transposed : {false, true}) {
      for (const bool b_transposed : {false, true}) {
        for (const bool accumulate : {false, true}) {
          const auto a = a_transposed
                             ? random_matrix(shape.k, shape.m, rng)
                             : random_matrix(shape.m, shape.k, rng);
          const auto b = b_transposed
                             ? random_matrix(shape.n, shape.k, rng)
                             : random_matrix(shape.k, shape.n, rng);
          std::vector<double> golden;
          {
            const BackendScope scope{"generic"};
            golden = run_dgemm(shape.m, shape.n, shape.k, a, a_transposed, b,
                               b_transposed, accumulate);
          }
          for (const simd::Backend* backend : supported_backends()) {
            const BackendScope scope{backend->name};
            const auto candidate = run_dgemm(shape.m, shape.n, shape.k, a,
                                             a_transposed, b, b_transposed,
                                             accumulate);
            ASSERT_EQ(candidate.size(), golden.size());
            for (std::size_t i = 0; i < golden.size(); ++i) {
              ASSERT_EQ(candidate[i], golden[i])
                  << backend->name << " " << shape.note << " m=" << shape.m
                  << " n=" << shape.n << " k=" << shape.k
                  << " aT=" << a_transposed << " bT=" << b_transposed
                  << " acc=" << accumulate << " element " << i;
            }
          }
        }
      }
    }
  }
}

/// The GEMM canon written out: acc = +0.0, acc += A(i,p)*B(p,j) over
/// ascending p, then C = acc or C += acc (an empty sum leaves an
/// accumulated C untouched, as dgemm documents).
void naive_dgemm(std::size_t m, std::size_t n, std::size_t k,
                 const std::vector<double>& a, bool a_transposed,
                 const std::vector<double>& b, bool b_transposed,
                 std::vector<double>& c, bool accumulate) {
  if (k == 0 && accumulate) return;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const double av = a_transposed ? a[p * m + i] : a[i * k + p];
        const double bv = b_transposed ? b[j * k + p] : b[p * n + j];
        acc += av * bv;
      }
      if (accumulate) {
        c[i * n + j] += acc;
      } else {
        c[i * n + j] = acc;
      }
    }
  }
}

// Each operand lives in its own exactly sized allocation with a leading
// dimension equal to its row length, so a kernel that reads or writes one
// element of A, C or a plain B past a ragged column tail or the last row
// runs off the end of the heap block, where ASan builds catch it. A
// transposed B reaches the kernel through dgemm's reused packed buffer,
// which may be larger than k x n, so its tails are guarded by the plain-B
// cases of the same shape.
void expect_canon(std::size_t m, std::size_t n, std::size_t k,
                  const std::vector<double>& a, bool a_transposed,
                  const std::vector<double>& b, bool b_transposed,
                  const std::vector<double>& c_init, bool accumulate) {
  std::vector<double> expected = c_init;
  naive_dgemm(m, n, k, a, a_transposed, b, b_transposed, expected,
              accumulate);
  for (const simd::Backend* backend : supported_backends()) {
    const BackendScope scope{backend->name};
    std::vector<double> c = c_init;
    tensor::gemm::dgemm(m, n, k, a.data(), a_transposed ? m : k, a_transposed,
                        b.data(), b_transposed ? k : n, b_transposed,
                        c.data(), n, accumulate);
    ASSERT_EQ(std::memcmp(c.data(), expected.data(),
                          expected.size() * sizeof(double)),
              0)
        << backend->name << " m=" << m << " n=" << n << " k=" << k
        << " aT=" << a_transposed << " bT=" << b_transposed
        << " acc=" << accumulate;
  }
}

TEST(GemmBackend, EveryBackendMatchesTheNaiveCanonBitwise) {
  // Ragged row blocks (1, 3, 5, 300, 1200 rows), every column tail of the
  // 4- and 8-wide tiles, and k from empty through past 256. The cross
  // product is capped at 2^20 multiply-adds per product so the suite stays
  // quick under sanitizers; every listed m, n and k still appears.
  const std::size_t ms[] = {1, 3, 4, 5, 8, 300, 1200};
  const std::size_t ns[] = {1, 2, 3, 4, 5, 9, 10, 128, 129};
  const std::size_t ks[] = {0, 1, 3, 8, 10, 110, 256, 257, 300};
  constexpr std::size_t kMaxWork = std::size_t{1} << 20;
  util::Rng rng{4242};
  for (const std::size_t m : ms) {
    for (const std::size_t n : ns) {
      for (const std::size_t k : ks) {
        if (m * n * k > kMaxWork) continue;
        for (const bool a_transposed : {false, true}) {
          for (const bool b_transposed : {false, true}) {
            const auto a = rng.uniform_vector(m * k, -1.0, 1.0);
            const auto b = rng.uniform_vector(k * n, -1.0, 1.0);
            const auto c_init = rng.uniform_vector(m * n, -1.0, 1.0);
            for (const bool accumulate : {false, true}) {
              expect_canon(m, n, k, a, a_transposed, b, b_transposed, c_init,
                           accumulate);
            }
          }
        }
      }
    }
  }
}

TEST(GemmBackend, ZeroRowGivesPositiveZero) {
  // A row of -0.0 times positive B gives -0.0 products. The canon's +0.0
  // seed makes their sum +0.0; seeding the accumulator with the first
  // product would leave -0.0.
  for (const std::size_t n : {1, 3, 4, 10}) {
    for (const bool a_transposed : {false, true}) {
      const std::size_t m = 5;
      const std::size_t k = 6;
      util::Rng rng{77};
      auto a = rng.uniform_vector(m * k, 0.5, 1.0);
      for (std::size_t p = 0; p < k; ++p) {
        a[a_transposed ? p * m : p] = -0.0;  // row 0 of A
      }
      const auto b = rng.uniform_vector(k * n, 0.5, 1.0);
      const std::vector<double> c_init(m * n, -7.0);
      expect_canon(m, n, k, a, a_transposed, b, false, c_init, false);
      for (const simd::Backend* backend : supported_backends()) {
        const BackendScope scope{backend->name};
        std::vector<double> c = c_init;
        tensor::gemm::dgemm(m, n, k, a.data(), a_transposed ? m : k,
                            a_transposed, b.data(), n, false, c.data(), n,
                            false);
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_EQ(c[j], 0.0) << backend->name;
          EXPECT_FALSE(std::signbit(c[j])) << backend->name << " n=" << n;
        }
      }
    }
  }
}

}  // namespace
