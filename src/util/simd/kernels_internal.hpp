// Internal declarations shared by the backend kernel translation units
// (src/util/simd/kernels_*.cpp). Not installed API — everything here lives
// in a detail namespace.
#pragma once

#include <cstddef>

#include "util/backend_registry.hpp"

namespace qhdl::util::simd::detail {

using Complex = KernelOps::Complex;

/// Spreads compact index `i` into a basis index with a 0 bit at both mask
/// positions (lo_mask < hi_mask, both powers of two). Mirrors the helper in
/// quantum/statevector_batch.cpp — the CNOT and 4x4 kernels walk the same
/// index stream.
inline std::size_t expand_two_zero_bits(std::size_t i, std::size_t lo_mask,
                                        std::size_t hi_mask) {
  const std::size_t j = ((i & ~(lo_mask - 1)) << 1) | (i & (lo_mask - 1));
  return ((j & ~(hi_mask - 1)) << 1) | (j & (hi_mask - 1));
}

}  // namespace qhdl::util::simd::detail
