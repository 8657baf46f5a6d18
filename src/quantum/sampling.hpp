// Finite-shot measurement simulation. On hardware, expectation values are
// estimated from a finite number of computational-basis samples; this module
// reproduces that statistical layer so HQNN inference can be studied under
// realistic shot budgets (standard deviation ~ 1/√shots).
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "quantum/statevector.hpp"
#include "util/rng.hpp"

namespace qhdl::quantum {

/// Draws `shots` computational-basis outcomes from |ψ|².
std::vector<std::size_t> sample_basis_states(const StateVector& state,
                                             std::size_t shots,
                                             util::Rng& rng);

/// Histogram of sampled basis states (index -> count).
std::map<std::size_t, std::size_t> sample_counts(const StateVector& state,
                                                 std::size_t shots,
                                                 util::Rng& rng);

/// Shot-based ⟨Z_wire⟩ estimate: (N₀ − N₁) / shots.
double estimate_expval_z(const StateVector& state, std::size_t wire,
                         std::size_t shots, util::Rng& rng);

/// Shot-based estimates of ⟨Z_w⟩ for several wires from ONE shared sample
/// set (as hardware would do: every shot yields all wires' bits).
std::vector<double> estimate_expvals_z(const StateVector& state,
                                       std::span<const std::size_t> wires,
                                       std::size_t shots, util::Rng& rng);

/// estimate_expvals_z for row `row` of a batch, drawing exactly as it draws
/// from that row extracted, into `out` (wires.size() entries). `cdf` is the
/// caller's scratch, resized in place, so a caller that keeps it allocates
/// nothing once it has seen the largest state.
void estimate_expvals_z_row(const StateVectorBatch& batch, std::size_t row,
                            std::span<const std::size_t> wires,
                            std::size_t shots, util::Rng& rng,
                            std::vector<double>& cdf, std::span<double> out);

/// Precomputed alias-free CDF sampler for repeated draws from one state.
class BasisSampler {
 public:
  explicit BasisSampler(const StateVector& state);

  std::size_t num_qubits() const { return num_qubits_; }

  /// One basis-state draw.
  std::size_t draw(util::Rng& rng) const;

 private:
  std::size_t num_qubits_;
  std::vector<double> cdf_;  ///< inclusive prefix sums of |ψ|²
};

}  // namespace qhdl::quantum
