#include "quantum/sampling.hpp"

#include <algorithm>
#include <stdexcept>

namespace qhdl::quantum {

namespace {

/// cdf[i] = Σ_{j<=i} |amp_j|² of row `row` of `batch`, in ascending j.
void build_cdf(const StateVectorBatch& batch, std::size_t row,
               std::vector<double>& cdf) {
  const std::size_t rows = batch.batch();
  const Complex* amps = batch.amplitudes().data() + row;
  cdf.resize(batch.dimension());
  double cumulative = 0.0;
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    cumulative += std::norm(amps[i * rows]);
    cdf[i] = cumulative;
  }
  // Guard against rounding: force the last entry to cover u -> 1.
  cdf.back() = std::max(cdf.back(), 1.0);
}

std::size_t draw_from(const std::vector<double>& cdf, util::Rng& rng) {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return static_cast<std::size_t>(it - cdf.begin());
}

}  // namespace

BasisSampler::BasisSampler(const StateVector& state)
    : num_qubits_(state.num_qubits()) {
  build_cdf(state, 0, cdf_);
}

std::size_t BasisSampler::draw(util::Rng& rng) const {
  return draw_from(cdf_, rng);
}

std::vector<std::size_t> sample_basis_states(const StateVector& state,
                                             std::size_t shots,
                                             util::Rng& rng) {
  if (shots == 0) {
    throw std::invalid_argument("sample_basis_states: shots must be > 0");
  }
  const BasisSampler sampler{state};
  std::vector<std::size_t> outcomes(shots);
  for (auto& outcome : outcomes) outcome = sampler.draw(rng);
  return outcomes;
}

std::map<std::size_t, std::size_t> sample_counts(const StateVector& state,
                                                 std::size_t shots,
                                                 util::Rng& rng) {
  std::map<std::size_t, std::size_t> counts;
  for (std::size_t outcome : sample_basis_states(state, shots, rng)) {
    ++counts[outcome];
  }
  return counts;
}

double estimate_expval_z(const StateVector& state, std::size_t wire,
                         std::size_t shots, util::Rng& rng) {
  const std::vector<std::size_t> wires{wire};
  return estimate_expvals_z(state, wires, shots, rng)[0];
}

std::vector<double> estimate_expvals_z(const StateVector& state,
                                       std::span<const std::size_t> wires,
                                       std::size_t shots, util::Rng& rng) {
  std::vector<double> cdf;
  std::vector<double> estimates(wires.size());
  estimate_expvals_z_row(state, 0, wires, shots, rng, cdf, estimates);
  return estimates;
}

void estimate_expvals_z_row(const StateVectorBatch& batch, std::size_t row,
                            std::span<const std::size_t> wires,
                            std::size_t shots, util::Rng& rng,
                            std::vector<double>& cdf, std::span<double> out) {
  if (shots == 0) {
    throw std::invalid_argument("estimate_expvals_z: shots must be > 0");
  }
  const std::size_t q = batch.num_qubits();
  for (std::size_t wire : wires) {
    if (wire >= q) {
      throw std::out_of_range("estimate_expvals_z: wire out of range");
    }
  }
  if (row >= batch.batch() || out.size() != wires.size()) {
    throw std::invalid_argument(
        "estimate_expvals_z_row: row out of range or out size != wires");
  }
  build_cdf(batch, row, cdf);
  // The ±1 sums are integers far below 2^53, so summing them in `out` is
  // exact.
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t shot = 0; shot < shots; ++shot) {
    const std::size_t outcome = draw_from(cdf, rng);
    for (std::size_t k = 0; k < wires.size(); ++k) {
      const std::size_t mask = std::size_t{1} << (q - 1 - wires[k]);
      out[k] += (outcome & mask) == 0 ? 1.0 : -1.0;
    }
  }
  for (double& estimate : out) estimate /= static_cast<double>(shots);
}

}  // namespace qhdl::quantum
