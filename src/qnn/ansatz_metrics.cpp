#include "qnn/ansatz_metrics.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "quantum/adjoint_diff.hpp"
#include "quantum/density_matrix.hpp"
#include "quantum/statevector_batch.hpp"

namespace qhdl::qnn {

namespace {

/// Fidelity pairs simulated per batch: bounds the two batches to
/// 2 · kPairsPerBatch · 2^q amplitudes whatever sample_pairs is.
constexpr std::size_t kPairsPerBatch = 128;

quantum::Circuit ansatz_only_circuit(AnsatzKind kind, std::size_t qubits,
                                     std::size_t depth) {
  quantum::Circuit circuit{qubits};
  append_ansatz(circuit, kind, qubits, depth, 0);
  return circuit;
}

std::vector<double> random_angles(std::size_t count, util::Rng& rng) {
  return rng.uniform_vector(count, 0.0, 2.0 * std::numbers::pi);
}

}  // namespace

double haar_bin_probability(std::size_t dimension, double bin_low,
                            double bin_high) {
  if (dimension < 2) {
    throw std::invalid_argument("haar_bin_probability: dimension >= 2");
  }
  const double exponent = static_cast<double>(dimension - 1);
  return std::pow(1.0 - bin_low, exponent) -
         std::pow(1.0 - bin_high, exponent);
}

double ansatz_expressibility(AnsatzKind kind, std::size_t qubits,
                             std::size_t depth,
                             const ExpressibilityConfig& config,
                             util::Rng& rng) {
  if (config.sample_pairs == 0 || config.bins == 0) {
    throw std::invalid_argument("ansatz_expressibility: empty config");
  }
  const quantum::Circuit circuit = ansatz_only_circuit(kind, qubits, depth);
  const std::size_t params = circuit.parameter_count();
  const std::size_t dimension = std::size_t{1} << qubits;

  std::vector<std::size_t> histogram(config.bins, 0);
  std::vector<double> theta1, theta2;
  for (std::size_t first = 0; first < config.sample_pairs;
       first += kPairsPerBatch) {
    const std::size_t rows =
        std::min(kPairsPerBatch, config.sample_pairs - first);
    // Draw θ1 then θ2 for each pair in turn, one packed row per pair.
    theta1.resize(rows * params);
    theta2.resize(rows * params);
    for (std::size_t b = 0; b < rows; ++b) {
      for (std::size_t p = 0; p < params; ++p) {
        theta1[b * params + p] = rng.uniform(0.0, 2.0 * std::numbers::pi);
      }
      for (std::size_t p = 0; p < params; ++p) {
        theta2[b * params + p] = rng.uniform(0.0, 2.0 * std::numbers::pi);
      }
    }
    quantum::StateVectorBatch psi1{qubits, rows};
    quantum::StateVectorBatch psi2{qubits, rows};
    circuit.run_batch(psi1, theta1, params);
    circuit.run_batch(psi2, theta2, params);
    const std::span<const quantum::Complex> a = psi1.amplitudes();
    const std::span<const quantum::Complex> c = psi2.amplitudes();
    for (std::size_t b = 0; b < rows; ++b) {
      // ⟨ψ1|ψ2⟩ summed in ascending amplitude order, as
      // StateVector::inner_product does.
      quantum::Complex overlap{0.0, 0.0};
      for (std::size_t i = 0; i < dimension; ++i) {
        overlap += std::conj(a[i * rows + b]) * c[i * rows + b];
      }
      const double fidelity = std::norm(overlap);
      auto bin = static_cast<std::size_t>(
          fidelity * static_cast<double>(config.bins));
      if (bin >= config.bins) bin = config.bins - 1;  // F == 1 edge case
      ++histogram[bin];
    }
  }

  // KL(P_hist || P_Haar) over the bins; zero-count bins contribute 0.
  double kl = 0.0;
  const double total = static_cast<double>(config.sample_pairs);
  for (std::size_t b = 0; b < config.bins; ++b) {
    if (histogram[b] == 0) continue;
    const double p = static_cast<double>(histogram[b]) / total;
    const double low =
        static_cast<double>(b) / static_cast<double>(config.bins);
    const double high =
        static_cast<double>(b + 1) / static_cast<double>(config.bins);
    const double q =
        std::max(haar_bin_probability(dimension, low, high), 1e-12);
    kl += p * std::log(p / q);
  }
  return kl;
}

double meyer_wallach(const quantum::StateVector& state) {
  const std::size_t n = state.num_qubits();
  double purity_sum = 0.0;
  for (std::size_t wire = 0; wire < n; ++wire) {
    const quantum::Mat2 rho = quantum::reduced_single_qubit(state, wire);
    purity_sum += std::norm(rho.m00) + std::norm(rho.m01) +
                  std::norm(rho.m10) + std::norm(rho.m11);
  }
  return 2.0 * (1.0 - purity_sum / static_cast<double>(n));
}

double ansatz_entangling_capability(AnsatzKind kind, std::size_t qubits,
                                    std::size_t depth, std::size_t samples,
                                    util::Rng& rng) {
  if (samples == 0) {
    throw std::invalid_argument("ansatz_entangling_capability: samples == 0");
  }
  const quantum::Circuit circuit = ansatz_only_circuit(kind, qubits, depth);
  double total = 0.0;
  for (std::size_t s = 0; s < samples; ++s) {
    const auto theta = random_angles(circuit.parameter_count(), rng);
    total += meyer_wallach(circuit.execute(theta));
  }
  return total / static_cast<double>(samples);
}

GradientStats ansatz_gradient_stats(AnsatzKind kind, std::size_t qubits,
                                    std::size_t depth, std::size_t samples,
                                    util::Rng& rng) {
  if (samples == 0) {
    throw std::invalid_argument("ansatz_gradient_stats: samples == 0");
  }
  const quantum::Circuit circuit = ansatz_only_circuit(kind, qubits, depth);
  const quantum::Observable obs = quantum::Observable::pauli_z(0);

  double sum = 0.0, sum_sq = 0.0, sum_abs = 0.0;
  std::size_t count = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    const auto theta = random_angles(circuit.parameter_count(), rng);
    const auto result = quantum::adjoint_gradient(circuit, theta, obs);
    for (double g : result.gradient) {
      sum += g;
      sum_sq += g * g;
      sum_abs += std::abs(g);
      ++count;
    }
  }
  GradientStats stats;
  const double n = static_cast<double>(count);
  stats.mean = sum / n;
  stats.variance = sum_sq / n - stats.mean * stats.mean;
  stats.mean_abs = sum_abs / n;
  return stats;
}

}  // namespace qhdl::qnn
