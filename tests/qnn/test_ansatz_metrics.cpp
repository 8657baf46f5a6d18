#include "qnn/ansatz_metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "quantum/circuit.hpp"
#include "quantum/gates.hpp"

namespace qhdl::qnn {
namespace {

TEST(MeyerWallach, ZeroForProductStates) {
  quantum::StateVector psi{3};
  psi.apply_single_qubit(quantum::gates::ry(0.8), 0);
  psi.apply_single_qubit(quantum::gates::rx(1.3), 1);
  EXPECT_NEAR(meyer_wallach(psi), 0.0, 1e-12);
}

TEST(MeyerWallach, OneForBellState) {
  quantum::StateVector bell{2};
  bell.apply_single_qubit(quantum::gates::hadamard(), 0);
  bell.apply_cnot(0, 1);
  EXPECT_NEAR(meyer_wallach(bell), 1.0, 1e-12);
}

TEST(MeyerWallach, GhzStateIsMaximal) {
  quantum::StateVector ghz{3};
  ghz.apply_single_qubit(quantum::gates::hadamard(), 0);
  ghz.apply_cnot(0, 1);
  ghz.apply_cnot(1, 2);
  EXPECT_NEAR(meyer_wallach(ghz), 1.0, 1e-12);
}

TEST(HaarBinProbability, SumsToOne) {
  const std::size_t bins = 40;
  double total = 0.0;
  for (std::size_t b = 0; b < bins; ++b) {
    total += haar_bin_probability(8, static_cast<double>(b) / bins,
                                  static_cast<double>(b + 1) / bins);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(HaarBinProbability, ConcentratesNearZeroForLargeDimensions) {
  // Haar-random fidelities concentrate at F≈0 as dimension grows.
  EXPECT_GT(haar_bin_probability(32, 0.0, 0.1),
            haar_bin_probability(32, 0.4, 0.5));
  EXPECT_THROW(haar_bin_probability(1, 0.0, 0.1), std::invalid_argument);
}

TEST(Expressibility, DeeperAnsatzIsMoreExpressive) {
  // KL decreases (more Haar-like) as depth grows; a well-known property.
  util::Rng rng{11};
  ExpressibilityConfig config;
  config.sample_pairs = 400;
  config.bins = 30;
  const double shallow = ansatz_expressibility(
      AnsatzKind::StronglyEntangling, 3, 1, config, rng);
  const double deep = ansatz_expressibility(
      AnsatzKind::StronglyEntangling, 3, 4, config, rng);
  EXPECT_LT(deep, shallow);
}

TEST(Expressibility, SelMoreExpressiveThanBelAtSameDepth) {
  // The paper's core qualitative claim (Section III-C), quantified.
  util::Rng rng{13};
  ExpressibilityConfig config;
  config.sample_pairs = 500;
  config.bins = 30;
  const double bel = ansatz_expressibility(AnsatzKind::BasicEntangler, 3, 2,
                                           config, rng);
  const double sel = ansatz_expressibility(AnsatzKind::StronglyEntangling,
                                           3, 2, config, rng);
  EXPECT_LT(sel, bel);
}

/// Test-local expressibility: each pair through Circuit::execute and
/// StateVector::inner_product, θ1 then θ2 drawn per pair.
double per_pair_expressibility(AnsatzKind kind, std::size_t qubits,
                               std::size_t depth,
                               const ExpressibilityConfig& config,
                               util::Rng& rng) {
  quantum::Circuit circuit{qubits};
  append_ansatz(circuit, kind, qubits, depth, 0);
  std::vector<std::size_t> histogram(config.bins, 0);
  for (std::size_t s = 0; s < config.sample_pairs; ++s) {
    const auto theta1 = rng.uniform_vector(circuit.parameter_count(), 0.0,
                                           2.0 * std::numbers::pi);
    const auto theta2 = rng.uniform_vector(circuit.parameter_count(), 0.0,
                                           2.0 * std::numbers::pi);
    const double fidelity = std::norm(
        circuit.execute(theta1).inner_product(circuit.execute(theta2)));
    const auto bin = std::min(
        static_cast<std::size_t>(fidelity * static_cast<double>(config.bins)),
        config.bins - 1);
    ++histogram[bin];
  }
  double kl = 0.0;
  const double total = static_cast<double>(config.sample_pairs);
  for (std::size_t b = 0; b < config.bins; ++b) {
    if (histogram[b] == 0) continue;
    const double p = static_cast<double>(histogram[b]) / total;
    const double q = std::max(
        haar_bin_probability(
            std::size_t{1} << qubits,
            static_cast<double>(b) / static_cast<double>(config.bins),
            static_cast<double>(b + 1) / static_cast<double>(config.bins)),
        1e-12);
    kl += p * std::log(p / q);
  }
  return kl;
}

TEST(Expressibility, BatchedKlMatchesPerPairLoop) {
  // The batched simulation must reproduce the per-pair loop's KL bit for
  // bit and consume the RNG identically, for pair counts below, across and
  // well past one simulation batch.
  for (const AnsatzKind kind :
       {AnsatzKind::BasicEntangler, AnsatzKind::StronglyEntangling}) {
    for (const std::size_t qubits : {std::size_t{3}, std::size_t{4}}) {
      for (const std::size_t pairs :
           {std::size_t{1}, std::size_t{130}, std::size_t{300}}) {
        ExpressibilityConfig config;
        config.sample_pairs = pairs;
        config.bins = 20;
        util::Rng rng{21};
        util::Rng reference_rng{21};
        const double batched =
            ansatz_expressibility(kind, qubits, 2, config, rng);
        const double per_pair =
            per_pair_expressibility(kind, qubits, 2, config, reference_rng);
        const std::string label = ansatz_name(kind) + " q=" +
                                  std::to_string(qubits) +
                                  " pairs=" + std::to_string(pairs);
        EXPECT_EQ(batched, per_pair) << label;
        EXPECT_EQ(rng.uniform(), reference_rng.uniform()) << label;
      }
    }
  }
}

TEST(Expressibility, ValidatesConfig) {
  util::Rng rng{1};
  ExpressibilityConfig config;
  config.sample_pairs = 0;
  EXPECT_THROW(ansatz_expressibility(AnsatzKind::BasicEntangler, 2, 1,
                                     config, rng),
               std::invalid_argument);
}

TEST(EntanglingCapability, IncreasesWithDepthForBel) {
  util::Rng rng{17};
  const double d1 =
      ansatz_entangling_capability(AnsatzKind::BasicEntangler, 3, 1, 200,
                                   rng);
  const double d3 =
      ansatz_entangling_capability(AnsatzKind::BasicEntangler, 3, 3, 200,
                                   rng);
  EXPECT_GT(d3, d1 * 0.9);  // non-decreasing within sampling noise
  EXPECT_GT(d3, 0.3);       // clearly entangling
}

TEST(EntanglingCapability, InRangeZeroOne) {
  util::Rng rng{19};
  const double q = ansatz_entangling_capability(
      AnsatzKind::StronglyEntangling, 4, 2, 100, rng);
  EXPECT_GE(q, 0.0);
  EXPECT_LE(q, 1.0);
}

TEST(GradientStats, MeanNearZeroVariancePositive) {
  util::Rng rng{23};
  const GradientStats stats =
      ansatz_gradient_stats(AnsatzKind::StronglyEntangling, 3, 2, 60, rng);
  EXPECT_NEAR(stats.mean, 0.0, 0.05);
  EXPECT_GT(stats.variance, 0.0);
  EXPECT_GT(stats.mean_abs, 0.0);
}

TEST(GradientStats, VarianceShrinksWithQubits) {
  // Barren-plateau trend: gradient variance decays as width grows.
  util::Rng rng{29};
  const GradientStats narrow =
      ansatz_gradient_stats(AnsatzKind::StronglyEntangling, 2, 3, 80, rng);
  const GradientStats wide =
      ansatz_gradient_stats(AnsatzKind::StronglyEntangling, 6, 3, 80, rng);
  EXPECT_LT(wide.variance, narrow.variance);
}

}  // namespace
}  // namespace qhdl::qnn
