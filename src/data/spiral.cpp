#include "data/spiral.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace qhdl::data {

using tensor::Shape;
using tensor::Tensor;

double noise_for_features(std::size_t num_features) {
  return 0.1 + 0.003 * static_cast<double>(num_features);
}

Dataset make_spiral(const SpiralConfig& config, double noise,
                    util::Rng& rng) {
  if (config.classes < 2) {
    throw std::invalid_argument("make_spiral: need >= 2 classes");
  }
  if (config.points < config.classes) {
    throw std::invalid_argument("make_spiral: need >= 1 point per class");
  }

  const std::size_t per_class = config.points / config.classes;
  const std::size_t total = per_class * config.classes;

  Dataset dataset;
  dataset.classes = config.classes;
  dataset.x = Tensor{Shape{total, 2}};
  dataset.y.resize(total);

  const double two_pi = 2.0 * std::numbers::pi;
  std::size_t row = 0;
  for (std::size_t c = 0; c < config.classes; ++c) {
    const double phase =
        two_pi * static_cast<double>(c) / static_cast<double>(config.classes);
    for (std::size_t i = 0; i < per_class; ++i) {
      // t in (0, 1]: radius grows along the arm; avoid the degenerate
      // all-classes-coincide point at r = 0.
      const double t = (static_cast<double>(i) + 1.0) /
                       static_cast<double>(per_class);
      const double radius = t + config.radial_noise * rng.normal();
      const double angle =
          config.turns * two_pi * t + phase + noise * rng.normal();
      dataset.x.at(row, 0) = radius * std::sin(angle);
      dataset.x.at(row, 1) = radius * std::cos(angle);
      dataset.y[row] = c;
      ++row;
    }
  }
  return dataset;
}

namespace {

/// Derived-feature family: deterministic nonlinear transforms of the base
/// spiral coordinates. Index k selects the transform and its coefficients,
/// so the feature set for F columns is reproducible and nested (the first
/// F1 < F2 features of two datasets with equal seeds coincide pre-noise).
double derived_feature(std::size_t k, double x0, double x1) {
  const double a = 0.5 + 0.25 * static_cast<double>(k % 7);   // 0.5 .. 2.0
  const double b = 0.3 + 0.2 * static_cast<double>(k % 5);    // 0.3 .. 1.1
  switch (k % 6) {
    case 0: return std::sin(a * x0 + b * x1);
    case 1: return std::cos(a * x1 - b * x0);
    case 2: return std::tanh(a * x0 * x1);
    case 3: return x0 * x0 - b * x1 * x1;
    case 4: return std::sqrt(x0 * x0 + x1 * x1) * std::cos(a * (x0 + x1));
    default: return std::sin(a * x0) * std::cos(b * x1);
  }
}

}  // namespace

Dataset augment_features(const Dataset& base, std::size_t target_features,
                         double noise, util::Rng& rng) {
  base.validate();
  const std::size_t base_features = base.features();
  if (base_features < 2) {
    throw std::invalid_argument("augment_features: base needs >= 2 features");
  }
  if (target_features < base_features) {
    throw std::invalid_argument(
        "augment_features: target below base feature count");
  }

  Dataset out;
  out.classes = base.classes;
  out.y = base.y;
  out.x = Tensor{Shape{base.size(), target_features}};
  const double* in = base.x.data().data();
  double* row = out.x.data().data();
  for (std::size_t i = 0; i < base.size();
       ++i, in += base_features, row += target_features) {
    std::copy_n(in, base_features, row);
    const double x0 = in[0];
    const double x1 = in[1];
    for (std::size_t j = base_features; j < target_features; ++j) {
      const std::size_t k = j - base_features;
      row[j] = derived_feature(k, x0, x1) + noise * rng.normal();
    }
  }
  return out;
}

Dataset make_complexity_dataset(std::size_t num_features,
                                const SpiralConfig& config,
                                std::uint64_t seed) {
  if (num_features < 2) {
    throw std::invalid_argument("make_complexity_dataset: need >= 2 features");
  }
  util::Rng rng{seed};
  const double noise = noise_for_features(num_features);
  const Dataset base =
      make_spiral(config, noise * kAngleNoiseFactor, rng);
  return augment_features(base, num_features, noise * kDerivedNoiseFactor,
                          rng);
}

}  // namespace qhdl::data
