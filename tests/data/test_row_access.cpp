// The data-derivation loops index Tensor storage through row pointers. Each
// is checked here, byte for byte, against a reference written with the
// bounds-checked Tensor::at(i, j) accessor and the same arithmetic order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "data/preprocess.hpp"
#include "data/spiral.hpp"

namespace qhdl::data {
namespace {

using tensor::Shape;
using tensor::Tensor;

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A 3-class dataset with `features` columns of spread-out values.
Dataset sample(std::size_t rows, std::size_t features, std::uint64_t seed) {
  util::Rng rng{seed};
  Dataset d;
  d.classes = 3;
  d.x = Tensor{Shape{rows, features}};
  for (double& v : d.x.data()) v = rng.normal(0.5, 3.0);
  for (std::size_t i = 0; i < rows; ++i) d.y.push_back(rng.index(3));
  return d;
}

// --- at()-based references ------------------------------------------------

void reference_apply(const Scaler& s, Tensor& x) {
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      x.at(i, j) = (x.at(i, j) - s.offset[j]) / s.scale[j];
    }
  }
}

Scaler reference_standardizer(const Tensor& x) {
  const std::size_t n = x.rows(), f = x.cols();
  Scaler s;
  s.offset.assign(f, 0.0);
  s.scale.assign(f, 1.0);
  for (std::size_t j = 0; j < f; ++j) {
    double mean = 0.0;
    for (std::size_t i = 0; i < n; ++i) mean += x.at(i, j);
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = x.at(i, j) - mean;
      var += d * d;
    }
    var /= static_cast<double>(n);
    s.offset[j] = mean;
    s.scale[j] = var > 1e-24 ? std::sqrt(var) : 1.0;
  }
  return s;
}

Scaler reference_minmax(const Tensor& x, double lo, double hi) {
  const std::size_t n = x.rows(), f = x.cols();
  Scaler s;
  s.offset.assign(f, 0.0);
  s.scale.assign(f, 1.0);
  for (std::size_t j = 0; j < f; ++j) {
    double mn = x.at(0, j), mx = x.at(0, j);
    for (std::size_t i = 1; i < n; ++i) {
      mn = std::min(mn, x.at(i, j));
      mx = std::max(mx, x.at(i, j));
    }
    const double range = mx - mn;
    const double scale = range > 1e-24 ? range / (hi - lo) : 1.0;
    s.scale[j] = scale;
    s.offset[j] = mn - lo * scale;
  }
  return s;
}

Dataset reference_gather(const Dataset& source,
                         const std::vector<std::size_t>& rows) {
  Dataset out;
  out.classes = source.classes;
  out.x = Tensor{Shape{rows.size(), source.features()}};
  out.y.resize(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < source.features(); ++j) {
      out.x.at(i, j) = source.x.at(rows[i], j);
    }
    out.y[i] = source.y[rows[i]];
  }
  return out;
}

/// The derived-feature family of spiral.cpp, restated.
double reference_derived(std::size_t k, double x0, double x1) {
  const double a = 0.5 + 0.25 * static_cast<double>(k % 7);
  const double b = 0.3 + 0.2 * static_cast<double>(k % 5);
  switch (k % 6) {
    case 0: return std::sin(a * x0 + b * x1);
    case 1: return std::cos(a * x1 - b * x0);
    case 2: return std::tanh(a * x0 * x1);
    case 3: return x0 * x0 - b * x1 * x1;
    case 4: return std::sqrt(x0 * x0 + x1 * x1) * std::cos(a * (x0 + x1));
    default: return std::sin(a * x0) * std::cos(b * x1);
  }
}

Dataset reference_augment(const Dataset& base, std::size_t target,
                          double noise, util::Rng& rng) {
  const std::size_t f = base.features();
  Dataset out;
  out.classes = base.classes;
  out.y = base.y;
  out.x = Tensor{Shape{base.size(), target}};
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (std::size_t j = 0; j < f; ++j) out.x.at(i, j) = base.x.at(i, j);
    const double x0 = base.x.at(i, 0);
    const double x1 = base.x.at(i, 1);
    for (std::size_t j = f; j < target; ++j) {
      out.x.at(i, j) = reference_derived(j - f, x0, x1) + noise * rng.normal();
    }
  }
  return out;
}

// --- row-pointer loops vs references --------------------------------------

TEST(RowAccess, ScalerLoopsMatchAtReference) {
  const Dataset d = sample(97, 13, 3);
  const Scaler z = fit_standardizer(d.x);
  const Scaler z_ref = reference_standardizer(d.x);
  EXPECT_TRUE(same_bytes(z.offset, z_ref.offset));
  EXPECT_TRUE(same_bytes(z.scale, z_ref.scale));

  const Scaler m = fit_minmax(d.x, -1.0, 2.0);
  const Scaler m_ref = reference_minmax(d.x, -1.0, 2.0);
  EXPECT_TRUE(same_bytes(m.offset, m_ref.offset));
  EXPECT_TRUE(same_bytes(m.scale, m_ref.scale));

  for (const Scaler* s : {&z, &m}) {
    Tensor got = d.x;
    Tensor want = d.x;
    s->apply(got);
    reference_apply(*s, want);
    EXPECT_TRUE(same_bytes(got, want));
  }
}

TEST(RowAccess, ConstantColumnKeepsUnitScale) {
  Dataset d = sample(9, 4, 5);
  for (std::size_t i = 0; i < 9; ++i) d.x.at(i, 2) = 1.25;
  const Scaler z = fit_standardizer(d.x);
  EXPECT_TRUE(same_bytes(z.scale, reference_standardizer(d.x).scale));
  EXPECT_EQ(z.scale[2], 1.0);
  EXPECT_TRUE(same_bytes(fit_minmax(d.x, 0.0, 1.0).scale,
                         reference_minmax(d.x, 0.0, 1.0).scale));
}

TEST(RowAccess, GatherThroughShuffleAndSplitMatchesAtReference) {
  const Dataset d = sample(151, 7, 11);

  util::Rng rng{21};
  util::Rng ref_rng = rng;
  const Dataset got = shuffled(d, rng);
  std::vector<std::size_t> rows(d.size());
  std::iota(rows.begin(), rows.end(), 0);
  ref_rng.shuffle(rows);
  const Dataset want = reference_gather(d, rows);
  EXPECT_TRUE(same_bytes(got.x, want.x));
  EXPECT_EQ(got.y, want.y);

  // stratified_split's row choice, restated: shuffle each class bucket,
  // cut the first val_fraction of it off for validation, shuffle each part.
  util::Rng split_rng{22};
  util::Rng ref_split_rng = split_rng;
  const TrainValSplit split = stratified_split(d, 0.3, split_rng);
  std::vector<std::vector<std::size_t>> buckets(d.classes);
  for (std::size_t i = 0; i < d.size(); ++i) buckets[d.y[i]].push_back(i);
  std::vector<std::size_t> train_rows, val_rows;
  for (auto& bucket : buckets) {
    ref_split_rng.shuffle(bucket);
    const auto val_count = static_cast<std::size_t>(
        static_cast<double>(bucket.size()) * 0.3);
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      (i < val_count ? val_rows : train_rows).push_back(bucket[i]);
    }
  }
  ref_split_rng.shuffle(train_rows);
  ref_split_rng.shuffle(val_rows);
  const Dataset train = reference_gather(d, train_rows);
  const Dataset val = reference_gather(d, val_rows);
  EXPECT_TRUE(same_bytes(split.train.x, train.x));
  EXPECT_TRUE(same_bytes(split.val.x, val.x));
  EXPECT_EQ(split.train.y, train.y);
  EXPECT_EQ(split.val.y, val.y);
}

TEST(RowAccess, AugmentFeaturesMatchesAtReference) {
  util::Rng base_rng{31};
  SpiralConfig config;
  config.points = 120;
  const Dataset base = make_spiral(config, 0.1, base_rng);
  for (const std::size_t target : {2u, 3u, 17u}) {
    util::Rng rng{41};
    util::Rng ref_rng = rng;
    const Dataset got = augment_features(base, target, 0.07, rng);
    const Dataset want = reference_augment(base, target, 0.07, ref_rng);
    EXPECT_TRUE(same_bytes(got.x, want.x)) << target;
    EXPECT_EQ(got.y, want.y);
    EXPECT_EQ(rng.next_u64(), ref_rng.next_u64());
  }
}

}  // namespace
}  // namespace qhdl::data
