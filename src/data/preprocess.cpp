#include "data/preprocess.hpp"

#include <cmath>
#include <stdexcept>

namespace qhdl::data {

using tensor::Tensor;

void Scaler::apply(Tensor& x) const {
  if (x.rank() != 2 || x.cols() != offset.size()) {
    throw std::invalid_argument("Scaler::apply: feature count mismatch");
  }
  const std::size_t n = x.rows(), f = x.cols();
  double* row = x.data().data();
  for (std::size_t i = 0; i < n; ++i, row += f) {
    for (std::size_t j = 0; j < f; ++j) {
      row[j] = (row[j] - offset[j]) / scale[j];
    }
  }
}

Scaler fit_standardizer(const Tensor& x) {
  if (x.rank() != 2 || x.rows() == 0) {
    throw std::invalid_argument("fit_standardizer: empty or non-matrix input");
  }
  const std::size_t n = x.rows(), f = x.cols();
  Scaler scaler;
  scaler.offset.assign(f, 0.0);
  scaler.scale.assign(f, 1.0);
  const double* data = x.data().data();
  for (std::size_t j = 0; j < f; ++j) {
    // Column j, one row stride (f) per step, summed in row order.
    double mean = 0.0;
    for (const double* v = data + j; v < data + n * f; v += f) mean += *v;
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (const double* v = data + j; v < data + n * f; v += f) {
      const double d = *v - mean;
      var += d * d;
    }
    var /= static_cast<double>(n);
    scaler.offset[j] = mean;
    scaler.scale[j] = var > 1e-24 ? std::sqrt(var) : 1.0;
  }
  return scaler;
}

Scaler fit_minmax(const Tensor& x, double lo, double hi) {
  if (x.rank() != 2 || x.rows() == 0) {
    throw std::invalid_argument("fit_minmax: empty or non-matrix input");
  }
  if (hi <= lo) throw std::invalid_argument("fit_minmax: hi <= lo");
  const std::size_t n = x.rows(), f = x.cols();
  Scaler scaler;
  scaler.offset.assign(f, 0.0);
  scaler.scale.assign(f, 1.0);
  const double* data = x.data().data();
  for (std::size_t j = 0; j < f; ++j) {
    double mn = data[j], mx = data[j];
    for (const double* v = data + f + j; v < data + n * f; v += f) {
      mn = std::min(mn, *v);
      mx = std::max(mx, *v);
    }
    const double range = mx - mn;
    // Map [mn, mx] -> [lo, hi]: (v - offset) / scale with
    // scale = range/(hi-lo), offset = mn - lo*scale.
    const double s = range > 1e-24 ? range / (hi - lo) : 1.0;
    scaler.scale[j] = s;
    scaler.offset[j] = mn - lo * s;
  }
  return scaler;
}

void standardize_split(TrainValSplit& split) {
  const Scaler scaler = fit_standardizer(split.train.x);
  scaler.apply(split.train.x);
  scaler.apply(split.val.x);
}

}  // namespace qhdl::data
