#include "data/dataset.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace qhdl::data {

using tensor::Shape;
using tensor::Tensor;

void Dataset::validate() const {
  if (x.rank() != 2) {
    throw std::logic_error("Dataset: x must be rank 2");
  }
  if (x.rows() != y.size()) {
    throw std::logic_error("Dataset: row count " + std::to_string(x.rows()) +
                           " != label count " + std::to_string(y.size()));
  }
  if (classes == 0) throw std::logic_error("Dataset: classes == 0");
  for (std::size_t label : y) {
    if (label >= classes) {
      throw std::logic_error("Dataset: label out of range");
    }
  }
}

namespace {

Dataset gather(const Dataset& source, const std::vector<std::size_t>& rows) {
  Dataset out;
  out.classes = source.classes;
  const std::size_t f = source.features();
  out.x = Tensor{Shape{rows.size(), f}};
  out.y.resize(rows.size());
  const double* in = source.x.data().data();
  double* row = out.x.data().data();
  for (std::size_t i = 0; i < rows.size(); ++i, row += f) {
    std::copy_n(in + rows[i] * f, f, row);
    out.y[i] = source.y[rows[i]];
  }
  return out;
}

}  // namespace

TrainValSplit stratified_split(const Dataset& dataset, double val_fraction,
                               util::Rng& rng) {
  dataset.validate();
  if (val_fraction <= 0.0 || val_fraction >= 1.0) {
    throw std::invalid_argument("stratified_split: fraction must be in (0,1)");
  }

  // Bucket row indices per class, shuffle each bucket, then cut.
  std::vector<std::vector<std::size_t>> buckets(dataset.classes);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    buckets[dataset.y[i]].push_back(i);
  }

  std::vector<std::size_t> train_rows;
  std::vector<std::size_t> val_rows;
  for (auto& bucket : buckets) {
    rng.shuffle(bucket);
    const std::size_t val_count = static_cast<std::size_t>(
        static_cast<double>(bucket.size()) * val_fraction);
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      (i < val_count ? val_rows : train_rows).push_back(bucket[i]);
    }
  }
  rng.shuffle(train_rows);
  rng.shuffle(val_rows);

  return TrainValSplit{gather(dataset, train_rows), gather(dataset, val_rows)};
}

Dataset shuffled(const Dataset& dataset, util::Rng& rng) {
  dataset.validate();
  std::vector<std::size_t> rows(dataset.size());
  std::iota(rows.begin(), rows.end(), 0);
  rng.shuffle(rows);
  return gather(dataset, rows);
}

std::vector<std::size_t> class_counts(const Dataset& dataset) {
  dataset.validate();
  std::vector<std::size_t> counts(dataset.classes, 0);
  for (std::size_t label : dataset.y) ++counts[label];
  return counts;
}

}  // namespace qhdl::data
