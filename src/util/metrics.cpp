#include "util/metrics.hpp"

#include <stdexcept>

namespace qhdl::util {

std::uint64_t MetricsSnapshot::at(std::string_view name) const {
  const auto it = values.find(name);
  if (it == values.end()) {
    throw std::out_of_range("metrics: no counter named '" +
                            std::string{name} + "'");
  }
  return it->second;
}

Json MetricsSnapshot::to_json() const {
  Json root = Json::object();
  for (const auto& [name, value] : values) {
    Json* node = &root;
    std::string_view rest = name;
    for (std::size_t dot = rest.find('.'); dot != std::string_view::npos;
         dot = rest.find('.')) {
      Json& child = (*node)[std::string{rest.substr(0, dot)}];
      if (child.is_null()) child = Json::object();
      node = &child;
      rest.remove_prefix(dot + 1);
    }
    (*node)[std::string{rest}] = value;
  }
  return root;
}

std::string MetricsSnapshot::to_string() const {
  std::string out;
  for (const auto& [name, value] : values) {
    if (!out.empty()) out += ' ';
    out += name + "=" + std::to_string(value);
  }
  return out;
}

Metrics& Metrics::global() {
  static Metrics instance;
  return instance;
}

Counter& Metrics::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.try_emplace(std::string{name}).first->second;
}

MetricsSnapshot Metrics::snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    snapshot.values.emplace(name, counter.value());
  }
  return snapshot;
}

void Metrics::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) {
    counter.value_.store(0, std::memory_order_relaxed);
  }
}

void Metrics::merge(const MetricsSnapshot& other) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, value] : other.values) {
    const auto it = counters_.find(name);
    if (it != counters_.end()) it->second.add(value);
  }
}

}  // namespace qhdl::util
