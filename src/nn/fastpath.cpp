#include "nn/fastpath.hpp"

#include <atomic>
#include <sstream>

namespace qhdl::nn::fastpath {

std::string FastpathStatsSnapshot::to_string() const {
  std::ostringstream oss;
  oss << "nn fastpath: workspace_runs=" << workspace_runs
      << " reference_runs=" << reference_runs
      << " workspace_steps=" << workspace_steps;
  return oss.str();
}

namespace {

struct Counters {
  std::atomic<std::uint64_t> workspace_runs{0};
  std::atomic<std::uint64_t> reference_runs{0};
  std::atomic<std::uint64_t> workspace_steps{0};
};

Counters& counters() {
  static Counters instance;
  return instance;
}

}  // namespace

void count_workspace_run() {
  counters().workspace_runs.fetch_add(1, std::memory_order_relaxed);
}

void count_reference_run() {
  counters().reference_runs.fetch_add(1, std::memory_order_relaxed);
}

void count_workspace_steps(std::uint64_t steps) {
  counters().workspace_steps.fetch_add(steps, std::memory_order_relaxed);
}

FastpathStatsSnapshot stats() {
  const Counters& c = counters();
  FastpathStatsSnapshot snapshot;
  snapshot.workspace_runs = c.workspace_runs.load(std::memory_order_relaxed);
  snapshot.reference_runs = c.reference_runs.load(std::memory_order_relaxed);
  snapshot.workspace_steps =
      c.workspace_steps.load(std::memory_order_relaxed);
  return snapshot;
}

void reset_stats() {
  Counters& c = counters();
  c.workspace_runs.store(0, std::memory_order_relaxed);
  c.reference_runs.store(0, std::memory_order_relaxed);
  c.workspace_steps.store(0, std::memory_order_relaxed);
}

}  // namespace qhdl::nn::fastpath
