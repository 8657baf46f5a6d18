#include "nn/fastpath.hpp"

#include "util/metrics.hpp"

namespace qhdl::nn::fastpath {

namespace {

struct Counters {
  util::Metrics& m = util::Metrics::global();
  util::Counter& workspace_runs = m.counter("fastpath.workspace_runs");
  util::Counter& module_runs = m.counter("fastpath.module_runs");
  util::Counter& workspace_steps = m.counter("fastpath.workspace_steps");
};

Counters& counters() {
  static Counters instance;
  return instance;
}

// Registers every fastpath.* name at start-up (see quantum/kernels.cpp).
[[maybe_unused]] const Counters& registered = counters();

}  // namespace

void count_workspace_run() { counters().workspace_runs.add(); }
void count_module_run() { counters().module_runs.add(); }
void count_workspace_steps(std::uint64_t steps) {
  counters().workspace_steps.add(steps);
}

}  // namespace qhdl::nn::fastpath
