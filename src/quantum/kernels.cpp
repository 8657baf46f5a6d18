#include "quantum/kernels.hpp"

#include "util/metrics.hpp"

namespace qhdl::quantum::kernels {

namespace {

struct Counters {
  util::Metrics& m = util::Metrics::global();
  // Indexed by Kernel.
  util::Counter* dispatch[detail::kKernelCount] = {
      &m.counter("kernel.diagonal"),    &m.counter("kernel.permutation"),
      &m.counter("kernel.controlled"),  &m.counter("kernel.double_flip"),
      &m.counter("kernel.generic"),     &m.counter("kernel.two_qubit_dense"),
  };
  util::Counter& fused = m.counter("kernel.fused");
  util::Counter& fused_gates = m.counter("kernel.fused_gates");
  util::Counter& batched_rows = m.counter("kernel.batched_rows");
};

Counters& counters() {
  static Counters instance;
  return instance;
}

// Registers every kernel.* name at start-up, so a snapshot lists them (at
// zero) before the first dispatch.
[[maybe_unused]] const Counters& registered = counters();

}  // namespace

namespace detail {

void add_dispatch(Kernel kernel, std::size_t rows) {
  Counters& c = counters();
  c.dispatch[static_cast<std::size_t>(kernel)]->add();
  if (rows > 1) c.batched_rows.add(rows);
}

void add_fused(std::uint64_t gates_absorbed) {
  counters().fused.add();
  counters().fused_gates.add(gates_absorbed);
}

void flush(Tally& t) {
  Counters& c = counters();
  for (std::size_t k = 0; k < kKernelCount; ++k) {
    if (t.dispatch[k] != 0) c.dispatch[k]->add(t.dispatch[k]);
    t.dispatch[k] = 0;
  }
  if (t.fused != 0) c.fused.add(t.fused);
  if (t.fused_gates != 0) c.fused_gates.add(t.fused_gates);
  if (t.batched_rows != 0) c.batched_rows.add(t.batched_rows);
  t.fused = t.fused_gates = t.batched_rows = 0;
}

}  // namespace detail

}  // namespace qhdl::quantum::kernels
