#include "quantum/kernels.hpp"

#include "util/metrics.hpp"

namespace qhdl::quantum::kernels {

namespace {

struct Counters {
  util::Metrics& m = util::Metrics::global();
  util::Counter& diagonal = m.counter("kernel.diagonal");
  util::Counter& real_rotation = m.counter("kernel.real_rotation");
  util::Counter& permutation = m.counter("kernel.permutation");
  util::Counter& controlled = m.counter("kernel.controlled");
  util::Counter& double_flip = m.counter("kernel.double_flip");
  util::Counter& generic = m.counter("kernel.generic");
  util::Counter& two_qubit_dense = m.counter("kernel.two_qubit_dense");
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

void count_diagonal() { counters().diagonal.add(); }
void count_real_rotation() { counters().real_rotation.add(); }
void count_permutation() { counters().permutation.add(); }
void count_controlled() { counters().controlled.add(); }
void count_double_flip() { counters().double_flip.add(); }
void count_generic() { counters().generic.add(); }
void count_two_qubit_dense() { counters().two_qubit_dense.add(); }
void count_fused(std::uint64_t gates_absorbed) {
  counters().fused.add();
  counters().fused_gates.add(gates_absorbed);
}
void count_batched_rows(std::uint64_t rows) {
  counters().batched_rows.add(rows);
}

}  // namespace qhdl::quantum::kernels
