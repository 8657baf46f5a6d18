// JSON bench reporting: metadata (git SHA, compiler, build flags) plus
// per-benchmark entries with ns/op and derived amplitudes/sec, written in
// the same shape tools/check_bench_regression.py consumes. The micro
// benches get this shape via tools/bench_report.py from google-benchmark's
// --benchmark_format=json output; the figure-level driver
// (bench_figs_report) uses this header directly.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace qhdl::bench {

struct BenchMetadata {
  std::string git_sha;      ///< GITHUB_SHA env, else `git rev-parse HEAD`
  std::string compiler;     ///< compiler + version string
  std::string build_flags;  ///< NDEBUG / optimization summary
};

/// Collects metadata from the environment/process.
BenchMetadata collect_metadata();

struct BenchEntry {
  std::string name;
  double ns_per_op = 0.0;
  /// Derived throughput: amplitude-pair updates per second (0 = not
  /// applicable for this benchmark).
  double amps_per_sec = 0.0;
  std::map<std::string, double> extra;  ///< free-form extra counters
};

/// Writes {"metadata": {...}, "benchmarks": [...]} to `path`.
void write_bench_json(const std::string& path, const BenchMetadata& metadata,
                      const std::vector<BenchEntry>& entries);

}  // namespace qhdl::bench
