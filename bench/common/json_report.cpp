#include "common/json_report.hpp"

#include <array>
#include <cstdio>
#include <cstdlib>

#include "util/json.hpp"

namespace qhdl::bench {

namespace {

std::string run_command_line(const char* command) {
  std::array<char, 128> buffer{};
  std::string output;
  FILE* pipe = popen(command, "r");
  if (pipe == nullptr) return {};
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  pclose(pipe);
  while (!output.empty() &&
         (output.back() == '\n' || output.back() == '\r')) {
    output.pop_back();
  }
  return output;
}

}  // namespace

BenchMetadata collect_metadata() {
  BenchMetadata metadata;
  if (const char* sha = std::getenv("GITHUB_SHA");
      sha != nullptr && sha[0] != '\0') {
    metadata.git_sha = sha;
  } else {
    metadata.git_sha = run_command_line("git rev-parse HEAD 2>/dev/null");
    if (metadata.git_sha.empty()) metadata.git_sha = "unknown";
  }
#if defined(__clang__)
  metadata.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  metadata.compiler = "gcc " __VERSION__;
#else
  metadata.compiler = "unknown";
#endif
#ifdef NDEBUG
  metadata.build_flags = "NDEBUG";
#else
  metadata.build_flags = "assertions";
#endif
  return metadata;
}

void write_bench_json(const std::string& path, const BenchMetadata& metadata,
                      const std::vector<BenchEntry>& entries) {
  util::Json root = util::Json::object();
  util::Json meta = util::Json::object();
  meta["git_sha"] = util::Json{metadata.git_sha};
  meta["compiler"] = util::Json{metadata.compiler};
  meta["build_flags"] = util::Json{metadata.build_flags};
  root["metadata"] = meta;

  util::Json benchmarks = util::Json::array();
  for (const BenchEntry& entry : entries) {
    util::Json row = util::Json::object();
    row["name"] = util::Json{entry.name};
    row["ns_per_op"] = util::Json{entry.ns_per_op};
    if (entry.amps_per_sec > 0.0) {
      row["amps_per_sec"] = util::Json{entry.amps_per_sec};
    }
    for (const auto& [key, value] : entry.extra) {
      row[key] = util::Json{value};
    }
    benchmarks.push_back(row);
  }
  root["benchmarks"] = benchmarks;
  root.write_file(path);
}

}  // namespace qhdl::bench
