// Tiny declarative command-line parser for the bench drivers and examples.
// Supports `--flag`, `--key value`, and `--key=value`; generates --help text.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace qhdl::util {

/// Declarative CLI: register options, then parse(argc, argv).
class Cli {
 public:
  Cli(std::string program, std::string description);

  /// Boolean switch, default false.
  void add_flag(const std::string& name, const std::string& help);

  /// Valued options with defaults.
  void add_int(const std::string& name, long default_value,
               const std::string& help);
  void add_double(const std::string& name, double default_value,
                  const std::string& help);
  void add_string(const std::string& name, std::string default_value,
                  const std::string& help);

  /// Parses argv. Returns false (after printing help) if --help was given.
  /// Throws std::invalid_argument on unknown options / malformed values.
  bool parse(int argc, const char* const* argv);

  bool flag(const std::string& name) const;
  long get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;

  /// An Int option read as a count or size. Throws std::invalid_argument
  /// naming the option when the value is negative.
  std::size_t get_count(const std::string& name) const;
  /// A Double option read as seconds, returned in whole milliseconds.
  /// Throws std::invalid_argument naming the option unless the value is
  /// finite, non-negative and at most 2^53 ms.
  std::uint64_t get_duration_ms(const std::string& name) const;

  std::string help_text() const;

 private:
  enum class Kind { Flag, Int, Double, String };
  struct Option {
    Kind kind;
    std::string help;
    bool flag_value = false;
    long int_value = 0;
    double double_value = 0.0;
    std::string string_value;
  };

  const Option& require(const std::string& name, Kind kind) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;  // registration order for help text
};

}  // namespace qhdl::util
