#include "util/cli.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/string_util.hpp"

namespace qhdl::util {

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void Cli::add_flag(const std::string& name, const std::string& help) {
  Option opt;
  opt.kind = Kind::Flag;
  opt.help = help;
  options_[name] = std::move(opt);
  order_.push_back(name);
}

void Cli::add_int(const std::string& name, long default_value,
                  const std::string& help) {
  Option opt;
  opt.kind = Kind::Int;
  opt.help = help;
  opt.int_value = default_value;
  options_[name] = std::move(opt);
  order_.push_back(name);
}

void Cli::add_double(const std::string& name, double default_value,
                     const std::string& help) {
  Option opt;
  opt.kind = Kind::Double;
  opt.help = help;
  opt.double_value = default_value;
  options_[name] = std::move(opt);
  order_.push_back(name);
}

void Cli::add_string(const std::string& name, std::string default_value,
                     const std::string& help) {
  Option opt;
  opt.kind = Kind::String;
  opt.help = help;
  opt.string_value = std::move(default_value);
  options_[name] = std::move(opt);
  order_.push_back(name);
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help_text().c_str(), stdout);
      return false;
    }
    if (!starts_with(arg, "--")) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    std::string name = arg.substr(2);
    std::optional<std::string> inline_value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    auto it = options_.find(name);
    if (it == options_.end()) {
      throw std::invalid_argument("unknown option: --" + name);
    }
    Option& opt = it->second;
    if (opt.kind == Kind::Flag) {
      if (inline_value.has_value()) {
        throw std::invalid_argument("flag --" + name + " takes no value");
      }
      opt.flag_value = true;
      continue;
    }
    std::string value;
    if (inline_value.has_value()) {
      value = *inline_value;
    } else {
      if (i + 1 >= argc) {
        throw std::invalid_argument("option --" + name + " needs a value");
      }
      value = argv[++i];
    }
    try {
      switch (opt.kind) {
        case Kind::Int:
          opt.int_value = std::stol(value);
          break;
        case Kind::Double:
          opt.double_value = std::stod(value);
          break;
        case Kind::String:
          opt.string_value = value;
          break;
        case Kind::Flag:
          break;  // handled above
      }
    } catch (const std::exception&) {
      throw std::invalid_argument("bad value for --" + name + ": " + value);
    }
  }
  return true;
}

const Cli::Option& Cli::require(const std::string& name, Kind kind) const {
  auto it = options_.find(name);
  if (it == options_.end() || it->second.kind != kind) {
    throw std::logic_error("Cli: option not registered with this type: " +
                           name);
  }
  return it->second;
}

bool Cli::flag(const std::string& name) const {
  return require(name, Kind::Flag).flag_value;
}

long Cli::get_int(const std::string& name) const {
  return require(name, Kind::Int).int_value;
}

double Cli::get_double(const std::string& name) const {
  return require(name, Kind::Double).double_value;
}

const std::string& Cli::get_string(const std::string& name) const {
  return require(name, Kind::String).string_value;
}

std::size_t Cli::get_count(const std::string& name) const {
  const long value = get_int(name);
  if (value < 0) {
    throw std::invalid_argument("--" + name + " must be >= 0 (got " +
                                std::to_string(value) + ")");
  }
  return static_cast<std::size_t>(value);
}

std::uint64_t Cli::get_duration_ms(const std::string& name) const {
  const double seconds = get_double(name);
  const double ms = seconds * 1000.0;
  if (!std::isfinite(ms) || ms < 0.0 || ms > 9007199254740992.0) {
    std::ostringstream oss;
    oss << "--" << name << " must be a non-negative number of seconds (got "
        << seconds << ")";
    throw std::invalid_argument(oss.str());
  }
  return static_cast<std::uint64_t>(ms);
}

std::string Cli::help_text() const {
  std::ostringstream oss;
  oss << program_ << " — " << description_ << "\n\nOptions:\n";
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    oss << "  --" << name;
    switch (opt.kind) {
      case Kind::Flag:
        break;
      case Kind::Int:
        oss << " <int=" << opt.int_value << ">";
        break;
      case Kind::Double:
        oss << " <float=" << format_double(opt.double_value) << ">";
        break;
      case Kind::String:
        oss << " <str=" << opt.string_value << ">";
        break;
    }
    oss << "\n      " << opt.help << "\n";
  }
  oss << "  --help\n      Show this message.\n";
  return oss.str();
}

}  // namespace qhdl::util
