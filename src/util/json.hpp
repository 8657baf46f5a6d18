// JSON value, serializer, and parser. The study emits machine-readable
// result manifests (per-search winners, ablation breakdowns) alongside CSVs,
// and the nn serialization module round-trips model weights through it.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace qhdl::util {

/// Immutable-ish JSON tree with value semantics.
class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Json() : type_(Type::Null) {}
  Json(std::nullptr_t) : type_(Type::Null) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(double n) : type_(Type::Number), number_(n) {}
  Json(int n) : type_(Type::Number), number_(n) {}
  Json(long n) : type_(Type::Number), number_(static_cast<double>(n)) {}
  Json(unsigned long n) : type_(Type::Number), number_(static_cast<double>(n)) {}
  Json(long long n) : type_(Type::Number), number_(static_cast<double>(n)) {}
  Json(unsigned long long n)
      : type_(Type::Number), number_(static_cast<double>(n)) {}
  Json(const char* s) : type_(Type::String), string_(s) {}
  Json(std::string s) : type_(Type::String), string_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::String), string_(s) {}

  static Json array();
  static Json object();

  template <typename T>
  static Json array_of(const std::vector<T>& values) {
    Json a = array();
    for (const auto& v : values) a.push_back(Json(v));
    return a;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }

  /// Array ops (throws std::logic_error if not an array).
  void push_back(Json value);
  std::size_t size() const;

  /// Object ops (throws std::logic_error if not an object).
  Json& operator[](const std::string& key);
  bool contains(const std::string& key) const;

  // --- read accessors (throw std::logic_error on type mismatch) ----------
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  /// Array element (checked).
  const Json& at(std::size_t index) const;
  /// Object member (checked; throws std::out_of_range if missing).
  const Json& at(const std::string& key) const;
  /// Object members in sorted key order (throws std::logic_error if not an
  /// object) — for consumers that enumerate keys, e.g. checkpoint manifests.
  const std::map<std::string, Json>& object_items() const;

  /// Deepest array/object nesting parse() accepts; the repo's own
  /// documents nest a handful of levels.
  static constexpr std::size_t kMaxParseDepth = 128;

  /// Parses JSON text; throws std::invalid_argument with position info on
  /// malformed input or nesting deeper than kMaxParseDepth.
  static Json parse(std::string_view text);

  /// Reads and parses a file; throws std::runtime_error on I/O failure.
  static Json parse_file(const std::string& path);

  /// Serializes; indent > 0 pretty-prints.
  std::string dump(int indent = 0) const;

  /// Writes to a file via atomic temp+flush+rename (util/atomic_file.hpp);
  /// throws std::runtime_error on I/O failure with the target untouched.
  void write_file(const std::string& path, int indent = 2) const;

 private:
  void dump_impl(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  // std::map keeps keys sorted -> deterministic output.
  std::map<std::string, Json> object_;
};

}  // namespace qhdl::util
