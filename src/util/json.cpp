#include "util/json.hpp"

#include <cctype>
#include <charconv>

#include "util/atomic_file.hpp"
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>

namespace qhdl::util {

Json Json::array() {
  Json j;
  j.type_ = Type::Array;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::Object;
  return j;
}

void Json::push_back(Json value) {
  if (type_ != Type::Array) {
    throw std::logic_error("Json::push_back on non-array");
  }
  array_.push_back(std::move(value));
}

std::size_t Json::size() const {
  switch (type_) {
    case Type::Array:
      return array_.size();
    case Type::Object:
      return object_.size();
    default:
      throw std::logic_error("Json::size on scalar");
  }
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::Null) type_ = Type::Object;  // convenient auto-vivify
  if (type_ != Type::Object) {
    throw std::logic_error("Json::operator[] on non-object");
  }
  return object_[key];
}

bool Json::contains(const std::string& key) const {
  return type_ == Type::Object && object_.count(key) > 0;
}

namespace {

void escape_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double n) {
  if (!std::isfinite(n)) {
    out += "null";  // JSON has no inf/nan
    return;
  }
  if (n == std::floor(n) && std::abs(n) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", n);
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", n);
  out += buf;
}

}  // namespace

void Json::dump_impl(std::string& out, int indent, int depth) const {
  const std::string pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * (depth + 1)), ' ')
                 : std::string{};
  const std::string close_pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ')
                 : std::string{};
  const char* nl = indent > 0 ? "\n" : "";
  const char* space = indent > 0 ? " " : "";

  switch (type_) {
    case Type::Null:
      out += "null";
      break;
    case Type::Bool:
      out += bool_ ? "true" : "false";
      break;
    case Type::Number:
      append_number(out, number_);
      break;
    case Type::String:
      escape_string(out, string_);
      break;
    case Type::Array: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < array_.size(); ++i) {
        out += pad;
        array_[i].dump_impl(out, indent, depth + 1);
        if (i + 1 < array_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += ']';
      break;
    }
    case Type::Object: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      std::size_t i = 0;
      for (const auto& [key, value] : object_) {
        out += pad;
        escape_string(out, key);
        out += ':';
        out += space;
        value.dump_impl(out, indent, depth + 1);
        if (++i < object_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(out, indent, 0);
  return out;
}

bool Json::as_bool() const {
  if (type_ != Type::Bool) throw std::logic_error("Json::as_bool: not a bool");
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::Number) {
    throw std::logic_error("Json::as_number: not a number");
  }
  return number_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::String) {
    throw std::logic_error("Json::as_string: not a string");
  }
  return string_;
}

const Json& Json::at(std::size_t index) const {
  if (type_ != Type::Array) throw std::logic_error("Json::at: not an array");
  if (index >= array_.size()) {
    throw std::out_of_range("Json::at: array index out of range");
  }
  return array_[index];
}

const std::map<std::string, Json>& Json::object_items() const {
  if (type_ != Type::Object) {
    throw std::logic_error("Json::object_items: not an object");
  }
  return object_;
}

const Json& Json::at(const std::string& key) const {
  if (type_ != Type::Object) {
    throw std::logic_error("Json::at: not an object");
  }
  const auto it = object_.find(key);
  if (it == object_.end()) {
    throw std::out_of_range("Json::at: missing key '" + key + "'");
  }
  return it->second;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw std::invalid_argument("Json::parse: " + message + " at offset " +
                                std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Json parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{':
      case '[': {
        // Bounded so hostile input (a frame of 10^5 '[') is an error, not
        // a stack overflow.
        if (depth_ == Json::kMaxParseDepth) {
          fail("nesting deeper than " +
               std::to_string(Json::kMaxParseDepth) + " levels");
        }
        ++depth_;
        Json nested = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return nested;
      }
      case '"': return Json{parse_string()};
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json{true};
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json{false};
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json{};
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json object = Json::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object[key] = parse_value();
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return object;
    }
  }

  Json parse_array() {
    expect('[');
    Json array = Json::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      array.push_back(parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return array;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit");
          }
          // Basic-multilingual-plane only; encode as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    // std::from_chars, not std::stod: stod honors the global C locale (a
    // ','-decimal locale rejects every serialized double) and throws
    // out_of_range on subnormals, which %.17g-printed worker-protocol
    // payloads legitimately contain. from_chars is locale-independent,
    // round-trips subnormals and signed zeros exactly, and reserves
    // result_out_of_range for values no finite double can represent.
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ptr != last || ec != std::errc{}) fail("bad number");
    return Json{value};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays/objects currently open
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser{text}.parse_document();
}

Json Json::parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("Json::parse_file: cannot open " + path);
  std::string content{std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>()};
  return parse(content);
}

void Json::write_file(const std::string& path, int indent) const {
  // Atomic temp+flush+rename: a crash or IO fault mid-write can never leave
  // a truncated manifest where a complete one (or nothing) used to be.
  atomic_write_file(path, dump(indent) + '\n');
}

}  // namespace qhdl::util
