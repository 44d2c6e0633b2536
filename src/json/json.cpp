#include "json/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace recup::json {

bool Value::is_null() const {
  return std::holds_alternative<std::nullptr_t>(data_);
}
bool Value::is_bool() const { return std::holds_alternative<bool>(data_); }
bool Value::is_int() const {
  return std::holds_alternative<std::int64_t>(data_);
}
bool Value::is_double() const { return std::holds_alternative<double>(data_); }
bool Value::is_string() const {
  return std::holds_alternative<std::string>(data_);
}
bool Value::is_array() const { return std::holds_alternative<Array>(data_); }
bool Value::is_object() const { return std::holds_alternative<Object>(data_); }

bool Value::as_bool() const {
  if (const auto* b = std::get_if<bool>(&data_)) return *b;
  throw TypeError("json value is not a bool");
}

std::int64_t Value::as_int() const {
  if (const auto* i = std::get_if<std::int64_t>(&data_)) return *i;
  throw TypeError("json value is not an integer");
}

double Value::as_double() const {
  if (const auto* d = std::get_if<double>(&data_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&data_)) {
    return static_cast<double>(*i);
  }
  throw TypeError("json value is not a number");
}

const std::string& Value::as_string() const {
  if (const auto* s = std::get_if<std::string>(&data_)) return *s;
  throw TypeError("json value is not a string");
}

const Array& Value::as_array() const {
  if (const auto* a = std::get_if<Array>(&data_)) return *a;
  throw TypeError("json value is not an array");
}

Array& Value::as_array() {
  if (auto* a = std::get_if<Array>(&data_)) return *a;
  throw TypeError("json value is not an array");
}

const Object& Value::as_object() const {
  if (const auto* o = std::get_if<Object>(&data_)) return *o;
  throw TypeError("json value is not an object");
}

Object& Value::as_object() {
  if (auto* o = std::get_if<Object>(&data_)) return *o;
  throw TypeError("json value is not an object");
}

const Value& Value::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) throw TypeError("missing json key: " + key);
  return it->second;
}

Value& Value::operator[](const std::string& key) {
  if (is_null()) data_ = Object{};
  return as_object()[key];
}

bool Value::contains(const std::string& key) const {
  if (!is_object()) return false;
  return as_object().count(key) != 0;
}

const Value& Value::at(std::size_t index) const {
  const auto& arr = as_array();
  if (index >= arr.size()) throw TypeError("json array index out of range");
  return arr[index];
}

std::size_t Value::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  throw TypeError("json value has no size");
}

std::int64_t Value::get_int(const std::string& key,
                            std::int64_t fallback) const {
  return contains(key) ? at(key).as_int() : fallback;
}

double Value::get_double(const std::string& key, double fallback) const {
  return contains(key) ? at(key).as_double() : fallback;
}

std::string Value::get_string(const std::string& key,
                              const std::string& fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

bool Value::get_bool(const std::string& key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}

void write_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void write_int(std::string& out, std::int64_t i) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), i);
  out.append(buf, result.ptr);
}

void write_double(std::string& out, double d) {
  if (std::isfinite(d)) {
    char buf[64];
    const int n = std::snprintf(buf, sizeof(buf), "%.17g", d);
    out.append(buf, static_cast<std::size_t>(n));
  } else {
    out += "null";  // JSON has no representation for inf/nan
  }
}

namespace {

void write_value(std::string& out, const Value& value, int indent, int depth);

void write_indent(std::string& out, int indent, int depth) {
  if (indent >= 0) {
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
  }
}

void write_array(std::string& out, const Array& arr, int indent, int depth) {
  if (arr.empty()) {
    out += "[]";
    return;
  }
  out += '[';
  bool first = true;
  for (const auto& item : arr) {
    if (!first) out += ',';
    first = false;
    write_indent(out, indent, depth + 1);
    write_value(out, item, indent, depth + 1);
  }
  write_indent(out, indent, depth);
  out += ']';
}

void write_object(std::string& out, const Object& obj, int indent,
                  int depth) {
  if (obj.empty()) {
    out += "{}";
    return;
  }
  out += '{';
  bool first = true;
  for (const auto& [key, item] : obj) {
    if (!first) out += ',';
    first = false;
    write_indent(out, indent, depth + 1);
    write_string(out, key);
    out += indent >= 0 ? ": " : ":";
    write_value(out, item, indent, depth + 1);
  }
  write_indent(out, indent, depth);
  out += '}';
}

void write_value(std::string& out, const Value& value, int indent,
                 int depth) {
  if (value.is_null()) {
    out += "null";
  } else if (value.is_bool()) {
    out += value.as_bool() ? "true" : "false";
  } else if (value.is_int()) {
    write_int(out, value.as_int());
  } else if (value.is_double()) {
    write_double(out, value.as_double());
  } else if (value.is_string()) {
    write_string(out, value.as_string());
  } else if (value.is_array()) {
    write_array(out, value.as_array(), indent, depth);
  } else {
    write_object(out, value.as_object(), indent, depth);
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError("json parse error at offset " + std::to_string(pos_) +
                     ": " + why);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (advance() != c) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = advance();
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = advance();
        switch (esc) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = advance();
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("invalid \\u escape");
              }
            }
            // UTF-8 encode (BMP only; surrogate pairs unsupported).
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
            fail("invalid escape");
        }
      } else {
        out += c;
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty()) fail("invalid number");
    const bool is_float = token.find_first_of(".eE") != std::string_view::npos;
    if (!is_float) {
      std::int64_t i = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), i);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return Value(i);
      }
    }
    double d = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), d);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      fail("invalid number");
    }
    return Value(d);
  }

  Value parse_array() {
    expect('[');
    Array out;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(out));
    }
    while (true) {
      out.push_back(parse_value());
      skip_whitespace();
      const char c = advance();
      if (c == ']') return Value(std::move(out));
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  Value parse_object() {
    expect('{');
    Object out;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(out));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      out[std::move(key)] = parse_value();
      skip_whitespace();
      const char c = advance();
      if (c == '}') return Value(std::move(out));
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string Value::dump(int indent) const {
  std::string out;
  write_value(out, *this, indent, 0);
  return out;
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace recup::json
