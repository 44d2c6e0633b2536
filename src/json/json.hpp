// Minimal JSON value / parser / writer.
//
// Mofka event metadata is "expressed in JSON format" (paper §III-B); a run
// records its Mochi provider configuration as JSON; and the Figure 8
// provenance summary is exported as a JSON document. This module provides
// just enough JSON for those uses with no external dependencies.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace recup::json {

class Value;

using Array = std::vector<Value>;
/// std::map keeps keys ordered, which makes serialized output deterministic —
/// important for golden tests and FAIR tabular exports.
using Object = std::map<std::string, Value>;

class TypeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A JSON value: null, bool, int64, double, string, array, or object.
/// Integers are kept distinct from doubles so identifiers (thread ids, byte
/// counts) round-trip exactly.
class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(std::int64_t i) : data_(i) {}
  Value(int i) : data_(static_cast<std::int64_t>(i)) {}
  Value(std::uint64_t u) : data_(static_cast<std::int64_t>(u)) {}
  Value(double d) : data_(d) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(std::string_view s) : data_(std::string(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  [[nodiscard]] bool is_null() const;
  [[nodiscard]] bool is_bool() const;
  [[nodiscard]] bool is_int() const;
  [[nodiscard]] bool is_double() const;
  [[nodiscard]] bool is_number() const { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const;
  [[nodiscard]] bool is_array() const;
  [[nodiscard]] bool is_object() const;

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  /// Numeric coercion: returns int value widened when needed.
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Object& as_object();

  /// Object access; throws TypeError when not an object / key missing.
  [[nodiscard]] const Value& at(const std::string& key) const;
  /// Object access with insertion (converts null to object first).
  Value& operator[](const std::string& key);
  [[nodiscard]] bool contains(const std::string& key) const;

  /// Array access.
  [[nodiscard]] const Value& at(std::size_t index) const;
  [[nodiscard]] std::size_t size() const;

  /// Typed lookups with defaults, for config parsing.
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Serializes; indent < 0 means compact single-line output.
  [[nodiscard]] std::string dump(int indent = -1) const;

  bool operator==(const Value& other) const { return data_ == other.data_; }

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      data_;
};

/// Parses a JSON document; throws ParseError with position info on failure.
Value parse(std::string_view text);

// --- Scalar writers: append exactly what dump() writes for one value --------
/// A quoted string with dump()'s escapes (\" \\ \n \r \t, \u00XX for other
/// control bytes; every other byte verbatim).
void write_string(std::string& out, std::string_view s);
void write_int(std::string& out, std::int64_t i);
/// %.17g, or null for NaN and the infinities.
void write_double(std::string& out, double d);

}  // namespace recup::json
