// The two codecs the capture path uses besides to_wire: from_wire, which
// reads a record straight from stored wire bytes, and to_json_text, which
// writes the compact JSON a tree would dump. They live apart from schema.cpp
// on purpose: in one file, GCC's unit-growth limit stopped inlining the wire
// writer's per-field calls, which the scheduler journal and the plugins run
// for every record (scheduler_waves unit_s rose ~6%).
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "dtr/schema.hpp"
#include "dtr/schema_fields.hpp"
#include "json/json.hpp"
#include "wire/codec.hpp"

namespace recup::dtr {
namespace {

using namespace schema_detail;

/// One field's value as dump() writes it; integers of every width as int64.
template <typename T>
void text(std::string& out, const T& value) {
  if constexpr (std::is_same_v<T, Constant>) {
    json::write_string(out, value.value);
  } else if constexpr (std::is_same_v<T, darshan::IoOp>) {
    json::write_string(out, op_name(value));
  } else if constexpr (std::is_same_v<T, bool>) {
    out += value ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    json::write_int(out, static_cast<std::int64_t>(value));
  } else if constexpr (std::is_same_v<T, double>) {
    json::write_double(out, value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    json::write_string(out, value);
  } else if constexpr (kIsList<T>) {
    out += '[';
    for (std::size_t i = 0; i < value.size(); ++i) {
      if (i > 0) out += ',';
      text(out, value[i]);
    }
    out += ']';
  } else {
    to_json_text(value, out);
  }
}

struct TextWriter {
  std::string& out;
  char separator = '{';

  void operator()(const char* key, const auto& value) {
    out += separator;
    separator = ',';
    json::write_string(out, key);
    out += ':';
    text(out, value);
  }
  void operator()(const char* key, const auto& list, OmitEmpty) {
    if (!list.empty()) (*this)(key, list);
  }
};

/// The key of an object's next entry, which must sort after `previous`.
std::string_view next_key(std::string_view bytes, std::size_t& pos,
                          std::optional<std::string_view> previous) {
  const std::string_view key = wire::get_key(bytes, pos);
  if (previous && !(*previous < key)) {
    throw wire::WireError("wire: object keys out of ascending order");
  }
  return key;
}

/// wire::skip_value that also requires ascending keys: the check a failed
/// wire read makes of the whole value before it reports a mistyped field.
void skip_ordered(std::string_view bytes, std::size_t& pos) {
  const std::uint8_t tag = wire::get_tag(bytes, pos);
  if (tag == wire::kArray || tag == wire::kObject) {
    const std::size_t n = wire::get_count(bytes, pos);
    std::optional<std::string_view> key;
    for (std::size_t i = 0; i < n; ++i) {
      if (tag == wire::kObject) key = next_key(bytes, pos, key);
      skip_ordered(bytes, pos);
    }
    return;
  }
  --pos;
  wire::skip_value(bytes, pos);
}

template <typename T>
void read_wire(std::string_view bytes, std::size_t& pos, T& field);

/// Reads an object's entries into the fields in list order. Both run in
/// ascending key order, so one pass matches them: entries whose key no
/// field has are skipped, and a field whose key the entries pass by is
/// missing.
struct WireReader {
  std::string_view bytes;
  std::size_t& pos;
  std::size_t left;  ///< entries after the current one
  std::optional<std::string_view> key;  ///< the current entry's; none at end

  WireReader(std::string_view b, std::size_t& p, std::size_t n)
      : bytes(b), pos(p), left(n) {
    advance();
  }

  void advance() {
    if (left == 0) {
      key.reset();
      return;
    }
    --left;
    key = next_key(bytes, pos, key);
  }
  /// Skips to the entry for `wanted`; false when there is none.
  bool find(std::string_view wanted) {
    while (key && *key < wanted) {
      wire::skip_value(bytes, pos);
      advance();
    }
    return key && *key == wanted;
  }
  void require(const char* wanted) {
    if (!find(wanted)) {
      throw json::TypeError(std::string("missing json key: ") + wanted);
    }
  }

  template <typename T>
  void operator()(const char* k, T& field) {
    require(k);
    read_wire(bytes, pos, field);
    advance();
  }
  void operator()(const char* k, const Constant& constant) {
    require(k);
    std::string_view value;
    if (wire::get_tag(bytes, pos) != wire::kStr ||
        (value = wire::get_str(bytes, pos)) != constant.value) {
      throw json::TypeError(std::string("json key ") + k + " is not \"" +
                            constant.value + "\"");
    }
    advance();
  }
  template <typename T>
  void operator()(const char* k, std::vector<T>& list, OmitEmpty) {
    if (!find(k)) return;
    read_wire(bytes, pos, list);
    advance();
  }
  /// Skips the entries after the last field.
  void finish() {
    while (key) {
      wire::skip_value(bytes, pos);
      advance();
    }
  }
};

template <typename T>
void read_wire(std::string_view bytes, std::size_t& pos, T& field) {
  const std::uint8_t tag = wire::get_tag(bytes, pos);
  if constexpr (std::is_same_v<T, darshan::IoOp>) {
    if (tag != wire::kStr) throw json::TypeError("json value is not a string");
    field = op_from_name(wire::get_str(bytes, pos));
  } else if constexpr (std::is_same_v<T, bool>) {
    if (tag != wire::kTrue && tag != wire::kFalse) {
      throw json::TypeError("json value is not a bool");
    }
    field = tag == wire::kTrue;
  } else if constexpr (std::is_integral_v<T>) {
    if (tag != wire::kInt) throw json::TypeError("json value is not an integer");
    field = static_cast<T>(wire::get_zigzag(bytes, pos));
  } else if constexpr (std::is_same_v<T, double>) {
    if (tag == wire::kDouble) {
      field = wire::get_double(bytes, pos);
    } else if (tag == wire::kInt) {
      field = static_cast<double>(wire::get_zigzag(bytes, pos));
    } else {
      throw json::TypeError("json value is not a number");
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (tag != wire::kStr) throw json::TypeError("json value is not a string");
    field = wire::get_str(bytes, pos);
  } else if constexpr (kIsList<T>) {
    if (tag != wire::kArray) throw json::TypeError("json value is not an array");
    const std::size_t n = wire::get_count(bytes, pos);
    for (std::size_t i = 0; i < n; ++i) {
      read_wire(bytes, pos, field.emplace_back());
    }
  } else {
    if (tag != wire::kObject) {
      throw json::TypeError("json value is not an object");
    }
    WireReader reader(bytes, pos, wire::get_count(bytes, pos));
    fields(reader, field);
    reader.finish();
  }
}

template <typename R>
void write_text(const R& record, std::string& out) {
  TextWriter writer{out};
  fields(writer, record);
  if (writer.separator == '{') out += '{';  // no field written
  out += '}';
}

}  // namespace

template <typename T>
T from_wire(std::string_view bytes) {
  T record;
  std::size_t pos = 0;
  try {
    read_wire(bytes, pos, record);
  } catch (const json::TypeError&) {
    // Bad bytes anywhere outrank a mistyped field, as they do when the
    // bytes are decoded into a tree first.
    std::size_t end = 0;
    skip_ordered(bytes, end);
    if (end != bytes.size()) {
      throw wire::WireError("wire: trailing bytes after value");
    }
    throw;
  }
  if (pos != bytes.size()) {
    throw wire::WireError("wire: trailing bytes after value");
  }
  return record;
}

std::string_view kind_of(std::string_view metadata) {
  std::size_t pos = 0;
  if (wire::get_tag(metadata, pos) != wire::kObject) return {};
  const std::size_t n = wire::get_count(metadata, pos);
  for (std::size_t i = 0; i < n; ++i) {
    if (wire::get_key(metadata, pos) != "kind") {
      wire::skip_value(metadata, pos);
      continue;
    }
    if (wire::get_tag(metadata, pos) != wire::kStr) {
      throw json::TypeError("json value is not a string");
    }
    return wire::get_str(metadata, pos);
  }
  return {};
}

template TaskKey from_wire(std::string_view);
template TransitionRecord from_wire(std::string_view);
template TaskRecord from_wire(std::string_view);
template CommRecord from_wire(std::string_view);
template WarningRecord from_wire(std::string_view);
template StealRecord from_wire(std::string_view);
template TaskSpec from_wire(std::string_view);
template TaskWork from_wire(std::string_view);
template IoOpSpec from_wire(std::string_view);
template gpuprof::KernelSpec from_wire(std::string_view);
template darshan::PosixRecord from_wire(std::string_view);
template DxtSegmentEvent from_wire(std::string_view);


void to_json_text(const TaskKey& r, std::string& out) { write_text(r, out); }
void to_json_text(const TransitionRecord& r, std::string& out) {
  write_text(r, out);
}
void to_json_text(const TaskRecord& r, std::string& out) {
  write_text(r, out);
}
void to_json_text(const CommRecord& r, std::string& out) {
  write_text(r, out);
}
void to_json_text(const WarningRecord& r, std::string& out) {
  write_text(r, out);
}
void to_json_text(const StealRecord& r, std::string& out) {
  write_text(r, out);
}
void to_json_text(const TaskSpec& r, std::string& out) { write_text(r, out); }
void to_json_text(const TaskWork& r, std::string& out) { write_text(r, out); }
void to_json_text(const IoOpSpec& r, std::string& out) { write_text(r, out); }
void to_json_text(const gpuprof::KernelSpec& r, std::string& out) {
  write_text(r, out);
}
void to_json_text(const darshan::PosixRecord& r, std::string& out) {
  write_text(r, out);
}
void to_json_text(const DxtSegmentEvent& r, std::string& out) {
  write_text(r, out);
}

}  // namespace recup::dtr
