#include "dtr/schema.hpp"

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "dtr/schema_fields.hpp"
#include "wire/codec.hpp"

namespace recup::dtr {
namespace {

using namespace schema_detail;

// --- One field's value, per codec -------------------------------------------
// Integers of every width travel as int64, like json::Value holds them, and
// a DXT op as the string "read" or "write".

template <typename T>
json::Value tree(const T& value) {
  if constexpr (std::is_same_v<T, Constant>) {
    return value.value;
  } else if constexpr (std::is_same_v<T, darshan::IoOp>) {
    return op_name(value);
  } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    return static_cast<std::int64_t>(value);
  } else if constexpr (kIsList<T>) {
    json::Array list;
    list.reserve(value.size());
    for (const auto& element : value) list.push_back(tree(element));
    return list;
  } else if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                       std::is_same_v<T, std::string>) {
    return value;
  } else {
    return to_json(value);
  }
}

template <typename T>
void put(std::string& out, const T& value) {
  if constexpr (std::is_same_v<T, Constant>) {
    wire::put_str(out, value.value);
  } else if constexpr (std::is_same_v<T, darshan::IoOp>) {
    wire::put_str(out, op_name(value));
  } else if constexpr (std::is_same_v<T, bool>) {
    wire::put_bool(out, value);
  } else if constexpr (std::is_integral_v<T>) {
    wire::put_int(out, static_cast<std::int64_t>(value));
  } else if constexpr (std::is_same_v<T, double>) {
    wire::put_double(out, value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    wire::put_str(out, value);
  } else if constexpr (kIsList<T>) {
    wire::put_array(out, value.size());
    for (const auto& element : value) put(out, element);
  } else {
    to_wire(value, out);
  }
}

template <typename T>
void read(const json::Value& v, T& field) {
  if constexpr (std::is_same_v<T, darshan::IoOp>) {
    field = op_from_name(v.as_string());
  } else if constexpr (std::is_same_v<T, bool>) {
    field = v.as_bool();
  } else if constexpr (std::is_integral_v<T>) {
    field = static_cast<T>(v.as_int());
  } else if constexpr (std::is_same_v<T, double>) {
    field = v.as_double();
  } else if constexpr (std::is_same_v<T, std::string>) {
    field = v.as_string();
  } else if constexpr (kIsList<T>) {
    for (const json::Value& element : v.as_array()) {
      read(element, field.emplace_back());
    }
  } else {
    field = from_json<T>(v);
  }
}

// --- Visitors: three codecs, plus the wire writer's field count ------------

struct TreeWriter {
  json::Object& object;

  void operator()(const char* key, const auto& value) {
    object.emplace_hint(object.end(), key, tree(value));
  }
  void operator()(const char* key, const auto& list, OmitEmpty) {
    if (!list.empty()) (*this)(key, list);
  }
};

struct FieldCounter {
  std::size_t count = 0;

  void operator()(const char*, const auto&) { ++count; }
  void operator()(const char*, const auto& list, OmitEmpty) {
    count += list.empty() ? 0 : 1;
  }
};

struct WireWriter {
  std::string& out;

  void operator()(const char* key, const auto& value) {
    wire::put_str(out, key);
    put(out, value);
  }
  void operator()(const char* key, const auto& list, OmitEmpty) {
    if (!list.empty()) (*this)(key, list);
  }
};

struct TreeReader {
  const json::Value& node;

  template <typename T>
  void operator()(const char* key, T& field) const {
    read(node.at(key), field);
  }
  void operator()(const char* key, const Constant& constant) const {
    if (node.at(key).as_string() != constant.value) {
      throw json::TypeError(std::string("json key ") + key + " is not \"" +
                            constant.value + "\"");
    }
  }
  template <typename T>
  void operator()(const char* key, std::vector<T>& list, OmitEmpty) const {
    if (node.contains(key)) read(node.at(key), list);
  }
};

template <typename R>
json::Value write_tree(const R& record) {
  json::Object object;
  TreeWriter writer{object};
  fields(writer, record);
  return json::Value(std::move(object));
}

template <typename R>
void write_wire(const R& record, std::string& out) {
  FieldCounter counter;
  fields(counter, record);
  wire::put_object(out, counter.count);
  WireWriter writer{out};
  fields(writer, record);
}

}  // namespace

template <typename T>
T from_json(const json::Value& v) {
  T record;
  TreeReader reader{v};
  fields(reader, record);
  return record;
}

template TaskKey from_json(const json::Value&);
template TransitionRecord from_json(const json::Value&);
template TaskRecord from_json(const json::Value&);
template CommRecord from_json(const json::Value&);
template WarningRecord from_json(const json::Value&);
template StealRecord from_json(const json::Value&);
template TaskSpec from_json(const json::Value&);
template TaskWork from_json(const json::Value&);
template IoOpSpec from_json(const json::Value&);
template gpuprof::KernelSpec from_json(const json::Value&);
template darshan::PosixRecord from_json(const json::Value&);
template DxtSegmentEvent from_json(const json::Value&);

json::Value to_json(const TaskKey& r) { return write_tree(r); }
json::Value to_json(const TransitionRecord& r) { return write_tree(r); }
json::Value to_json(const TaskRecord& r) { return write_tree(r); }
json::Value to_json(const CommRecord& r) { return write_tree(r); }
json::Value to_json(const WarningRecord& r) { return write_tree(r); }
json::Value to_json(const StealRecord& r) { return write_tree(r); }
json::Value to_json(const TaskSpec& r) { return write_tree(r); }
json::Value to_json(const TaskWork& r) { return write_tree(r); }
json::Value to_json(const IoOpSpec& r) { return write_tree(r); }
json::Value to_json(const gpuprof::KernelSpec& r) { return write_tree(r); }
json::Value to_json(const darshan::PosixRecord& r) { return write_tree(r); }
json::Value to_json(const DxtSegmentEvent& r) { return write_tree(r); }

void to_wire(const TaskKey& r, std::string& out) { write_wire(r, out); }
void to_wire(const TransitionRecord& r, std::string& out) {
  write_wire(r, out);
}
void to_wire(const TaskRecord& r, std::string& out) { write_wire(r, out); }
void to_wire(const CommRecord& r, std::string& out) { write_wire(r, out); }
void to_wire(const WarningRecord& r, std::string& out) { write_wire(r, out); }
void to_wire(const StealRecord& r, std::string& out) { write_wire(r, out); }
void to_wire(const TaskSpec& r, std::string& out) { write_wire(r, out); }
void to_wire(const TaskWork& r, std::string& out) { write_wire(r, out); }
void to_wire(const IoOpSpec& r, std::string& out) { write_wire(r, out); }
void to_wire(const gpuprof::KernelSpec& r, std::string& out) {
  write_wire(r, out);
}
void to_wire(const darshan::PosixRecord& r, std::string& out) {
  write_wire(r, out);
}
void to_wire(const DxtSegmentEvent& r, std::string& out) {
  write_wire(r, out);
}

}  // namespace recup::dtr
