#include "dtr/schema.hpp"

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "wire/codec.hpp"

namespace recup::dtr {
namespace {

/// A field list serves both the writers (const record) and the reader.
template <typename Self, typename Record>
concept Is = std::same_as<std::remove_const_t<Self>, Record>;

/// Marks a list the writers leave out when it is empty.
struct OmitEmpty {};

/// A string the writers always emit under its key and the reader checks.
struct Constant {
  const char* value;
};

template <typename T>
inline constexpr bool kIsList = false;
template <typename T>
inline constexpr bool kIsList<std::vector<T>> = true;

// --- Field lists ------------------------------------------------------------
// fields(visit, record) calls visit(key, member) once per field, in ascending
// byte order of the keys: the order of a json::Object (a std::map), which the
// wire writer has to match for its bytes to equal encode_value(to_json(r)).

template <typename V, Is<TaskKey> R>
void fields(V& visit, R& r) {
  visit("group", r.group);
  visit("index", r.index);
}

template <typename V, Is<TransitionRecord> R>
void fields(V& visit, R& r) {
  visit("from", r.from_state);
  visit("graph", r.graph);
  visit("key", r.key);
  visit("location", r.location);
  visit("stimulus", r.stimulus);
  visit("time", r.time);
  visit("to", r.to_state);
}

template <typename V, Is<TaskRecord> R>
void fields(V& visit, R& r) {
  visit("bytes_inline", r.bytes_inline);
  visit("bytes_oob", r.bytes_oob);
  visit("bytes_read", r.bytes_read);
  visit("bytes_written", r.bytes_written);
  visit("compute_time", r.compute_time);
  visit("dependencies", r.dependencies);
  visit("end_time", r.end_time);
  visit("gpu_time", r.gpu_time);
  visit("graph", r.graph);
  visit("io_time", r.io_time);
  visit("key", r.key);
  visit("lane", r.lane);
  visit("output_bytes", r.output_bytes);
  visit("prefix", r.prefix);
  visit("ready_time", r.ready_time);
  visit("received_time", r.received_time);
  visit("retries", r.retries);
  visit("start_time", r.start_time);
  visit("stolen", r.stolen);
  visit("thread_id", r.thread_id);
  visit("worker", r.worker);
  visit("worker_address", r.worker_address);
}

template <typename V, Is<CommRecord> R>
void fields(V& visit, R& r) {
  visit("bytes", r.bytes);
  visit("cold_connection", r.cold_connection);
  visit("cross_node", r.cross_node);
  visit("destination", r.destination);
  visit("destination_address", r.destination_address);
  visit("end", r.end);
  visit("key", r.key);
  visit("oob", r.oob);
  visit("source", r.source);
  visit("source_address", r.source_address);
  visit("start", r.start);
}

template <typename V, Is<WarningRecord> R>
void fields(V& visit, R& r) {
  visit("blocked_for", r.blocked_for);
  visit("kind", r.kind);
  visit("location", r.location);
  visit("message", r.message);
  visit("time", r.time);
}

template <typename V, Is<StealRecord> R>
void fields(V& visit, R& r) {
  visit("estimated_compute_cost", r.estimated_compute_cost);
  visit("estimated_transfer_cost", r.estimated_transfer_cost);
  visit("key", r.key);
  visit("kind", Constant{"steal"});  // tells steals apart on wms_cluster
  visit("thief", r.thief);
  visit("time", r.time);
  visit("victim", r.victim);
}

template <typename V, Is<TaskSpec> R>
void fields(V& visit, R& r) {
  visit("dependencies", r.dependencies, OmitEmpty{});
  visit("key", r.key);
  visit("priority", r.priority);
  visit("work", r.work);
}

template <typename V, Is<TaskWork> R>
void fields(V& visit, R& r) {
  visit("blocks_event_loop", r.blocks_event_loop);
  visit("compute", r.compute);
  visit("compute_noise_sigma", r.compute_noise_sigma);
  visit("failure_probability", r.failure_probability);
  visit("kernels", r.kernels, OmitEmpty{});
  visit("output_bytes", r.output_bytes);
  visit("reads", r.reads, OmitEmpty{});
  visit("releasable", r.releasable);
  visit("scratch_bytes", r.scratch_bytes);
  visit("writes", r.writes, OmitEmpty{});
}

template <typename V, Is<IoOpSpec> R>
void fields(V& visit, R& r) {
  visit("is_write", r.is_write);
  visit("length", r.length);
  visit("offset", r.offset);
  visit("path", r.path);
}

template <typename V, Is<gpuprof::KernelSpec> R>
void fields(V& visit, R& r) {
  visit("duration", r.duration);
  visit("launches", r.launches);
  visit("name", r.name);
}

// --- One field's value, per codec -------------------------------------------
// Integers of every width travel as int64, like json::Value holds them.

template <typename T>
json::Value tree(const T& value) {
  if constexpr (std::is_same_v<T, Constant>) {
    return value.value;
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
  if constexpr (std::is_same_v<T, bool>) {
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

// --- Visitors: the three codecs, plus the wire writer's field count ---------

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

}  // namespace recup::dtr
