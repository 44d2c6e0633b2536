// The schema's field lists (see schema.hpp), shared by the files that derive
// codecs from them: schema.cpp (the JSON tree codecs and the wire writer)
// and schema_capture.cpp (the wire reader and the JSON text writer). Private
// to src/dtr.
#pragma once

#include <concepts>
#include <string_view>
#include <type_traits>
#include <vector>

#include "dtr/schema.hpp"

namespace recup::dtr::schema_detail {

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

// The Darshan bridge's two events. A PosixRecord streams its cumulative
// counters only; the other members stay at their defaults when read back.
template <typename V, Is<darshan::PosixRecord> R>
void fields(V& visit, R& r) {
  visit("bytes_read", r.bytes_read);
  visit("bytes_written", r.bytes_written);
  visit("file", r.file_path);
  visit("hostname", r.hostname);
  visit("kind", Constant{"posix"});
  visit("max_byte_read", r.max_byte_read);
  visit("max_byte_written", r.max_byte_written);
  visit("meta_time", r.meta_time);
  visit("opens", r.opens);
  visit("process", r.process_id);
  visit("read_time", r.read_time);
  visit("reads", r.reads);
  visit("write_time", r.write_time);
  visit("writes", r.writes);
}

template <typename V, Is<DxtSegmentEvent> R>
void fields(V& visit, R& r) {
  visit("end", r.segment.end);
  visit("file", r.file_path);
  visit("hostname", r.hostname);
  visit("kind", Constant{"dxt"});
  visit("length", r.segment.length);
  visit("offset", r.segment.offset);
  visit("op", r.segment.op);
  visit("process", r.process_id);
  visit("start", r.segment.start);
  visit("thread_id", r.segment.thread_id);
}

// A DXT op travels as the string "read" or "write".

inline const char* op_name(darshan::IoOp op) {
  return op == darshan::IoOp::kRead ? "read" : "write";
}

inline darshan::IoOp op_from_name(std::string_view name) {
  if (name == "read") return darshan::IoOp::kRead;
  if (name == "write") return darshan::IoOp::kWrite;
  throw json::TypeError("json key op is neither \"read\" nor \"write\"");
}

}  // namespace recup::dtr::schema_detail
