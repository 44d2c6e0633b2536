// The provenance schema (paper §III-E2): the records the WMS plugins and the
// Darshan bridge stream as Mofka event metadata and the scheduler journals,
// with the task specs a restarted scheduler rebuilds its state machine from.
// Each type has one field list (schema_fields.hpp); the five codecs below are
// derived from it, so a record's keys, their order and their types are
// written down once. Two of them write (a JSON tree, wire bytes), two read
// (from a tree, from wire bytes), and one writes the compact JSON text a
// tree would dump, which is the ingestor's canonical sort key.
#pragma once

#include <string>
#include <string_view>

#include "darshan/records.hpp"
#include "dtr/records.hpp"
#include "dtr/task.hpp"
#include "gpuprof/records.hpp"
#include "json/json.hpp"

namespace recup::dtr {

/// One DXT segment as the Darshan bridge streams it, with the (process,
/// file) record it belongs to. The bridge's other event is a
/// darshan::PosixRecord's cumulative counters.
struct DxtSegmentEvent {
  std::string file_path;
  darshan::ProcessId process_id = 0;
  std::string hostname;
  darshan::DxtSegment segment;
};

/// The record as a JSON tree: the metadata of its Mofka event.
json::Value to_json(const TaskKey& record);
json::Value to_json(const TransitionRecord& record);
json::Value to_json(const TaskRecord& record);
json::Value to_json(const CommRecord& record);
json::Value to_json(const WarningRecord& record);
json::Value to_json(const StealRecord& record);
json::Value to_json(const TaskSpec& record);
json::Value to_json(const TaskWork& record);
json::Value to_json(const IoOpSpec& record);
json::Value to_json(const gpuprof::KernelSpec& record);
json::Value to_json(const darshan::PosixRecord& record);
json::Value to_json(const DxtSegmentEvent& record);

/// Appends the bytes of wire::encode_value(to_json(record)) without
/// building the tree.
void to_wire(const TaskKey& record, std::string& out);
void to_wire(const TransitionRecord& record, std::string& out);
void to_wire(const TaskRecord& record, std::string& out);
void to_wire(const CommRecord& record, std::string& out);
void to_wire(const WarningRecord& record, std::string& out);
void to_wire(const StealRecord& record, std::string& out);
void to_wire(const TaskSpec& record, std::string& out);
void to_wire(const TaskWork& record, std::string& out);
void to_wire(const IoOpSpec& record, std::string& out);
void to_wire(const gpuprof::KernelSpec& record, std::string& out);
void to_wire(const darshan::PosixRecord& record, std::string& out);
void to_wire(const DxtSegmentEvent& record, std::string& out);
/// The same bytes as a new string: an event's metadata, ready to push.
template <typename Record>
std::string to_wire(const Record& record) {
  std::string out;
  to_wire(record, out);
  return out;
}

/// Appends exactly to_json(record).dump() without building the tree.
void to_json_text(const TaskKey& record, std::string& out);
void to_json_text(const TransitionRecord& record, std::string& out);
void to_json_text(const TaskRecord& record, std::string& out);
void to_json_text(const CommRecord& record, std::string& out);
void to_json_text(const WarningRecord& record, std::string& out);
void to_json_text(const StealRecord& record, std::string& out);
void to_json_text(const TaskSpec& record, std::string& out);
void to_json_text(const TaskWork& record, std::string& out);
void to_json_text(const IoOpSpec& record, std::string& out);
void to_json_text(const gpuprof::KernelSpec& record, std::string& out);
void to_json_text(const darshan::PosixRecord& record, std::string& out);
void to_json_text(const DxtSegmentEvent& record, std::string& out);

/// Reads a record back from its to_json tree, for any of the types above.
/// Every key the writer always emits is required: a missing one, or one of
/// the wrong type, throws json::TypeError, as does a constant `kind` (the
/// steal's "steal", the Darshan events' "posix" and "dxt") or a DXT `op`
/// that is not what the writer writes. A list the writer leaves out when
/// empty reads back empty, and keys outside the type's field list (such as
/// the producer's `_pid`/`_seq` stamps) are ignored.
template <typename T>
T from_json(const json::Value& v);

/// Reads a record straight from self-contained wire bytes, by from_json's
/// rules: the same record from_json<T>(wire::decode_value(bytes)) gives, or
/// the same exception type. Malformed or trailing bytes throw
/// wire::WireError, also where a field is mistyped too. One rule of its
/// own: an object's keys must be strictly ascending, as every encoder
/// writes them (wire::WireError otherwise).
template <typename T>
T from_wire(std::string_view bytes);

/// The string under "kind" in stored metadata bytes, which tells the
/// record shapes of a shared topic apart; empty when the metadata is no
/// object or has no kind. A kind that is not a string throws
/// json::TypeError.
[[nodiscard]] std::string_view kind_of(std::string_view metadata);

}  // namespace recup::dtr
