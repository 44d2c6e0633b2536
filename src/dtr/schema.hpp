// The provenance schema (paper §III-E2): the records the WMS plugins stream
// as Mofka event metadata and the scheduler journals, with the task specs a
// restarted scheduler rebuilds its state machine from. Each type has one
// field list (schema.cpp); the three codecs below are derived from it, so a
// record's keys, their order and their types are written down once.
#pragma once

#include <string>

#include "dtr/records.hpp"
#include "dtr/task.hpp"
#include "gpuprof/records.hpp"
#include "json/json.hpp"

namespace recup::dtr {

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

/// Reads a record back from its to_json tree, for any of the types above.
/// Every key the writer always emits is required: a missing one, or one of
/// the wrong type, throws json::TypeError, as does a StealRecord whose
/// `kind` is not "steal". A list the writer leaves out when empty reads back
/// empty, and keys outside the type's field list (such as the producer's
/// `_pid`/`_seq` stamps) are ignored.
template <typename T>
T from_json(const json::Value& v);

}  // namespace recup::dtr
