// JSON round-trip for the scheduler's durable control state: task keys and
// full task specs (what the checkpoint/journal persists so a restarted
// scheduler can rebuild its state machine), plus state-name parsing — the
// inverse of to_string(SchedulerTaskState).
//
// Record-type serialization (TransitionRecord etc.) lives in
// mofka_plugins.hpp; this header covers the spec side that only the
// durability layer needs, and the journal's record framing.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "dtr/records.hpp"
#include "dtr/task.hpp"
#include "json/json.hpp"

namespace recup::dtr {

json::Value to_json(const TaskKey& key);
TaskKey key_from_json(const json::Value& v);
/// Appends the bytes of wire::encode_value(to_json(key)).
void to_wire(const TaskKey& key, std::string& out);

json::Value to_json(const TaskSpec& spec);
TaskSpec spec_from_json(const json::Value& v);
/// Appends the bytes of wire::encode_value(to_json(spec)).
void to_wire(const TaskSpec& spec, std::string& out);

SchedulerTaskState scheduler_state_from_string(const std::string& name);

// --- Scheduler journal records, written straight to wire bytes --------------
// Each writer appends the bytes wire::encode_value gives the JSON record it
// stands for, so the journal is read back with wire::decode_value.

/// {"r": to_json(record), "t": "transition" | "task" | "steal" | "warning"}
void put_journal_record(std::string& out, const TransitionRecord& record);
void put_journal_record(std::string& out, const TaskRecord& record);
void put_journal_record(std::string& out, const StealRecord& record);
void put_journal_record(std::string& out, const WarningRecord& record);
/// {"name": name, "size": size, "t": "graph"}
void put_graph_record(std::string& out, const std::string& name,
                      std::size_t size);
/// {"graph": graph, "spec": to_json(spec), "t": "spec"}
void put_spec_record(std::string& out, const std::string& graph,
                     const TaskSpec& spec);
/// {"base": base, "recs": [...], "t": "batch"}, where `recs` holds `count`
/// records already encoded back to back.
void put_batch_frame(std::string& out, std::size_t base, std::size_t count,
                     std::string_view recs);

}  // namespace recup::dtr
