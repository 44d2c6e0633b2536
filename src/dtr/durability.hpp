// The scheduler's durable control state: state-name parsing (the inverse of
// to_string(SchedulerTaskState)) and the journal's record framing. The
// records and task specs inside the frames are written by the schema
// codecs of dtr/schema.hpp.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "dtr/schema.hpp"

namespace recup::dtr {

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
