#include "dtr/durability.hpp"

#include <stdexcept>

#include "dtr/schema.hpp"
#include "wire/codec.hpp"

namespace recup::dtr {

namespace {

/// The {"r": record, "t": type} envelope of the provenance records.
template <typename Record>
void put_envelope(std::string& out, std::string_view type,
                  const Record& record) {
  wire::put_object(out, 2);
  wire::put_str(out, "r");
  to_wire(record, out);
  wire::put_str(out, "t");
  wire::put_str(out, type);
}

}  // namespace

SchedulerTaskState scheduler_state_from_string(const std::string& name) {
  static constexpr SchedulerTaskState kStates[] = {
      SchedulerTaskState::kReleased,  SchedulerTaskState::kWaiting,
      SchedulerTaskState::kQueued,    SchedulerTaskState::kNoWorker,
      SchedulerTaskState::kProcessing, SchedulerTaskState::kMemory,
      SchedulerTaskState::kErred,     SchedulerTaskState::kForgotten};
  for (const SchedulerTaskState state : kStates) {
    if (name == to_string(state)) return state;
  }
  throw std::invalid_argument("unknown scheduler task state: " + name);
}

void put_journal_record(std::string& out, const TransitionRecord& record) {
  put_envelope(out, "transition", record);
}

void put_journal_record(std::string& out, const TaskRecord& record) {
  put_envelope(out, "task", record);
}

void put_journal_record(std::string& out, const StealRecord& record) {
  put_envelope(out, "steal", record);
}

void put_journal_record(std::string& out, const WarningRecord& record) {
  put_envelope(out, "warning", record);
}

void put_graph_record(std::string& out, const std::string& name,
                      std::size_t size) {
  wire::put_object(out, 3);
  wire::put_str(out, "name");
  wire::put_str(out, name);
  wire::put_str(out, "size");
  wire::put_int(out, static_cast<std::int64_t>(size));
  wire::put_str(out, "t");
  wire::put_str(out, "graph");
}

void put_spec_record(std::string& out, const std::string& graph,
                     const TaskSpec& spec) {
  wire::put_object(out, 3);
  wire::put_str(out, "graph");
  wire::put_str(out, graph);
  wire::put_str(out, "spec");
  to_wire(spec, out);
  wire::put_str(out, "t");
  wire::put_str(out, "spec");
}

void put_batch_frame(std::string& out, std::size_t base, std::size_t count,
                     std::string_view recs) {
  wire::put_object(out, 3);
  wire::put_str(out, "base");
  wire::put_int(out, static_cast<std::int64_t>(base));
  wire::put_str(out, "recs");
  wire::put_array(out, count);
  out.append(recs);
  wire::put_str(out, "t");
  wire::put_str(out, "batch");
}

}  // namespace recup::dtr
