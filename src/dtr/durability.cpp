#include "dtr/durability.hpp"

#include <stdexcept>

#include "dtr/mofka_plugins.hpp"
#include "wire/codec.hpp"

namespace recup::dtr {

namespace {

json::Value io_to_json(const IoOpSpec& op) {
  json::Object o;
  o["path"] = op.path;
  o["offset"] = op.offset;
  o["length"] = op.length;
  o["is_write"] = op.is_write;
  return json::Value(std::move(o));
}

IoOpSpec io_from_json(const json::Value& v) {
  IoOpSpec op;
  op.path = v.get_string("path", "");
  op.offset = static_cast<std::uint64_t>(v.get_int("offset", 0));
  op.length = static_cast<std::uint64_t>(v.get_int("length", 0));
  op.is_write = v.get_bool("is_write", false);
  return op;
}

json::Value kernel_to_json(const gpuprof::KernelSpec& kernel) {
  json::Object o;
  o["name"] = kernel.name;
  o["duration"] = kernel.duration;
  o["launches"] = static_cast<std::int64_t>(kernel.launches);
  return json::Value(std::move(o));
}

void io_to_wire(const IoOpSpec& op, std::string& out) {
  wire::put_object(out, 4);
  wire::put_str(out, "is_write");
  wire::put_bool(out, op.is_write);
  wire::put_str(out, "length");
  wire::put_int(out, static_cast<std::int64_t>(op.length));
  wire::put_str(out, "offset");
  wire::put_int(out, static_cast<std::int64_t>(op.offset));
  wire::put_str(out, "path");
  wire::put_str(out, op.path);
}

void io_list_to_wire(const char* name, const std::vector<IoOpSpec>& ops,
                     std::string& out) {
  wire::put_str(out, name);
  wire::put_array(out, ops.size());
  for (const IoOpSpec& op : ops) io_to_wire(op, out);
}

void kernel_to_wire(const gpuprof::KernelSpec& kernel, std::string& out) {
  wire::put_object(out, 3);
  wire::put_str(out, "duration");
  wire::put_double(out, kernel.duration);
  wire::put_str(out, "launches");
  wire::put_int(out, static_cast<std::int64_t>(kernel.launches));
  wire::put_str(out, "name");
  wire::put_str(out, kernel.name);
}

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

gpuprof::KernelSpec kernel_from_json(const json::Value& v) {
  gpuprof::KernelSpec kernel;
  kernel.name = v.get_string("name", "");
  kernel.duration = v.get_double("duration", 0.0);
  kernel.launches = static_cast<std::uint32_t>(v.get_int("launches", 1));
  return kernel;
}

}  // namespace

json::Value to_json(const TaskKey& key) {
  json::Object o;
  o["group"] = key.group;
  o["index"] = key.index;
  return json::Value(std::move(o));
}

TaskKey key_from_json(const json::Value& v) {
  TaskKey key;
  key.group = v.get_string("group", "");
  key.index = v.get_int("index", -1);
  return key;
}

void to_wire(const TaskKey& key, std::string& out) {
  wire::put_object(out, 2);
  wire::put_str(out, "group");
  wire::put_str(out, key.group);
  wire::put_str(out, "index");
  wire::put_int(out, key.index);
}

json::Value to_json(const TaskSpec& spec) {
  json::Object o;
  o["key"] = to_json(spec.key);
  if (!spec.dependencies.empty()) {
    json::Array deps;
    for (const TaskKey& dep : spec.dependencies) deps.push_back(to_json(dep));
    o["dependencies"] = std::move(deps);
  }
  o["priority"] = spec.priority;
  json::Object work;
  work["compute"] = spec.work.compute;
  work["compute_noise_sigma"] = spec.work.compute_noise_sigma;
  work["output_bytes"] = spec.work.output_bytes;
  work["scratch_bytes"] = spec.work.scratch_bytes;
  work["blocks_event_loop"] = spec.work.blocks_event_loop;
  work["failure_probability"] = spec.work.failure_probability;
  work["releasable"] = spec.work.releasable;
  if (!spec.work.reads.empty()) {
    json::Array reads;
    for (const IoOpSpec& op : spec.work.reads) reads.push_back(io_to_json(op));
    work["reads"] = std::move(reads);
  }
  if (!spec.work.writes.empty()) {
    json::Array writes;
    for (const IoOpSpec& op : spec.work.writes) {
      writes.push_back(io_to_json(op));
    }
    work["writes"] = std::move(writes);
  }
  if (!spec.work.kernels.empty()) {
    json::Array kernels;
    for (const gpuprof::KernelSpec& kernel : spec.work.kernels) {
      kernels.push_back(kernel_to_json(kernel));
    }
    work["kernels"] = std::move(kernels);
  }
  o["work"] = json::Value(std::move(work));
  return json::Value(std::move(o));
}

TaskSpec spec_from_json(const json::Value& v) {
  TaskSpec spec;
  spec.key = key_from_json(v.at("key"));
  if (v.contains("dependencies")) {
    for (const json::Value& dep : v.at("dependencies").as_array()) {
      spec.dependencies.push_back(key_from_json(dep));
    }
  }
  spec.priority = static_cast<int>(v.get_int("priority", 0));
  const json::Value& work = v.at("work");
  spec.work.compute = work.get_double("compute", 0.0);
  spec.work.compute_noise_sigma =
      work.get_double("compute_noise_sigma", 0.08);
  spec.work.output_bytes =
      static_cast<std::uint64_t>(work.get_int("output_bytes", 0));
  spec.work.scratch_bytes =
      static_cast<std::uint64_t>(work.get_int("scratch_bytes", 0));
  spec.work.blocks_event_loop = work.get_bool("blocks_event_loop", false);
  spec.work.failure_probability =
      work.get_double("failure_probability", 0.0);
  spec.work.releasable = work.get_bool("releasable", false);
  if (work.contains("reads")) {
    for (const json::Value& op : work.at("reads").as_array()) {
      spec.work.reads.push_back(io_from_json(op));
    }
  }
  if (work.contains("writes")) {
    for (const json::Value& op : work.at("writes").as_array()) {
      spec.work.writes.push_back(io_from_json(op));
    }
  }
  if (work.contains("kernels")) {
    for (const json::Value& kernel : work.at("kernels").as_array()) {
      spec.work.kernels.push_back(kernel_from_json(kernel));
    }
  }
  return spec;
}

void to_wire(const TaskSpec& spec, std::string& out) {
  const bool has_deps = !spec.dependencies.empty();
  wire::put_object(out, has_deps ? 4 : 3);
  if (has_deps) {
    wire::put_str(out, "dependencies");
    wire::put_array(out, spec.dependencies.size());
    for (const TaskKey& dep : spec.dependencies) to_wire(dep, out);
  }
  wire::put_str(out, "key");
  to_wire(spec.key, out);
  wire::put_str(out, "priority");
  wire::put_int(out, spec.priority);
  wire::put_str(out, "work");
  const TaskWork& work = spec.work;
  const int lists = !work.reads.empty() + !work.writes.empty() +
                    !work.kernels.empty();  // only non-empty ones are keys
  wire::put_object(out, 7 + lists);
  wire::put_str(out, "blocks_event_loop");
  wire::put_bool(out, work.blocks_event_loop);
  wire::put_str(out, "compute");
  wire::put_double(out, work.compute);
  wire::put_str(out, "compute_noise_sigma");
  wire::put_double(out, work.compute_noise_sigma);
  wire::put_str(out, "failure_probability");
  wire::put_double(out, work.failure_probability);
  if (!work.kernels.empty()) {
    wire::put_str(out, "kernels");
    wire::put_array(out, work.kernels.size());
    for (const gpuprof::KernelSpec& kernel : work.kernels) {
      kernel_to_wire(kernel, out);
    }
  }
  wire::put_str(out, "output_bytes");
  wire::put_int(out, static_cast<std::int64_t>(work.output_bytes));
  if (!work.reads.empty()) io_list_to_wire("reads", work.reads, out);
  wire::put_str(out, "releasable");
  wire::put_bool(out, work.releasable);
  wire::put_str(out, "scratch_bytes");
  wire::put_int(out, static_cast<std::int64_t>(work.scratch_bytes));
  if (!work.writes.empty()) io_list_to_wire("writes", work.writes, out);
}

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
