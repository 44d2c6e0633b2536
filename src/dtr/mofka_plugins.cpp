#include "dtr/mofka_plugins.hpp"

#include "dtr/durability.hpp"
#include "wire/codec.hpp"

namespace recup::dtr {
namespace {

constexpr const char* kTransitions = "wms_transitions";
constexpr const char* kTasks = "wms_tasks";
constexpr const char* kComms = "wms_comms";
constexpr const char* kWarnings = "wms_warnings";
constexpr const char* kCluster = "wms_cluster";

/// Strict: a record key missing a field is malformed.
TaskKey parse_key(const json::Value& v) {
  TaskKey key;
  key.group = v.at("group").as_string();
  key.index = v.at("index").as_int();
  return key;
}

}  // namespace

void create_wms_topics(mofka::Broker& broker,
                       mofka::PartitionIndex partitions) {
  for (const char* name :
       {kTransitions, kTasks, kComms, kWarnings, kCluster}) {
    if (!broker.topic_exists(name)) {
      broker.create_topic(name, mofka::TopicConfig{partitions, nullptr,
                                                   nullptr});
    }
  }
}

json::Value to_json(const TransitionRecord& r) {
  json::Object o;
  o["key"] = to_json(r.key);
  o["graph"] = r.graph;
  o["from"] = r.from_state;
  o["to"] = r.to_state;
  o["stimulus"] = r.stimulus;
  o["location"] = r.location;
  o["time"] = r.time;
  return json::Value(std::move(o));
}

void to_wire(const TransitionRecord& r, std::string& out) {
  wire::put_object(out, 7);
  wire::put_str(out, "from");
  wire::put_str(out, r.from_state);
  wire::put_str(out, "graph");
  wire::put_str(out, r.graph);
  wire::put_str(out, "key");
  to_wire(r.key, out);
  wire::put_str(out, "location");
  wire::put_str(out, r.location);
  wire::put_str(out, "stimulus");
  wire::put_str(out, r.stimulus);
  wire::put_str(out, "time");
  wire::put_double(out, r.time);
  wire::put_str(out, "to");
  wire::put_str(out, r.to_state);
}

TransitionRecord transition_from_json(const json::Value& v) {
  TransitionRecord r;
  r.key = parse_key(v.at("key"));
  r.graph = v.at("graph").as_string();
  r.from_state = v.at("from").as_string();
  r.to_state = v.at("to").as_string();
  r.stimulus = v.at("stimulus").as_string();
  r.location = v.at("location").as_string();
  r.time = v.at("time").as_double();
  return r;
}

json::Value to_json(const TaskRecord& r) {
  json::Object o;
  o["key"] = to_json(r.key);
  o["graph"] = r.graph;
  o["prefix"] = r.prefix;
  o["worker"] = static_cast<std::int64_t>(r.worker);
  o["worker_address"] = r.worker_address;
  o["thread_id"] = r.thread_id;
  o["lane"] = static_cast<std::int64_t>(r.lane);
  o["received_time"] = r.received_time;
  o["ready_time"] = r.ready_time;
  o["start_time"] = r.start_time;
  o["end_time"] = r.end_time;
  o["compute_time"] = r.compute_time;
  o["io_time"] = r.io_time;
  o["gpu_time"] = r.gpu_time;
  o["output_bytes"] = r.output_bytes;
  o["bytes_read"] = r.bytes_read;
  o["bytes_written"] = r.bytes_written;
  o["bytes_oob"] = r.bytes_oob;
  o["bytes_inline"] = r.bytes_inline;
  o["retries"] = static_cast<std::int64_t>(r.retries);
  o["stolen"] = r.stolen;
  json::Array deps;
  for (const auto& dep : r.dependencies) deps.push_back(to_json(dep));
  o["dependencies"] = std::move(deps);
  return json::Value(std::move(o));
}

void to_wire(const TaskRecord& r, std::string& out) {
  wire::put_object(out, 22);
  wire::put_str(out, "bytes_inline");
  wire::put_int(out, static_cast<std::int64_t>(r.bytes_inline));
  wire::put_str(out, "bytes_oob");
  wire::put_int(out, static_cast<std::int64_t>(r.bytes_oob));
  wire::put_str(out, "bytes_read");
  wire::put_int(out, static_cast<std::int64_t>(r.bytes_read));
  wire::put_str(out, "bytes_written");
  wire::put_int(out, static_cast<std::int64_t>(r.bytes_written));
  wire::put_str(out, "compute_time");
  wire::put_double(out, r.compute_time);
  wire::put_str(out, "dependencies");
  wire::put_array(out, r.dependencies.size());
  for (const auto& dep : r.dependencies) to_wire(dep, out);
  wire::put_str(out, "end_time");
  wire::put_double(out, r.end_time);
  wire::put_str(out, "gpu_time");
  wire::put_double(out, r.gpu_time);
  wire::put_str(out, "graph");
  wire::put_str(out, r.graph);
  wire::put_str(out, "io_time");
  wire::put_double(out, r.io_time);
  wire::put_str(out, "key");
  to_wire(r.key, out);
  wire::put_str(out, "lane");
  wire::put_int(out, static_cast<std::int64_t>(r.lane));
  wire::put_str(out, "output_bytes");
  wire::put_int(out, static_cast<std::int64_t>(r.output_bytes));
  wire::put_str(out, "prefix");
  wire::put_str(out, r.prefix);
  wire::put_str(out, "ready_time");
  wire::put_double(out, r.ready_time);
  wire::put_str(out, "received_time");
  wire::put_double(out, r.received_time);
  wire::put_str(out, "retries");
  wire::put_int(out, static_cast<std::int64_t>(r.retries));
  wire::put_str(out, "start_time");
  wire::put_double(out, r.start_time);
  wire::put_str(out, "stolen");
  wire::put_bool(out, r.stolen);
  wire::put_str(out, "thread_id");
  wire::put_int(out, static_cast<std::int64_t>(r.thread_id));
  wire::put_str(out, "worker");
  wire::put_int(out, static_cast<std::int64_t>(r.worker));
  wire::put_str(out, "worker_address");
  wire::put_str(out, r.worker_address);
}

TaskRecord task_from_json(const json::Value& v) {
  TaskRecord r;
  r.key = parse_key(v.at("key"));
  r.graph = v.at("graph").as_string();
  r.prefix = v.at("prefix").as_string();
  r.worker = static_cast<WorkerId>(v.at("worker").as_int());
  r.worker_address = v.at("worker_address").as_string();
  r.thread_id = static_cast<std::uint64_t>(v.at("thread_id").as_int());
  r.lane = static_cast<std::uint32_t>(v.at("lane").as_int());
  r.received_time = v.at("received_time").as_double();
  r.ready_time = v.at("ready_time").as_double();
  r.start_time = v.at("start_time").as_double();
  r.end_time = v.at("end_time").as_double();
  r.compute_time = v.at("compute_time").as_double();
  r.io_time = v.at("io_time").as_double();
  r.gpu_time = v.get_double("gpu_time", 0.0);
  r.output_bytes = static_cast<std::uint64_t>(v.at("output_bytes").as_int());
  r.bytes_read = static_cast<std::uint64_t>(v.at("bytes_read").as_int());
  r.bytes_written =
      static_cast<std::uint64_t>(v.at("bytes_written").as_int());
  // Defaulted: records journaled before the out-of-band data plane.
  r.bytes_oob = static_cast<std::uint64_t>(v.get_int("bytes_oob", 0));
  r.bytes_inline = static_cast<std::uint64_t>(v.get_int("bytes_inline", 0));
  r.retries = static_cast<std::uint32_t>(v.at("retries").as_int());
  r.stolen = v.at("stolen").as_bool();
  if (v.contains("dependencies")) {
    for (const auto& dep : v.at("dependencies").as_array()) {
      r.dependencies.push_back(parse_key(dep));
    }
  }
  return r;
}

json::Value to_json(const CommRecord& r) {
  json::Object o;
  o["key"] = to_json(r.key);
  o["source"] = static_cast<std::int64_t>(r.source);
  o["destination"] = static_cast<std::int64_t>(r.destination);
  o["source_address"] = r.source_address;
  o["destination_address"] = r.destination_address;
  o["bytes"] = r.bytes;
  o["start"] = r.start;
  o["end"] = r.end;
  o["cross_node"] = r.cross_node;
  o["cold_connection"] = r.cold_connection;
  o["oob"] = r.oob;
  return json::Value(std::move(o));
}

CommRecord comm_from_json(const json::Value& v) {
  CommRecord r;
  r.key = parse_key(v.at("key"));
  r.source = static_cast<WorkerId>(v.at("source").as_int());
  r.destination = static_cast<WorkerId>(v.at("destination").as_int());
  r.source_address = v.at("source_address").as_string();
  r.destination_address = v.at("destination_address").as_string();
  r.bytes = static_cast<std::uint64_t>(v.at("bytes").as_int());
  r.start = v.at("start").as_double();
  r.end = v.at("end").as_double();
  r.cross_node = v.at("cross_node").as_bool();
  r.cold_connection = v.at("cold_connection").as_bool();
  r.oob = v.get_bool("oob", false);
  return r;
}

json::Value to_json(const WarningRecord& r) {
  json::Object o;
  o["kind"] = r.kind;
  o["location"] = r.location;
  o["time"] = r.time;
  o["blocked_for"] = r.blocked_for;
  o["message"] = r.message;
  return json::Value(std::move(o));
}

void to_wire(const WarningRecord& r, std::string& out) {
  wire::put_object(out, 5);
  wire::put_str(out, "blocked_for");
  wire::put_double(out, r.blocked_for);
  wire::put_str(out, "kind");
  wire::put_str(out, r.kind);
  wire::put_str(out, "location");
  wire::put_str(out, r.location);
  wire::put_str(out, "message");
  wire::put_str(out, r.message);
  wire::put_str(out, "time");
  wire::put_double(out, r.time);
}

WarningRecord warning_from_json(const json::Value& v) {
  WarningRecord r;
  r.kind = v.at("kind").as_string();
  r.location = v.at("location").as_string();
  r.time = v.at("time").as_double();
  r.blocked_for = v.at("blocked_for").as_double();
  r.message = v.at("message").as_string();
  return r;
}

json::Value to_json(const StealRecord& r) {
  json::Object o;
  o["kind"] = "steal";
  o["key"] = to_json(r.key);
  o["victim"] = static_cast<std::int64_t>(r.victim);
  o["thief"] = static_cast<std::int64_t>(r.thief);
  o["time"] = r.time;
  o["estimated_transfer_cost"] = r.estimated_transfer_cost;
  o["estimated_compute_cost"] = r.estimated_compute_cost;
  return json::Value(std::move(o));
}

void to_wire(const StealRecord& r, std::string& out) {
  wire::put_object(out, 7);
  wire::put_str(out, "estimated_compute_cost");
  wire::put_double(out, r.estimated_compute_cost);
  wire::put_str(out, "estimated_transfer_cost");
  wire::put_double(out, r.estimated_transfer_cost);
  wire::put_str(out, "key");
  to_wire(r.key, out);
  wire::put_str(out, "kind");
  wire::put_str(out, "steal");
  wire::put_str(out, "thief");
  wire::put_int(out, static_cast<std::int64_t>(r.thief));
  wire::put_str(out, "time");
  wire::put_double(out, r.time);
  wire::put_str(out, "victim");
  wire::put_int(out, static_cast<std::int64_t>(r.victim));
}

StealRecord steal_from_json(const json::Value& v) {
  StealRecord r;
  r.key = parse_key(v.at("key"));
  r.victim = static_cast<WorkerId>(v.at("victim").as_int());
  r.thief = static_cast<WorkerId>(v.at("thief").as_int());
  r.time = v.at("time").as_double();
  r.estimated_transfer_cost = v.at("estimated_transfer_cost").as_double();
  r.estimated_compute_cost = v.at("estimated_compute_cost").as_double();
  return r;
}

MofkaSchedulerPlugin::MofkaSchedulerPlugin(mofka::Broker& broker,
                                           mofka::ProducerConfig config)
    : transitions_(broker, kTransitions, config),
      cluster_(broker, kCluster, config),
      warnings_(broker, kWarnings, config) {}

void MofkaSchedulerPlugin::on_graph_received(const std::string& graph_name,
                                             std::size_t task_count,
                                             TimePoint time) {
  json::Object o;
  o["kind"] = "graph-received";
  o["graph"] = graph_name;
  o["tasks"] = task_count;
  o["time"] = time;
  cluster_.push(json::Value(std::move(o)));
}

void MofkaSchedulerPlugin::on_transition(const TransitionRecord& record) {
  transitions_.push(to_json(record));
}

void MofkaSchedulerPlugin::on_worker_added(WorkerId worker,
                                           const std::string& address,
                                           TimePoint time) {
  json::Object o;
  o["kind"] = "worker-added";
  o["worker"] = static_cast<std::int64_t>(worker);
  o["address"] = address;
  o["time"] = time;
  cluster_.push(json::Value(std::move(o)));
}

void MofkaSchedulerPlugin::on_worker_removed(WorkerId worker,
                                             const std::string& address,
                                             TimePoint time) {
  json::Object o;
  o["kind"] = "worker-removed";
  o["worker"] = static_cast<std::int64_t>(worker);
  o["address"] = address;
  o["time"] = time;
  cluster_.push(json::Value(std::move(o)));
}

void MofkaSchedulerPlugin::on_steal(const StealRecord& record) {
  cluster_.push(to_json(record));
}

void MofkaSchedulerPlugin::on_warning(const WarningRecord& record) {
  warnings_.push(to_json(record));
}

void MofkaSchedulerPlugin::flush() {
  transitions_.flush();
  cluster_.flush();
  warnings_.flush();
}

MofkaWorkerPlugin::MofkaWorkerPlugin(mofka::Broker& broker,
                                     mofka::ProducerConfig config)
    : transitions_(broker, kTransitions, config),
      tasks_(broker, kTasks, config),
      comms_(broker, kComms, config),
      warnings_(broker, kWarnings, config) {}

void MofkaWorkerPlugin::on_transition(const TransitionRecord& record) {
  transitions_.push(to_json(record));
}

void MofkaWorkerPlugin::on_task_done(const TaskRecord& record) {
  tasks_.push(to_json(record));
}

void MofkaWorkerPlugin::on_incoming_transfer(const CommRecord& record) {
  comms_.push(to_json(record));
}

void MofkaWorkerPlugin::on_warning(const WarningRecord& record) {
  warnings_.push(to_json(record));
}

void MofkaWorkerPlugin::flush() {
  transitions_.flush();
  tasks_.flush();
  comms_.flush();
  warnings_.flush();
}

}  // namespace recup::dtr
