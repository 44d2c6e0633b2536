#include "dtr/mofka_plugins.hpp"

#include "wire/codec.hpp"

namespace recup::dtr {
namespace {

constexpr const char* kTransitions = "wms_transitions";
constexpr const char* kTasks = "wms_tasks";
constexpr const char* kComms = "wms_comms";
constexpr const char* kWarnings = "wms_warnings";
constexpr const char* kCluster = "wms_cluster";

/// A worker-added/-removed event on wms_cluster, keys in ascending order.
std::string worker_event(const char* kind, WorkerId worker,
                         const std::string& address, TimePoint time) {
  std::string out;
  wire::put_object(out, 4);
  wire::put_str(out, "address");
  wire::put_str(out, address);
  wire::put_str(out, "kind");
  wire::put_str(out, kind);
  wire::put_str(out, "time");
  wire::put_double(out, time);
  wire::put_str(out, "worker");
  wire::put_int(out, static_cast<std::int64_t>(worker));
  return out;
}

}  // namespace

void create_wms_topics(mofka::Broker& broker,
                       mofka::PartitionIndex partitions) {
  for (const char* name :
       {kTransitions, kTasks, kComms, kWarnings, kCluster}) {
    if (!broker.topic_exists(name)) {
      broker.create_topic(name, partitions);
    }
  }
}

MofkaSchedulerPlugin::MofkaSchedulerPlugin(mofka::Broker& broker,
                                           mofka::ProducerConfig config)
    : transitions_(broker, kTransitions, config),
      cluster_(broker, kCluster, config),
      warnings_(broker, kWarnings, config) {}

void MofkaSchedulerPlugin::on_graph_received(const std::string& graph_name,
                                             std::size_t task_count,
                                             TimePoint time) {
  std::string out;
  wire::put_object(out, 4);
  wire::put_str(out, "graph");
  wire::put_str(out, graph_name);
  wire::put_str(out, "kind");
  wire::put_str(out, "graph-received");
  wire::put_str(out, "tasks");
  wire::put_int(out, static_cast<std::int64_t>(task_count));
  wire::put_str(out, "time");
  wire::put_double(out, time);
  cluster_.push_wire(std::move(out));
}

void MofkaSchedulerPlugin::on_transition(const TransitionRecord& record) {
  transitions_.push_wire(to_wire(record));
}

void MofkaSchedulerPlugin::on_worker_added(WorkerId worker,
                                           const std::string& address,
                                           TimePoint time) {
  cluster_.push_wire(worker_event("worker-added", worker, address, time));
}

void MofkaSchedulerPlugin::on_worker_removed(WorkerId worker,
                                             const std::string& address,
                                             TimePoint time) {
  cluster_.push_wire(worker_event("worker-removed", worker, address, time));
}

void MofkaSchedulerPlugin::on_steal(const StealRecord& record) {
  cluster_.push_wire(to_wire(record));
}

void MofkaSchedulerPlugin::on_warning(const WarningRecord& record) {
  warnings_.push_wire(to_wire(record));
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
  transitions_.push_wire(to_wire(record));
}

void MofkaWorkerPlugin::on_task_done(const TaskRecord& record) {
  tasks_.push_wire(to_wire(record));
}

void MofkaWorkerPlugin::on_incoming_transfer(const CommRecord& record) {
  comms_.push_wire(to_wire(record));
}

void MofkaWorkerPlugin::on_warning(const WarningRecord& record) {
  warnings_.push_wire(to_wire(record));
}

void MofkaWorkerPlugin::flush() {
  transitions_.flush();
  tasks_.flush();
  comms_.flush();
  warnings_.flush();
}

}  // namespace recup::dtr
