#include "dtr/mofka_plugins.hpp"

namespace recup::dtr {
namespace {

constexpr const char* kTransitions = "wms_transitions";
constexpr const char* kTasks = "wms_tasks";
constexpr const char* kComms = "wms_comms";
constexpr const char* kWarnings = "wms_warnings";
constexpr const char* kCluster = "wms_cluster";

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
