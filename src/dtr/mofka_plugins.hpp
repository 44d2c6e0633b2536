// Dask–Mofka plugins (paper §III-E2): scheduler and worker plugins that
// intercept runtime events and stream them as Mofka events. Metadata is the
// JSON part of each event; topics separate the record kinds so the analysis
// consumer can subscribe selectively.
//
// Topics produced:
//   wms_transitions — every task state transition (both sides)
//   wms_tasks       — completed-task summaries
//   wms_comms       — incoming inter-worker transfers
//   wms_warnings    — event-loop / GC warnings
//   wms_cluster     — graph submissions, worker add/remove, steals
#pragma once

#include <memory>
#include <string>

#include "dtr/plugins.hpp"
#include "mofka/broker.hpp"
#include "mofka/producer.hpp"

namespace recup::dtr {

/// Creates the five WMS topics on a broker (idempotent per topic name).
void create_wms_topics(mofka::Broker& broker,
                       mofka::PartitionIndex partitions = 1);

json::Value to_json(const TransitionRecord& record);
json::Value to_json(const TaskRecord& record);
json::Value to_json(const CommRecord& record);
json::Value to_json(const WarningRecord& record);
json::Value to_json(const StealRecord& record);

/// Wire writers for the scheduler journal: each appends the bytes of
/// wire::encode_value(to_json(record)) without building the tree.
void to_wire(const TransitionRecord& record, std::string& out);
void to_wire(const TaskRecord& record, std::string& out);
void to_wire(const WarningRecord& record, std::string& out);
void to_wire(const StealRecord& record, std::string& out);

TransitionRecord transition_from_json(const json::Value& v);
TaskRecord task_from_json(const json::Value& v);
CommRecord comm_from_json(const json::Value& v);
WarningRecord warning_from_json(const json::Value& v);
StealRecord steal_from_json(const json::Value& v);

class MofkaSchedulerPlugin final : public SchedulerPlugin {
 public:
  explicit MofkaSchedulerPlugin(mofka::Broker& broker,
                                mofka::ProducerConfig config = {});

  void on_graph_received(const std::string& graph_name,
                         std::size_t task_count, TimePoint time) override;
  void on_transition(const TransitionRecord& record) override;
  void on_worker_added(WorkerId worker, const std::string& address,
                       TimePoint time) override;
  void on_worker_removed(WorkerId worker, const std::string& address,
                         TimePoint time) override;
  void on_steal(const StealRecord& record) override;
  void on_warning(const WarningRecord& record) override;

  void flush();

 private:
  mofka::Producer transitions_;
  mofka::Producer cluster_;
  mofka::Producer warnings_;
};

class MofkaWorkerPlugin final : public WorkerPlugin {
 public:
  explicit MofkaWorkerPlugin(mofka::Broker& broker,
                             mofka::ProducerConfig config = {});

  void on_transition(const TransitionRecord& record) override;
  void on_task_done(const TaskRecord& record) override;
  void on_incoming_transfer(const CommRecord& record) override;
  void on_warning(const WarningRecord& record) override;

  void flush();

 private:
  mofka::Producer transitions_;
  mofka::Producer tasks_;
  mofka::Producer comms_;
  mofka::Producer warnings_;
};

}  // namespace recup::dtr
