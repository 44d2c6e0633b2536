// Dask–Mofka plugins (paper §III-E2): scheduler and worker plugins that
// intercept runtime events and stream them as Mofka events. Metadata is the
// JSON part of each event, written as wire bytes straight from the record's
// field list (dtr/schema.hpp); topics separate the record kinds so the
// analysis consumer can subscribe selectively.
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
#include "dtr/schema.hpp"
#include "mofka/broker.hpp"
#include "mofka/producer.hpp"

namespace recup::dtr {

/// Creates the five WMS topics on a broker (idempotent per topic name).
void create_wms_topics(mofka::Broker& broker,
                       mofka::PartitionIndex partitions = 1);

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
