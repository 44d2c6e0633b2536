// Plugin interfaces mirroring distributed's SchedulerPlugin / WorkerPlugin.
// The paper's contribution hooks these call sites to stream provenance to
// Mofka without modifying the scheduler/worker logic itself (§III-E2: "Their
// primary function is to intercept specific calls within the classes and
// extract pertinent data from the ongoing events").
#pragma once

#include <string>

#include "dtr/records.hpp"

namespace recup::dtr {

class SchedulerPlugin {
 public:
  virtual ~SchedulerPlugin() = default;
  virtual void on_graph_received(const std::string& graph_name,
                                 std::size_t task_count, TimePoint time) {
    (void)graph_name;
    (void)task_count;
    (void)time;
  }
  virtual void on_transition(const TransitionRecord& record) { (void)record; }
  virtual void on_worker_added(WorkerId worker, const std::string& address,
                               TimePoint time) {
    (void)worker;
    (void)address;
    (void)time;
  }
  virtual void on_worker_removed(WorkerId worker, const std::string& address,
                                 TimePoint time) {
    (void)worker;
    (void)address;
    (void)time;
  }
  virtual void on_steal(const StealRecord& record) { (void)record; }
  /// Scheduler-side warnings (e.g. dead-lettered tasks whose retry or
  /// resubmission budget ran out).
  virtual void on_warning(const WarningRecord& record) { (void)record; }
};

class WorkerPlugin {
 public:
  virtual ~WorkerPlugin() = default;
  virtual void on_transition(const TransitionRecord& record) { (void)record; }
  virtual void on_task_done(const TaskRecord& record) { (void)record; }
  virtual void on_incoming_transfer(const CommRecord& record) {
    (void)record;
  }
  virtual void on_warning(const WarningRecord& record) { (void)record; }
};

}  // namespace recup::dtr
