// Client: creates and submits task graphs to the scheduler (paper §III-A).
// Also models the workflow-coordination overhead the paper's Figure 3
// discussion attributes the ImageProcessing/ResNet152 total-time gap to:
// "connecting to the scheduler, waiting for workers, creating the task
// graph".
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "dtr/scheduler.hpp"
#include "dtr/task.hpp"
#include "sim/engine.hpp"

namespace recup::dtr {

class Client {
 public:
  Client(sim::Engine& engine, Scheduler& scheduler, RngStream rng,
         LogCollector& logs);

  /// Connects, waits for `worker_count` workers, builds and submits the
  /// graphs strictly in sequence (graph i+1 is submitted only after graph i
  /// completes — the ImageProcessing pattern whose inter-graph barriers
  /// cause the bursty I/O of Figure 4), then fires `on_all_done`.
  void run(std::vector<TaskGraph> graphs, std::size_t worker_count,
           std::function<void()> on_all_done);

  /// Time spent before the first graph was submitted (coordination).
  [[nodiscard]] Duration coordination_time() const {
    return coordination_time_;
  }

 private:
  void submit_next(std::size_t index);

  sim::Engine& engine_;
  Scheduler& scheduler_;
  RngStream rng_;
  LogCollector& logs_;
  std::vector<TaskGraph> graphs_;
  std::function<void()> on_all_done_;
  Duration coordination_time_ = 0.0;
};

}  // namespace recup::dtr
