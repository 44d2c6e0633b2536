// Shared fixture utilities for task-runtime tests: a hand-wired miniature
// cluster (engine + platform + scheduler + workers, no client) for direct
// scheduler/worker testing, plus graph builders.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dtr/scheduler.hpp"
#include "dtr/task.hpp"
#include "dtr/vfs.hpp"
#include "dtr/worker.hpp"
#include "platform/network.hpp"
#include "platform/pfs.hpp"
#include "platform/topology.hpp"
#include "sim/engine.hpp"

namespace recup::dtr::testing {

struct MiniCluster {
  explicit MiniCluster(std::size_t nodes = 2, std::size_t workers_per_node = 2,
                       std::size_t nthreads = 2,
                       WorkerConfig worker_config = {},
                       SchedulerConfig scheduler_config = {})
      : topology(platform::make_polaris_like(nodes)),
        network(engine, topology, platform::NetworkConfig{}, RngStream(101)),
        pfs(engine, platform::PfsConfig{}, RngStream(202)),
        vfs(engine, pfs),
        scheduler(engine, network, scheduler_config, RngStream(303), logs) {
    worker_config.nthreads = nthreads;
    for (std::size_t i = 0; i < nodes * workers_per_node; ++i) {
      const auto node = static_cast<platform::NodeId>(i / workers_per_node);
      workers.push_back(std::make_unique<Worker>(
          engine, network, vfs, static_cast<WorkerId>(i), node,
          "tcp://10.0." + std::to_string(node) + ".2:" + std::to_string(9000 + i),
          worker_config, RngStream(1000 + i), logs,
          darshan::RuntimeConfig{}));
      scheduler.add_worker(workers.back().get());
    }
  }

  /// Submits the graph and runs the engine until it drains. Returns true if
  /// every task reached memory.
  bool run_graph(const TaskGraph& graph) {
    bool done = false;
    // Stop the scheduler from inside the completion callback so its
    // periodic stealing loop stops rescheduling and the engine can drain.
    scheduler.submit_graph(graph, [&](const std::string&) {
      done = true;
      scheduler.stop();
    });
    scheduler.start_stealing_loop();
    engine.run();
    return done;
  }

  sim::Engine engine;
  LogCollector logs;
  platform::Topology topology;
  platform::Network network;
  platform::Pfs pfs;
  Vfs vfs;
  Scheduler scheduler;
  std::vector<std::unique_ptr<Worker>> workers;
};

/// Builds a diamond graph: a -> (b, c) -> d.
inline TaskGraph diamond_graph(double compute = 0.01,
                               std::uint64_t output = 1 << 20) {
  TaskGraph g("diamond");
  TaskSpec a;
  a.key = {"source-abc123", 0};
  a.work.compute = compute;
  a.work.output_bytes = output;
  g.add_task(a);
  for (int i = 0; i < 2; ++i) {
    TaskSpec mid;
    mid.key = {"middle-abc123", i};
    mid.dependencies.push_back(a.key);
    mid.work.compute = compute;
    mid.work.output_bytes = output;
    g.add_task(mid);
  }
  TaskSpec d;
  d.key = {"sink-abc123", 0};
  d.dependencies.push_back({"middle-abc123", 0});
  d.dependencies.push_back({"middle-abc123", 1});
  d.work.compute = compute;
  d.work.output_bytes = output / 4;
  g.add_task(d);
  return g;
}

/// Builds `n` independent tasks.
inline TaskGraph independent_graph(std::size_t n, double compute = 0.01,
                                   std::uint64_t output = 1024) {
  TaskGraph g("independent");
  for (std::size_t i = 0; i < n; ++i) {
    TaskSpec t;
    t.key = {"embarrassing-def456", static_cast<std::int64_t>(i)};
    t.work.compute = compute;
    t.work.output_bytes = output;
    g.add_task(t);
  }
  return g;
}

}  // namespace recup::dtr::testing
