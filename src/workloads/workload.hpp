// Workload abstraction: a cluster configuration, a synthetic dataset, and
// the task graphs of one of the paper's three workflows (§IV-B). Workflows
// differ exactly along the axes the paper lists: data type and size; type,
// size, and number of tasks; automatic vs manual task creation; and whether
// graphs are submitted step by step or all at once.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "dtr/cluster.hpp"
#include "dtr/task.hpp"

namespace recup::workloads {

struct Workload {
  std::string name;
  dtr::ClusterConfig cluster;
  /// Registers the synthetic input dataset in the cluster's VFS.
  std::function<void(dtr::Vfs&)> prepare;
  /// Builds the run's task graphs (seeded: graph *structure* is fixed, only
  /// stochastic details like re-read counts draw from the run seed).
  std::function<std::vector<dtr::TaskGraph>(RngStream&)> build_graphs;
};

/// Runs one instance of a workload; `run_index` perturbs the seed so
/// repeated runs vary like repeated submissions of the same job.
/// `datastore_stats`, when non-null, receives the cluster's out-of-band
/// data-plane counters (zeroes when cluster.enable_datastore is false) —
/// the cluster itself dies with this call, so the stats must be copied out.
dtr::RunData execute(const Workload& workload, std::uint32_t run_index,
                     datastore::DataStoreStats* datastore_stats = nullptr);

/// Runs `count` repetitions (run_index 0..count-1).
std::vector<dtr::RunData> execute_runs(const Workload& workload,
                                       std::uint32_t count);

}  // namespace recup::workloads
