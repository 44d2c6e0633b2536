#include "dtr/client.hpp"

#include <algorithm>

namespace recup::dtr {

namespace {

/// Median client->scheduler connection time.
constexpr Duration kConnectMedian = 2.0;
constexpr double kConnectSigma = 0.3;
/// Median per-worker connection time (workers connect in parallel; the
/// client waits for all of them). On HPC systems worker processes spawn
/// through the batch environment, so this is seconds, not milliseconds —
/// the dominant coordination cost for ~100 s workflows (Figure 3).
constexpr Duration kWorkerConnectMedian = 6.0;
constexpr double kWorkerConnectSigma = 0.4;
/// Graph construction + serialization cost per task (Python-side graph
/// building and msgpack serialization).
constexpr Duration kGraphBuildPerTask = 1.0e-3;
constexpr double kGraphBuildSigma = 0.2;
/// Latency of the submit RPC itself.
constexpr Duration kSubmitLatency = 1.0e-3;

}  // namespace

Client::Client(sim::Engine& engine, Scheduler& scheduler, RngStream rng,
               LogCollector& logs)
    : engine_(engine), scheduler_(scheduler), rng_(rng), logs_(logs) {}

void Client::run(std::vector<TaskGraph> graphs, std::size_t worker_count,
                 std::function<void()> on_all_done) {
  graphs_ = std::move(graphs);
  on_all_done_ = std::move(on_all_done);

  // Startup: client connect and worker connects proceed in parallel; the
  // run starts when the slowest participant is up.
  Duration ready_after = rng_.lognormal(kConnectMedian, kConnectSigma);
  for (std::size_t i = 0; i < worker_count; ++i) {
    ready_after = std::max(
        ready_after, rng_.lognormal(kWorkerConnectMedian, kWorkerConnectSigma));
  }
  coordination_time_ = ready_after;
  logs_.log(LogLevel::kInfo, "client",
            "waiting for " + std::to_string(worker_count) + " workers");
  engine_.schedule_after(ready_after, [this] { submit_next(0); });
}

void Client::submit_next(std::size_t index) {
  if (index >= graphs_.size()) {
    logs_.log(LogLevel::kInfo, "client", "all graphs complete");
    if (on_all_done_) on_all_done_();
    return;
  }
  const TaskGraph& graph = graphs_[index];
  const double tasks =
      static_cast<double>(std::max<std::size_t>(graph.size(), 1));
  const Duration build =
      rng_.lognormal(kGraphBuildPerTask * tasks, kGraphBuildSigma) +
      kSubmitLatency;
  coordination_time_ += build;
  engine_.schedule_after(build, [this, index] {
    const TaskGraph& g = graphs_[index];
    logs_.log(LogLevel::kInfo, "client", "submitting graph " + g.name());
    scheduler_.submit_graph(
        g, [this, index](const std::string&) { submit_next(index + 1); });
  });
}

}  // namespace recup::dtr
