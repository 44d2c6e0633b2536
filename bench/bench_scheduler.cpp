// Scheduler throughput bench (DESIGN.md §11): drives a simulated 100-node
// x 1000-worker cluster through waves of tasks and measures scheduler
// state-machine transitions per wall-clock second, once plain and once with
// the durable journal on. The plain run must sustain >= 100k
// transitions/sec; both rates feed the perf trajectory gate.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "dtr/scheduler.hpp"
#include "dtr/task.hpp"
#include "dtr/vfs.hpp"
#include "dtr/worker.hpp"
#include "platform/network.hpp"
#include "platform/pfs.hpp"
#include "platform/topology.hpp"
#include "sim/engine.hpp"

namespace {

using namespace recup;
using namespace recup::dtr;

constexpr std::size_t kNodes = 100;
constexpr std::size_t kWorkersPerNode = 10;  // 1000 workers
constexpr std::size_t kThreads = 4;
constexpr std::size_t kWaves = 8;
constexpr std::size_t kTasksPerWave = 6000;  // below saturation (8000 slots)
constexpr std::size_t kGroupsPerWave = 64;   // many distinct task groups

struct BenchResult {
  std::string label;
  double wall_s = 0.0;
  std::size_t transitions = 0;
  double per_sec = 0.0;
  std::size_t journal_frames = 0;
  std::size_t journal_records = 0;
};

TaskGraph make_wave(std::size_t wave) {
  TaskGraph graph("wave-" + std::to_string(wave));
  for (std::size_t i = 0; i < kTasksPerWave; ++i) {
    TaskSpec t;
    t.key = {"w" + std::to_string(wave) + "g" +
                 std::to_string(i % kGroupsPerWave) + "-bench00",
             static_cast<std::int64_t>(i)};
    t.work.compute = 0.001;
    t.work.output_bytes = 1024;
    graph.add_task(t);
  }
  return graph;
}

BenchResult run_config(const std::string& label, bool durable) {
  sim::Engine engine;
  LogCollector logs;
  platform::Topology topology = platform::make_polaris_like(kNodes);
  platform::Network network(engine, topology, platform::NetworkConfig{},
                            RngStream(11));
  platform::Pfs pfs(engine, platform::PfsConfig{}, RngStream(22));
  Vfs vfs(engine, pfs);
  SchedulerConfig config;
  config.work_stealing = false;  // measure the dispatch/completion path
  Scheduler scheduler(engine, network, config, RngStream(33), logs);
  WorkerConfig worker_config;
  worker_config.nthreads = kThreads;
  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(kNodes * kWorkersPerNode);
  for (std::size_t i = 0; i < kNodes * kWorkersPerNode; ++i) {
    const auto node = static_cast<platform::NodeId>(i / kWorkersPerNode);
    workers.push_back(std::make_unique<Worker>(
        engine, network, vfs, static_cast<WorkerId>(i), node,
        "tcp://10.9." + std::to_string(node) + ".2:" + std::to_string(9000 + i),
        worker_config, RngStream(1000 + i), logs, darshan::RuntimeConfig{}));
    scheduler.add_worker(workers.back().get());
  }

  const auto wal_dir =
      std::filesystem::temp_directory_path() / "recup_bench_scheduler_wal";
  if (durable) {
    std::filesystem::remove_all(wal_dir);
    SchedulerDurability durability;
    durability.dir = wal_dir.string();
    scheduler.enable_durability(durability);
  }

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    scheduler.submit_graph(make_wave(wave), [](const std::string&) {});
    engine.run();
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;

  BenchResult result;
  result.label = label;
  result.wall_s = wall.count();
  result.transitions = scheduler.transitions().size();
  result.per_sec = static_cast<double>(result.transitions) / result.wall_s;
  result.journal_frames = scheduler.journal_frames();
  result.journal_records = scheduler.journal_records();
  if (durable) std::filesystem::remove_all(wal_dir);
  std::fprintf(stderr,
               "  %-8s %8.3fs  %9zu transitions  %12.0f /s  "
               "(frames=%zu/%zu)\n",
               label.c_str(), result.wall_s, result.transitions,
               result.per_sec, result.journal_frames, result.journal_records);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using recup::bench::add_headline;
  const recup::bench::Options opt = recup::bench::parse_options(argc, argv);

  std::fprintf(stderr, "bench_scheduler: %zu workers, %zu tasks\n",
               kNodes * kWorkersPerNode, kWaves * kTasksPerWave);

  const BenchResult r_plain = run_config("plain", /*durable=*/false);
  const BenchResult r_durable = run_config("durable", /*durable=*/true);

  std::string csv = "config,wall_s,transitions,transitions_per_sec\n";
  for (const BenchResult* r : {&r_plain, &r_durable}) {
    csv += r->label + "," + std::to_string(r->wall_s) + "," +
           std::to_string(r->transitions) + "," + std::to_string(r->per_sec) +
           "\n";
  }
  recup::bench::write_csv(opt, "scheduler_throughput.csv", csv);

  // Wall-clock throughput on a shared box jitters; the wide noise gates
  // still catch order-of-magnitude regressions.
  add_headline("scheduler_transitions_per_sec", r_plain.per_sec,
               "transitions/s", /*higher_is_better=*/true,
               /*noise_pct=*/40.0);
  add_headline("scheduler_durable_transitions_per_sec", r_durable.per_sec,
               "transitions/s", /*higher_is_better=*/true,
               /*noise_pct=*/40.0);
  recup::bench::write_bench_json("scheduler");

  if (r_plain.per_sec < 100000.0) {
    std::fprintf(stderr,
                 "FAIL: scheduler sustained %.0f transitions/s "
                 "(< 100000 required)\n",
                 r_plain.per_sec);
    return 1;
  }
  std::fprintf(stderr, "OK: %.0f transitions/s (>= 100000)\n",
               r_plain.per_sec);
  return 0;
}
