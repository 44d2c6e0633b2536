// scheduler_waves: the zero-work task-wave trick of "Runtime vs Scheduler:
// Analyzing Dask's Overheads". A simulated 100-node x 10-worker x 4-thread
// cluster runs 8 waves of 6,000 tasks of 1 ms compute through a scheduler
// with the default SchedulerConfig, durability on and no plugins, so the
// scheduler state machine and its journal do nearly all the work. Each unit
// is one such run on a freshly built cluster.
#include <filesystem>
#include <memory>

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
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace recup;
namespace fs = std::filesystem;

/// Nominal runs per second of --seconds (a durable 8-wave run plus its
/// set-up and teardown takes about 4 s on a 4-core Xeon at 2.1 GHz).
constexpr double kUnitsPerSecond = 0.25;
constexpr std::size_t kMinUnits = 3;
constexpr std::size_t kSetupRepeats = 8;
constexpr std::size_t kWorkersPerNode = 10;
constexpr std::size_t kThreads = 4;
constexpr std::size_t kGroupsPerWave = 64;
/// Scheduler transitions of one task on this path: released -> waiting ->
/// processing -> memory.
constexpr std::size_t kTransitionsPerTask = 3;

struct Shape {
  std::size_t nodes;
  std::size_t waves;
  std::size_t tasks_per_wave;  ///< below the 8,000-slot saturation point
};

Shape shape_for(const Options& options) {
  return options.size == Size::kTiny ? Shape{4, 2, 100} : Shape{100, 8, 6000};
}

/// Everything a wave run needs, built in dependency order.
struct WaveCluster {
  WaveCluster(const Shape& shape, std::uint64_t seed)
      : topology(platform::make_polaris_like(shape.nodes)),
        network(engine, topology, platform::NetworkConfig{},
                RngStream(derive_seed(seed, 11))),
        pfs(engine, platform::PfsConfig{}, RngStream(derive_seed(seed, 22))),
        vfs(engine, pfs),
        scheduler(engine, network, dtr::SchedulerConfig{},
                  RngStream(derive_seed(seed, 33)), logs) {
    dtr::WorkerConfig worker_config;
    worker_config.nthreads = kThreads;
    const std::size_t count = shape.nodes * kWorkersPerNode;
    workers.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto node = static_cast<platform::NodeId>(i / kWorkersPerNode);
      workers.push_back(std::make_unique<dtr::Worker>(
          engine, network, vfs, static_cast<dtr::WorkerId>(i), node,
          "tcp://10.9." + std::to_string(node) + ".2:" +
              std::to_string(9000 + i),
          worker_config, RngStream(derive_seed(seed, 1000 + i)), logs,
          darshan::RuntimeConfig{}));
      scheduler.add_worker(workers.back().get());
    }
    scheduler.finalize_topology();
  }

  sim::Engine engine;
  LogCollector logs;
  platform::Topology topology;
  platform::Network network;
  platform::Pfs pfs;
  dtr::Vfs vfs;
  dtr::Scheduler scheduler;
  std::vector<std::unique_ptr<dtr::Worker>> workers;
};

/// The waves of one run. Task-group names carry a seeded token, the way
/// Dask keys carry a hash, so the seed varies key and journal bytes.
std::vector<dtr::TaskGraph> make_waves(const Shape& shape, std::uint64_t seed,
                                       std::size_t unit) {
  Rng rng(derive_seed(seed, 0x77617665ULL + (unit << 32)));  // "wave"
  static const char* const kPrefixes[] = {"inc", "add", "getitem",
                                          "sum-aggregate", "from-array"};
  std::vector<dtr::TaskGraph> waves;
  for (std::size_t wave = 0; wave < shape.waves; ++wave) {
    std::vector<std::string> groups;
    for (std::size_t g = 0; g < kGroupsPerWave; ++g) {
      std::string token;
      const std::size_t length = 8 + rng.below(9);
      for (std::size_t k = 0; k < length; ++k) {
        token += "0123456789abcdef"[rng.below(16)];
      }
      groups.push_back(std::string(kPrefixes[rng.below(5)]) + "-w" +
                       std::to_string(wave) + "-" + token);
    }
    dtr::TaskGraph graph("wave-" + std::to_string(wave));
    for (std::size_t i = 0; i < shape.tasks_per_wave; ++i) {
      dtr::TaskSpec task;
      task.key = {groups[i % kGroupsPerWave], static_cast<std::int64_t>(i)};
      task.work.compute = 0.001;
      task.work.output_bytes = 1024;
      graph.add_task(task);
    }
    waves.push_back(std::move(graph));
  }
  return waves;
}

/// Submits each wave and drives the engine until it drains, one span per
/// wave.
void run_waves(WaveCluster& cluster, const std::vector<dtr::TaskGraph>& waves,
               Tracer& tracer, const char* wave_span) {
  for (const dtr::TaskGraph& wave : waves) {
    auto span = tracer.span(wave_span);
    cluster.scheduler.submit_graph(wave, [](const std::string&) {});
    cluster.engine.run();
  }
}

}  // namespace

void run_scheduler_waves(const Options& options, Tracer& tracer,
                         Report& report) {
  const Shape shape = shape_for(options);
  const std::string root = options.work_dir + "/waves";
  const std::size_t tasks = shape.waves * shape.tasks_per_wave;

  // Extra set-ups before the runs, so setup_s is a median of many samples.
  std::vector<double> setup_samples;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = Clock::now();
    const WaveCluster cluster(shape, options.seed);
    setup_samples.push_back(seconds_since(t0));
  }
  std::vector<double> store_samples;
  SplitSamples unit_samples;
  UnitLoop loop(options, tracer, kUnitsPerSecond, kMinUnits);
  while (loop.next()) {
    const std::vector<dtr::TaskGraph> waves =
        make_waves(shape, options.seed, loop.index());
    auto unit = tracer.span("unit");
    std::unique_ptr<WaveCluster> cluster;
    const auto setup_start = Clock::now();
    {
      auto span = tracer.span("dtr.setup");
      cluster = std::make_unique<WaveCluster>(shape, options.seed);
    }
    setup_samples.push_back(seconds_since(setup_start));

    const std::string dir = root + "/run-" + std::to_string(loop.index());
    dtr::SchedulerDurability durability;
    durability.dir = dir;
    cluster->scheduler.enable_durability(durability);

    const auto t0 = Clock::now();
    {
      auto span = tracer.span("dtr.run");
      run_waves(*cluster, waves, tracer, "dtr.wave");
    }
    unit_samples.add(loop.traced(), seconds_since(t0));

    // Output checks: the exact transition count, and every key in memory.
    const dtr::Scheduler& scheduler = cluster->scheduler;
    report.check(scheduler.transitions().size() == tasks * kTransitionsPerTask,
                 "transitions " + std::to_string(scheduler.transitions().size()) +
                     " == " + std::to_string(tasks * kTransitionsPerTask));
    report.check(scheduler.tasks_in_memory() == tasks,
                 "tasks in memory " +
                     std::to_string(scheduler.tasks_in_memory()) + " == " +
                     std::to_string(tasks));
    report.add("dtr.transitions",
               static_cast<double>(scheduler.transitions().size()));
    report.add("dtr.journal_frames",
               static_cast<double>(scheduler.journal_frames()));
    report.add("dtr.journal_records",
               static_cast<double>(scheduler.journal_records()));
    cluster.reset();
    store_samples.push_back(static_cast<double>(dir_bytes(dir)));
    fs::remove_all(dir);

    if (loop.traced()) {
      WaveCluster plain(shape, options.seed);
      auto span = tracer.span("dtr.nodurable_run");
      run_waves(plain, waves, tracer, "dtr.nodurable_wave");
    }
  }

  report.set("setup_s", loop.scaled(median(setup_samples)));
  report.set("unit_s", loop.scaled(median(unit_samples.all())));
  report.set("store_mb", median(store_samples) / 1e6);
  report.set("bench.units", static_cast<double>(loop.index()));
  report.set("dtr.run_s", median(tracer.sum_per_root("unit", "dtr.run")));
  report.set("dtr.nodurable_run_s",
             median(tracer.sum_per_root("unit", "dtr.nodurable_run")));
  report.set("dtr.wave_s_p50", median(tracer.durations("dtr.wave")));
  report_unit_samples(report, unit_samples);
  loop.describe(report);
}

}  // namespace perfbench
