// Microbenchmarks (google-benchmark) for the instrumentation overheads the
// paper defers to future work (§VI): Mofka producer throughput, Darshan
// hook cost, plugin on/off scheduler throughput, and analysis-engine
// operation costs.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>

#include "analysis/dataframe.hpp"
#include "json/json.hpp"
#include "analysis/readers.hpp"
#include "darshan/runtime.hpp"
#include "dtr/cluster.hpp"
#include "mochi/warabi.hpp"
#include "mochi/yokan.hpp"
#include "mofka/producer.hpp"
#include "sim/engine.hpp"

using namespace recup;

namespace {

// --- Mofka producer: events/second through batching ------------------------
void BM_MofkaProducerPush(benchmark::State& state) {
  mochi::KeyValueStore kv;
  mochi::BlobStore blobs;
  mofka::Broker broker(kv, blobs);
  broker.create_topic("t");
  mofka::Producer producer(
      broker, "t",
      mofka::ProducerConfig{static_cast<std::size_t>(state.range(0))});
  json::Object metadata;
  metadata["key"] = "('task-abc123', 7)";
  metadata["time"] = 1.25;
  const json::Value meta(std::move(metadata));
  for (auto _ : state) {
    producer.push(meta);
  }
  producer.flush();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MofkaProducerPush)->Arg(1)->Arg(16)->Arg(128)->Arg(1024);

// --- Darshan hooks: cost per instrumented POSIX call ------------------------
void BM_DarshanHookRead(benchmark::State& state) {
  darshan::Runtime rt(0, "bench-host");
  std::uint64_t offset = 0;
  for (auto _ : state) {
    rt.on_read("/data/file", 0x7f0001, offset, 4096, 0.0, 0.001);
    offset += 4096;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DarshanHookRead);

void BM_DarshanHookReadDxtDisabled(benchmark::State& state) {
  darshan::RuntimeConfig config;
  config.enable_dxt = false;
  darshan::Runtime rt(0, "bench-host", config);
  std::uint64_t offset = 0;
  for (auto _ : state) {
    rt.on_read("/data/file", 0x7f0001, offset, 4096, 0.0, 0.001);
    offset += 4096;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DarshanHookReadDxtDisabled);

// --- Whole-workflow instrumentation overhead: Mofka plugins on vs off -------
dtr::RunData run_small_workflow(bool mofka_enabled) {
  dtr::ClusterConfig config;
  config.job.nodes = 2;
  config.job.workers_per_node = 2;
  config.job.threads_per_worker = 2;
  config.seed = 99;
  config.enable_mofka = mofka_enabled;
  dtr::Cluster cluster(config);
  dtr::TaskGraph g("bench");
  for (int i = 0; i < 200; ++i) {
    dtr::TaskSpec t;
    t.key = {"bench-aa00", i};
    t.work.compute = 0.001;
    t.work.output_bytes = 1024;
    g.add_task(t);
  }
  std::vector<dtr::TaskGraph> graphs;
  graphs.push_back(std::move(g));
  return cluster.run(std::move(graphs), "bench", 0);
}

void BM_WorkflowWithMofkaPlugins(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_small_workflow(true));
  }
}
BENCHMARK(BM_WorkflowWithMofkaPlugins)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

void BM_WorkflowWithoutMofkaPlugins(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_small_workflow(false));
  }
}
BENCHMARK(BM_WorkflowWithoutMofkaPlugins)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

// --- Yokan / Warabi primitive ops --------------------------------------------
void BM_YokanPutGet(benchmark::State& state) {
  mochi::KeyValueStore kv;
  int i = 0;
  for (auto _ : state) {
    const std::string key = "t/topic/" + std::to_string(i % 4096);
    kv.put(key, "metadata-value");
    benchmark::DoNotOptimize(kv.get(key));
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_YokanPutGet);

void BM_WarabiCreateSealed(benchmark::State& state) {
  mochi::BlobStore blobs;
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(blobs.create_sealed(payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WarabiCreateSealed)->Arg(128)->Arg(4096)->Arg(65536);

// --- Discrete-event engine throughput ----------------------------------------
void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 10000; ++i) {
      engine.schedule_after(i * 1e-6, [] {});
    }
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EngineEventThroughput)->Unit(benchmark::kMillisecond);

// --- Analysis engine: fusion join cost ----------------------------------------
void BM_DataFrameGroupBy(benchmark::State& state) {
  analysis::DataFrame df({{"g", analysis::ColumnType::kString},
                          {"v", analysis::ColumnType::kDouble}});
  RngStream rng(1);
  for (int i = 0; i < state.range(0); ++i) {
    df.add_row({std::string(1, static_cast<char>('a' + i % 26)),
                rng.uniform(0, 1)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(df.group_by(
        {"g"}, {{"v", analysis::Agg::kMean, "m"},
                {"v", analysis::Agg::kStd, "s"}}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DataFrameGroupBy)->Arg(1000)->Arg(10000);

void BM_DataFrameJoin(benchmark::State& state) {
  analysis::DataFrame left({{"k", analysis::ColumnType::kInt64},
                            {"l", analysis::ColumnType::kDouble}});
  analysis::DataFrame right({{"k", analysis::ColumnType::kInt64},
                             {"r", analysis::ColumnType::kDouble}});
  for (int i = 0; i < state.range(0); ++i) {
    left.add_row({std::int64_t{i}, 1.0});
    right.add_row({std::int64_t{i}, 2.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(left.inner_join(right, {"k"}, {"k"}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DataFrameJoin)->Arg(1000)->Arg(10000);

// Mixed-type frame used by the columnar-operation benches below.
analysis::DataFrame bench_frame(std::int64_t n) {
  analysis::DataFrame df({{"k", analysis::ColumnType::kInt64},
                          {"g", analysis::ColumnType::kString},
                          {"v", analysis::ColumnType::kDouble}});
  df.reserve(static_cast<std::size_t>(n));
  RngStream rng(7);
  for (std::int64_t i = 0; i < n; ++i) {
    df.add_row({i, std::string(1, static_cast<char>('a' + i % 26)),
                rng.uniform(0, 1)});
  }
  return df;
}

void BM_DataFrameFilter(benchmark::State& state) {
  const analysis::DataFrame df = bench_frame(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        df.filter([](const analysis::DataFrame& d, std::size_t r) {
          return d.col("v").f64(r) > 0.5;
        }));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DataFrameFilter)->Arg(1000)->Arg(10000);

void BM_DataFrameSortBy(benchmark::State& state) {
  const analysis::DataFrame df = bench_frame(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(df.sort_by("v"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DataFrameSortBy)->Arg(1000)->Arg(10000);

void BM_DataFrameConcat(benchmark::State& state) {
  const analysis::DataFrame df = bench_frame(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(df.concat(df));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_DataFrameConcat)->Arg(1000)->Arg(10000);

// The task<->I/O fusion shape: segments asof-merged onto task windows by
// (worker, thread) with a valid-until bound.
void BM_DataFrameAsofMerge(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  analysis::DataFrame segments({{"tid", analysis::ColumnType::kInt64},
                                {"start", analysis::ColumnType::kDouble}});
  analysis::DataFrame tasks({{"tid", analysis::ColumnType::kInt64},
                             {"task_start", analysis::ColumnType::kDouble},
                             {"task_end", analysis::ColumnType::kDouble},
                             {"key", analysis::ColumnType::kString}});
  segments.reserve(static_cast<std::size_t>(n));
  tasks.reserve(static_cast<std::size_t>(n / 4 + 1));
  RngStream rng(11);
  for (std::int64_t i = 0; i < n; ++i) {
    segments.add_row({i % 8, rng.uniform(0, 100)});
  }
  for (std::int64_t i = 0; i < n / 4 + 1; ++i) {
    const double start = rng.uniform(0, 100);
    tasks.add_row({i % 8, start, start + 0.5,
                   "task-" + std::to_string(i)});
  }
  analysis::AsofSpec spec;
  spec.left_on = "start";
  spec.right_on = "task_start";
  spec.left_by = {"tid"};
  spec.right_by = {"tid"};
  spec.right_valid_until = "task_end";
  spec.keep_unmatched = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(segments.asof_merge(tasks, spec));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DataFrameAsofMerge)->Arg(1000)->Arg(10000);

void BM_DataFrameFromCsv(benchmark::State& state) {
  const std::string csv = bench_frame(state.range(0)).to_csv();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::DataFrame::from_csv(csv));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(csv.size()));
}
BENCHMARK(BM_DataFrameFromCsv)->Arg(1000)->Arg(10000);

}  // namespace

// Custom main (instead of benchmark_main) so the run also drops a
// machine-readable BENCH_overhead.json: a console reporter subclass keeps
// the human-readable table on stdout while collecting every benchmark's
// timings for the summary file.
namespace {

class SummaryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      json::Object row;
      row["name"] = run.benchmark_name();
      row["iterations"] = static_cast<std::int64_t>(run.iterations);
      row["real_time"] = run.GetAdjustedRealTime();
      row["cpu_time"] = run.GetAdjustedCPUTime();
      rows.emplace_back(std::move(row));
      // Stable per-benchmark headline for the perf trajectory
      // (tools/bench_trajectory matches by name across commits).
      json::Object headline;
      headline["name"] = run.benchmark_name();
      headline["value"] = run.GetAdjustedRealTime();
      headline["unit"] = "time/iter";
      headline["higher_is_better"] = false;
      headlines.emplace_back(std::move(headline));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  json::Array rows;
  json::Array headlines;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  SummaryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  json::Object doc;
  doc["bench"] = "overhead";
  doc["status"] = "ok";
  doc["benchmarks"] = std::move(reporter.rows);
  doc["headlines"] = std::move(reporter.headlines);
  std::ofstream out("BENCH_overhead.json", std::ios::trunc);
  out << json::Value(std::move(doc)).dump(2) << "\n";
  std::fprintf(stderr, "  wrote BENCH_overhead.json\n");
  return 0;
}
