// Query-service benchmark: cold vs cached latency per query shape,
// concurrent throughput as the client count grows, and the broker ingest
// path with and without the write-ahead log (durability must stay cheap).
// The store holds one executed workload run (real PERFRECUP records) so the
// scans, joins, and group-bys run over representative data.
//
//   $ ./bench_query [--queries N] [--max-clients N] [--seed S]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "dtr/mofka_plugins.hpp"
#include "mochi/warabi.hpp"
#include "mochi/yokan.hpp"
#include "mofka/broker.hpp"
#include "mofka/producer.hpp"
#include "query/client.hpp"
#include "query/plan.hpp"
#include "query/server.hpp"
#include "query/wire.hpp"
#include "segstore/store.hpp"
#include "workloads/registry.hpp"

using namespace recup;

namespace {

struct Shape {
  const char* name;
  const char* text;
};

const Shape kShapes[] = {
    {"scan_filter",
     R"({"from": "tasks",
         "where": [{"col": "duration", "op": ">", "value": 0.05}],
         "order_by": {"col": "duration", "desc": true}, "limit": 100})"},
    {"group_by",
     R"({"from": "tasks", "group_by": ["prefix"],
         "aggregates": [{"col": "duration", "op": "mean", "as": "mean_s"},
                        {"col": "key", "op": "count", "as": "n"}],
         "order_by": {"col": "mean_s", "desc": true}})"},
    {"count_distinct",
     R"({"from": "transitions", "group_by": ["to"],
         "aggregates": [{"col": "key", "op": "count_distinct", "as": "n"}]})"},
    {"fused_task_io",
     R"({"from": "task_io", "group_by": ["file", "op"],
         "aggregates": [{"col": "duration", "op": "sum", "as": "total_s"}],
         "order_by": {"col": "total_s", "desc": true}, "limit": 10})"},
};

double median_ms(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Events/s through Broker::append_frame via a real producer. An empty
/// `wal_dir` benchmarks the in-memory broker; otherwise the WAL-backed one.
double ingest_events_per_s(const std::string& wal_dir, int events) {
  mochi::KeyValueStore kv;
  mochi::BlobStore blobs;
  mofka::Broker broker(kv, blobs, wal_dir);
  broker.create_topic("ingest", 4);
  mofka::Producer producer(broker, "ingest", mofka::ProducerConfig{256});
  const auto started = std::chrono::steady_clock::now();
  for (int i = 0; i < events; ++i) {
    json::Object metadata;
    metadata["i"] = static_cast<std::int64_t>(i);
    metadata["worker"] = static_cast<std::int64_t>(i % 8);
    producer.push(json::Value(std::move(metadata)));
  }
  producer.flush();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - started;
  return static_cast<double>(events) / elapsed.count();
}

/// Wire-size ratio of JSON text to binary frames for real provenance event
/// metadata: pushes the events through a producer, then
/// compares the frame bytes the broker received against the JSON dump of
/// the exact same (sequence-stamped) events it stored.
double event_wire_ratio(const std::vector<json::Value>& events,
                        std::uint64_t* json_bytes_out,
                        std::uint64_t* wire_bytes_out) {
  mochi::KeyValueStore kv;
  mochi::BlobStore blobs;
  mofka::Broker broker(kv, blobs);
  broker.create_topic("events", 2);
  mofka::Producer producer(broker, "events", mofka::ProducerConfig{256});
  for (const json::Value& metadata : events) producer.push(metadata);
  producer.flush();
  std::uint64_t json_bytes = 0;
  for (mofka::PartitionIndex p = 0; p < 2; ++p) {
    const mofka::EventId n = broker.partition_size("events", p);
    for (mofka::EventId off = 0; off < n; ++off) {
      json_bytes += broker.fetch("events", p, off)->metadata.dump().size();
    }
  }
  const mofka::TopicStats stats = broker.topic_stats("events");
  if (json_bytes_out != nullptr) *json_bytes_out = json_bytes;
  if (wire_bytes_out != nullptr) *wire_bytes_out = stats.bytes_wire;
  return stats.bytes_wire > 0
             ? static_cast<double>(json_bytes) /
                   static_cast<double>(stats.bytes_wire)
             : 0.0;
}

/// Synthetic run for the segment-store benchmark. Runs carry disjoint
/// start_time ranges (run r: [r*10000, r*10000 + tasks)) so a selective
/// predicate can be zone-map pruned down to a single run.
dtr::RunData synth_store_run(std::uint32_t index, int tasks) {
  dtr::RunData run;
  run.meta.workflow = "bench";
  run.meta.run_index = index;
  const double base = 10000.0 * index;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL + index;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const char* prefixes[] = {"read_parquet", "train", "predict", "reduce"};
  run.tasks.reserve(static_cast<std::size_t>(tasks));
  for (int i = 0; i < tasks; ++i) {
    dtr::TaskRecord t;
    t.key = {"job-bench", i};
    t.graph = "g0";
    t.prefix = prefixes[i % 4];
    t.worker = static_cast<dtr::WorkerId>(next() % 16);
    t.worker_address = "tcp://10.0.0." + std::to_string(t.worker);
    t.thread_id = 100 + next() % 8;
    t.start_time = base + i;
    t.end_time = base + i + 0.4 + 0.2 * static_cast<double>(next() % 2);
    t.compute_time = 0.3;
    t.output_bytes = next() % (1u << 20);
    run.tasks.push_back(t);
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  int queries = 200;
  int max_clients = 8;
  std::uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      queries = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-clients") == 0 && i + 1 < argc) {
      max_clients = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    }
  }

  std::fprintf(stderr, "executing ImageProcessing run for the store ...\n");
  dtr::RunData run =
      workloads::execute(workloads::make_workload("ImageProcessing", seed), 0);
  // Snapshot realistic event metadata for the wire-size measurement before
  // the catalog takes the run.
  std::vector<json::Value> wire_events;
  wire_events.reserve(run.transitions.size() + run.tasks.size());
  for (const auto& t : run.transitions) wire_events.push_back(dtr::to_json(t));
  for (const auto& t : run.tasks) wire_events.push_back(dtr::to_json(t));
  query::StoreCatalog catalog;
  catalog.add_run(std::move(run));

  json::Array latency_rows;
  json::Array throughput_rows;

  // Cold vs cached latency. Cold is measured on a fresh server (empty
  // cache); cached re-issues the identical fingerprint.
  std::printf("query_shape,cold_ms,cached_ms,speedup\n");
  for (const Shape& shape : kShapes) {
    query::ServerConfig config;
    config.workers = 2;
    query::QueryServer server(catalog, config);
    query::QueryClient client(server);
    const query::QueryResponse cold = client.query(std::string(shape.text));
    if (!cold.ok) {
      std::fprintf(stderr, "%s failed: %s\n", shape.name, cold.error.c_str());
      return 1;
    }
    std::vector<double> cached;
    for (int i = 0; i < 64; ++i) {
      const query::QueryResponse r = client.query(std::string(shape.text));
      if (!r.ok || !r.cached) {
        std::fprintf(stderr, "%s: expected a cache hit\n", shape.name);
        return 1;
      }
      cached.push_back(r.elapsed_ms);
    }
    const double cached_ms = median_ms(std::move(cached));
    std::printf("%s,%.3f,%.4f,%.1f\n", shape.name, cold.elapsed_ms, cached_ms,
                cached_ms > 0.0 ? cold.elapsed_ms / cached_ms : 0.0);
    bench::add_headline(std::string("cold_") + shape.name + "_ms",
                        cold.elapsed_ms, "ms", /*higher_is_better=*/false);
    json::Object row;
    row["shape"] = shape.name;
    row["cold_ms"] = cold.elapsed_ms;
    row["cached_ms"] = cached_ms;
    latency_rows.emplace_back(std::move(row));
  }

  // Concurrent throughput vs client threads over a mixed workload: each
  // client cycles the shapes with a per-client filter threshold so a share
  // of queries always misses the cache (cold work under contention).
  std::printf("\nclients,qps,cache_hit_rate\n");
  for (int clients = 1; clients <= max_clients; clients *= 2) {
    query::ServerConfig config;
    config.workers = static_cast<std::size_t>(max_clients);
    query::QueryServer server(catalog, config);
    const auto started = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&server, c, queries] {
        query::QueryClient client(server);
        const std::string unique =
            R"({"from": "tasks", "where": [{"col": "duration", "op": ">",
                "value": 0.0)" +
            std::to_string(c + 1) + R"(}]})";
        for (int i = 0; i < queries; ++i) {
          const int pick = i % 4;
          const query::QueryResponse r =
              pick == 3 ? client.query(unique)
                        : client.query(std::string(kShapes[pick].text));
          if (!r.ok) {
            std::fprintf(stderr, "query failed: %s\n", r.error.c_str());
            std::exit(1);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - started;
    const query::ServerStats stats = server.stats();
    const double hit_rate =
        static_cast<double>(stats.cache.hits) /
        static_cast<double>(stats.cache.hits + stats.cache.misses);
    const double qps =
        static_cast<double>(clients) * queries / elapsed.count();
    std::printf("%d,%.0f,%.3f\n", clients, qps, hit_rate);
    if (clients == max_clients) {
      bench::add_headline("qps_max_clients", qps, "queries/s",
                          /*higher_is_better=*/true);
    }
    json::Object row;
    row["clients"] = static_cast<std::int64_t>(clients);
    row["qps"] = qps;
    row["cache_hit_rate"] = hit_rate;
    throughput_rows.emplace_back(std::move(row));
  }

  // Broker ingest throughput, in-memory vs WAL-backed: durability has to
  // stay off the hot path (buffered segment appends, no fsync per event),
  // so the WAL broker should track the in-memory one closely.
  constexpr int kIngestEvents = 100000;
  const std::string wal_dir =
      (std::filesystem::temp_directory_path() / "recup_bench_query_wal")
          .string();
  std::filesystem::remove_all(wal_dir);
  const double memory_rate = ingest_events_per_s("", kIngestEvents);
  const double wal_rate = ingest_events_per_s(wal_dir, kIngestEvents);
  std::filesystem::remove_all(wal_dir);
  const double overhead =
      wal_rate > 0.0 ? (memory_rate / wal_rate - 1.0) * 100.0 : 0.0;
  std::printf("\ningest_mode,events_per_s\nmemory,%.0f\nwal,%.0f\n",
              memory_rate, wal_rate);
  std::printf("wal ingest overhead: %.1f%%\n", overhead);

  json::Object ingest;
  ingest["events"] = static_cast<std::int64_t>(kIngestEvents);
  ingest["memory_events_per_s"] = memory_rate;
  ingest["wal_events_per_s"] = wal_rate;
  ingest["wal_overhead_pct"] = overhead;
  bench::add_headline("ingest_memory_events_per_s", memory_rate, "events/s",
                      /*higher_is_better=*/true);
  bench::add_headline("ingest_wal_events_per_s", wal_rate, "events/s",
                      /*higher_is_better=*/true);

  // Durable segment store: cold start from disk (manifest replay + CRC
  // footer scan) and a zone-map pruned scan vs the same scan with a
  // match-everything predicate. Fresh catalogs per measurement so the
  // frame memo cache cannot hide decode cost.
  constexpr std::uint32_t kStoreRuns = 8;
  constexpr int kStoreTasks = 2000;
  const std::string store_dir =
      (std::filesystem::temp_directory_path() / "recup_bench_query_segstore")
          .string();
  std::filesystem::remove_all(store_dir);
  segstore::SegmentStoreConfig store_config;
  store_config.dir = store_dir;
  query::StoreCatalog memory_catalog;
  {
    query::StoreCatalog writer(store_config);
    for (std::uint32_t r = 0; r < kStoreRuns; ++r) {
      writer.add_run(synth_store_run(r, kStoreTasks));
      memory_catalog.add_run(synth_store_run(r, kStoreTasks));
    }
    writer.compact();
  }

  const auto cold_begin = std::chrono::steady_clock::now();
  query::StoreCatalog cold_catalog(store_config);
  const std::size_t cold_runs =
      cold_catalog.snapshot().runs(std::nullopt, std::nullopt).size();
  const double cold_open_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - cold_begin)
          .count();
  if (cold_runs != kStoreRuns) {
    std::fprintf(stderr, "segstore cold open lost runs: %zu != %u\n",
                 cold_runs, kStoreRuns);
    return 1;
  }

  // Threshold sits strictly between run 6's max start_time and run 7's
  // min, so the planner must prune exactly 7 of 8 runs.
  const query::Query pruned_q = query::parse_query(std::string(
      R"({"from": "tasks",
          "where": [{"col": "start_time", "op": ">=", "value": 70000.0}]})"));
  const query::Query full_q = query::parse_query(std::string(
      R"({"from": "tasks",
          "where": [{"col": "start_time", "op": ">=", "value": 0.0}]})"));
  const query::Plan pruned_plan =
      query::plan_query(pruned_q, cold_catalog.snapshot());
  if (pruned_plan.zone_pruned != kStoreRuns - 1) {
    std::fprintf(stderr, "segstore pruning planned %zu of %u runs away\n",
                 pruned_plan.zone_pruned, kStoreRuns);
    return 1;
  }

  const auto pruned_begin = std::chrono::steady_clock::now();
  const query::ExecutionResult pruned_result =
      query::execute_query(pruned_q, cold_catalog, nullptr);
  const double pruned_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - pruned_begin)
                               .count();

  query::StoreCatalog full_catalog(store_config);
  const auto full_begin = std::chrono::steady_clock::now();
  const query::ExecutionResult full_result =
      query::execute_query(full_q, full_catalog, nullptr);
  const double full_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - full_begin)
                             .count();
  std::filesystem::remove_all(store_dir);

  // Correctness guard: the disk-backed pruned result must match the
  // in-memory catalog bit for bit, and the full scan must see every row.
  const query::ExecutionResult memory_pruned =
      query::execute_query(pruned_q, memory_catalog, nullptr);
  if (query::frame_to_json(*pruned_result.frame).dump() !=
      query::frame_to_json(*memory_pruned.frame).dump()) {
    std::fprintf(stderr, "segstore pruned scan diverged from memory scan\n");
    return 1;
  }
  if (full_result.frame->rows() !=
      static_cast<std::size_t>(kStoreRuns) * kStoreTasks) {
    std::fprintf(stderr, "segstore full scan dropped rows\n");
    return 1;
  }
  const double prune_speedup = pruned_ms > 0.0 ? full_ms / pruned_ms : 0.0;
  std::printf(
      "\nsegstore,cold_open_ms,pruned_scan_ms,full_scan_ms,prune_speedup\n"
      "disk,%.2f,%.2f,%.2f,%.1f\n",
      cold_open_ms, pruned_ms, full_ms, prune_speedup);
  if (prune_speedup < 2.0) {
    std::fprintf(stderr,
                 "segstore zone-map pruning speedup %.1fx below the 2x "
                 "floor\n",
                 prune_speedup);
    return 1;
  }
  bench::add_headline("segstore_cold_open_ms", cold_open_ms, "ms",
                      /*higher_is_better=*/false, /*noise_pct=*/40.0);
  bench::add_headline("segstore_pruned_scan_ms", pruned_ms, "ms",
                      /*higher_is_better=*/false, /*noise_pct=*/40.0);
  bench::add_headline("segstore_prune_speedup", prune_speedup, "x",
                      /*higher_is_better=*/true, /*noise_pct=*/40.0);

  json::Object segstore_metrics;
  segstore_metrics["runs"] = static_cast<std::int64_t>(kStoreRuns);
  segstore_metrics["tasks_per_run"] = static_cast<std::int64_t>(kStoreTasks);
  segstore_metrics["cold_open_ms"] = cold_open_ms;
  segstore_metrics["pruned_scan_ms"] = pruned_ms;
  segstore_metrics["full_scan_ms"] = full_ms;
  segstore_metrics["prune_speedup"] = prune_speedup;

  // Event wire size: binary session frames vs the JSON text of the same
  // provenance events (the ImageProcessing run's transition + task
  // records). The ISSUE target is a >= 3x reduction.
  std::uint64_t json_bytes = 0;
  std::uint64_t wire_bytes = 0;
  const double ratio = event_wire_ratio(wire_events, &json_bytes, &wire_bytes);
  std::printf(
      "\nevent_wire,events,json_bytes,wire_bytes,ratio\n"
      "image_processing,%zu,%llu,%llu,%.2f\n",
      wire_events.size(), static_cast<unsigned long long>(json_bytes),
      static_cast<unsigned long long>(wire_bytes), ratio);
  bench::add_headline("event_wire_json_over_binary", ratio, "x",
                      /*higher_is_better=*/true);

  json::Object wire;
  wire["events"] = static_cast<std::int64_t>(wire_events.size());
  wire["json_bytes"] = static_cast<std::int64_t>(json_bytes);
  wire["wire_bytes"] = static_cast<std::int64_t>(wire_bytes);
  wire["ratio"] = ratio;

  json::Object extra;
  extra["latency"] = std::move(latency_rows);
  extra["throughput"] = std::move(throughput_rows);
  extra["ingest"] = std::move(ingest);
  extra["segstore"] = std::move(segstore_metrics);
  extra["event_wire"] = std::move(wire);
  bench::write_bench_json("query", std::move(extra));
  return 0;
}
