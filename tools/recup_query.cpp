// recup-query: command-line front end of the provenance query service.
//
// One-shot execution (query JSON as the positional argument, or "-" for
// stdin), plan inspection with --explain, and a concurrent latency/
// throughput benchmark with --bench. The store is populated from persisted
// run directories, freshly executed workloads, or fast synthetic runs (the
// default, so the tool works out of the box and in CI).
//
//   recup_query '{"from": "tasks", "group_by": ["prefix"], ...}'
//   recup_query --run-dir out/run0 --explain '{"from": "task_io", ...}'
//   recup_query --workload XGBOOST --runs 3 '{"from": "warnings"}'
//   recup_query --synthetic 4 --bench 8 50
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dtr/recorder.hpp"
#include "query/client.hpp"
#include "query/ir.hpp"
#include "query/plan.hpp"
#include "query/server.hpp"
#include "segstore/store.hpp"
#include "workloads/registry.hpp"

using namespace recup;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: recup_query [options] [QUERY_JSON | -]\n"
      "  --run-dir DIR     ingest a persisted run directory (repeatable)\n"
      "  --store DIR       durable segment-store directory: runs ingested\n"
      "                    now flush there, and runs committed by earlier\n"
      "                    invocations are served without re-ingestion\n"
      "  --workload NAME   execute a workload and ingest it (repeatable)\n"
      "  --runs N          runs per --workload (default 1)\n"
      "  --synthetic N     ingest N fast synthetic runs (default store: 2)\n"
      "  --explain         print the plan instead of executing\n"
      "  --bench C Q       C client threads x Q queries each, cold vs cached\n"
      "  --workers N       server worker threads (default 4)\n"
      "  --seed S          workload / synthetic seed (default 42)\n");
  return 2;
}

/// Deterministic synthetic run: enough rows and groups for the planner,
/// cache, and bench paths to be exercised without simulating a workflow.
dtr::RunData synthetic_run(std::uint32_t index, std::uint64_t seed,
                           int tasks = 2000) {
  dtr::RunData run;
  run.meta.workflow = "Synthetic";
  run.meta.run_index = index;
  run.meta.seed = seed;
  const char* prefixes[] = {"read_parquet", "train", "predict", "reduce"};
  std::uint64_t state = seed + index * 7919 + 1;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < tasks; ++i) {
    dtr::TaskRecord t;
    t.key = {std::string(prefixes[i % 4]) + "-syn", i};
    t.graph = "g" + std::to_string(i % 2);
    t.prefix = prefixes[i % 4];
    t.worker = static_cast<dtr::WorkerId>(next() % 8);
    t.worker_address = "tcp://10.0.0." + std::to_string(t.worker);
    t.thread_id = 1000 + t.worker * 4 + next() % 4;
    t.start_time = 0.01 * i;
    t.end_time = t.start_time + 0.05 + 0.001 * static_cast<double>(next() % 100);
    t.compute_time = 0.8 * (t.end_time - t.start_time);
    t.output_bytes = 1024 * (next() % 512);
    run.tasks.push_back(t);

    dtr::TransitionRecord tr;
    tr.key = t.key;
    tr.graph = t.graph;
    tr.from_state = "processing";
    tr.to_state = "memory";
    tr.stimulus = "task-finished";
    tr.location = t.worker_address;
    tr.time = t.end_time;
    run.transitions.push_back(tr);

    if (i % 3 == 0) {
      dtr::CommRecord c;
      c.key = t.key;
      c.source = t.worker;
      c.destination = static_cast<dtr::WorkerId>((t.worker + 1) % 8);
      c.bytes = t.output_bytes;
      c.start = t.end_time;
      c.end = t.end_time + 0.002;
      c.cross_node = (i % 6 == 0);
      run.comms.push_back(c);
    }
  }
  return run;
}

struct BenchNumbers {
  double cold_ms = 0.0;
  double cached_ms = 0.0;
  double throughput_qps = 0.0;
};

BenchNumbers run_bench(query::QueryServer& server, const query::Query& q,
                       int clients, int per_client) {
  BenchNumbers out;
  query::QueryClient warmup(server);
  // Cold: first execution at this epoch (nothing cached yet).
  const query::QueryResponse cold = warmup.query(q);
  if (!cold.ok) {
    std::fprintf(stderr, "bench query failed: %s\n", cold.error.c_str());
    std::exit(1);
  }
  out.cold_ms = cold.elapsed_ms;
  // Cached: the same fingerprint served from the result cache.
  double cached_sum = 0.0;
  constexpr int kCachedReps = 32;
  for (int i = 0; i < kCachedReps; ++i) {
    const query::QueryResponse r = warmup.query(q);
    if (!r.cached) {
      std::fprintf(stderr, "expected a cache hit on repeat\n");
      std::exit(1);
    }
    cached_sum += r.elapsed_ms;
  }
  out.cached_ms = cached_sum / kCachedReps;

  const auto started = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&server, &q, per_client] {
      query::QueryClient client(server);
      for (int i = 0; i < per_client; ++i) {
        const query::QueryResponse r = client.query(q);
        if (!r.ok) {
          std::fprintf(stderr, "bench query failed: %s\n", r.error.c_str());
          std::exit(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - started;
  out.throughput_qps =
      static_cast<double>(clients) * per_client / elapsed.count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> run_dirs;
  std::vector<std::string> workload_names;
  std::uint32_t runs_per_workload = 1;
  int synthetic = -1;  // -1 = only if nothing else populates the store
  bool explain = false;
  int bench_clients = 0;
  int bench_queries = 0;
  std::size_t workers = 4;
  std::uint64_t seed = 42;
  std::string store_dir;
  std::string query_text;

  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--run-dir") == 0) {
      run_dirs.emplace_back(need("--run-dir"));
    } else if (std::strcmp(argv[i], "--store") == 0) {
      store_dir = need("--store");
    } else if (std::strcmp(argv[i], "--workload") == 0) {
      workload_names.emplace_back(need("--workload"));
    } else if (std::strcmp(argv[i], "--runs") == 0) {
      runs_per_workload =
          static_cast<std::uint32_t>(std::atoi(need("--runs")));
    } else if (std::strcmp(argv[i], "--synthetic") == 0) {
      synthetic = std::atoi(need("--synthetic"));
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
    } else if (std::strcmp(argv[i], "--bench") == 0) {
      bench_clients = std::atoi(need("--bench"));
      bench_queries = std::atoi(need("--bench"));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      workers = static_cast<std::size_t>(std::atoi(need("--workers")));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = static_cast<std::uint64_t>(std::atoll(need("--seed")));
    } else if (std::strcmp(argv[i], "--help") == 0) {
      return usage();
    } else if (!query_text.empty()) {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return usage();
    } else {
      query_text = argv[i];
    }
  }

  std::unique_ptr<query::StoreCatalog> catalog_holder;
  try {
    if (store_dir.empty()) {
      catalog_holder = std::make_unique<query::StoreCatalog>();
    } else {
      segstore::SegmentStoreConfig store_config;
      store_config.dir = store_dir;
      catalog_holder = std::make_unique<query::StoreCatalog>(store_config);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "store open failed: %s\n", e.what());
    return 1;
  }
  query::StoreCatalog& catalog = *catalog_holder;
  try {
    for (const std::string& dir : run_dirs) {
      std::fprintf(stderr, "ingesting run directory %s ...\n", dir.c_str());
      catalog.add_run(dtr::read_run_dir(dir));
    }
    for (const std::string& name : workload_names) {
      const workloads::Workload workload = workloads::make_workload(name, seed);
      for (std::uint32_t r = 0; r < runs_per_workload; ++r) {
        std::fprintf(stderr, "executing %s run %u/%u ...\n", name.c_str(),
                     r + 1, runs_per_workload);
        catalog.add_run(workloads::execute(workload, r));
      }
    }
    if (synthetic < 0 && catalog.snapshot().epoch() == 0) synthetic = 2;
    for (int r = 0; r < synthetic; ++r) {
      catalog.add_run(synthetic_run(static_cast<std::uint32_t>(r), seed));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "store setup failed: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "store ready: epoch %llu\n",
               static_cast<unsigned long long>(catalog.snapshot().epoch()));

  if (query_text == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    query_text = buffer.str();
  }
  if (query_text.empty() && bench_clients <= 0) return usage();

  const std::string bench_default =
      R"({"from": "tasks", "group_by": ["prefix"],
          "aggregates": [{"col": "duration", "op": "mean", "as": "mean_d"},
                         {"col": "key", "op": "count", "as": "n"}],
          "order_by": {"col": "mean_d", "desc": true}})";
  query::Query q;
  try {
    q = query::parse_query(query_text.empty() ? bench_default : query_text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "invalid query: %s\n", e.what());
    return 1;
  }

  query::ServerConfig config;
  config.workers = workers;
  query::QueryServer server(catalog, config);
  query::QueryClient client(server);

  if (bench_clients > 0) {
    if (bench_queries <= 0) bench_queries = 50;
    const BenchNumbers numbers =
        run_bench(server, q, bench_clients, bench_queries);
    std::printf("bench: %d clients x %d queries\n", bench_clients,
                bench_queries);
    std::printf("  cold latency    %10.3f ms\n", numbers.cold_ms);
    std::printf("  cached latency  %10.3f ms  (%.1fx faster)\n",
                numbers.cached_ms,
                numbers.cached_ms > 0.0 ? numbers.cold_ms / numbers.cached_ms
                                        : 0.0);
    std::printf("  throughput      %10.0f q/s\n", numbers.throughput_qps);
    const query::ServerStats stats = server.stats();
    std::printf("  cache           %llu hits / %llu misses\n",
                static_cast<unsigned long long>(stats.cache.hits),
                static_cast<unsigned long long>(stats.cache.misses));
    return 0;
  }

  if (explain) {
    const query::QueryResponse response = client.explain(q);
    if (!response.ok) {
      std::fprintf(stderr, "error: %s\n", response.error.c_str());
      return 1;
    }
    std::printf("%s", response.explain.c_str());
    return 0;
  }

  const query::QueryResponse response = client.query(q);
  if (!response.ok) {
    std::fprintf(stderr, "error: %s\n", response.error.c_str());
    return 1;
  }
  std::printf("%s", response.frame.to_csv().c_str());
  std::fprintf(stderr, "%zu rows; epoch %llu; %s; %.3f ms\n",
               static_cast<std::size_t>(response.frame.rows()),
               static_cast<unsigned long long>(response.epoch),
               response.cached ? "cached" : "computed", response.elapsed_ms);
  return 0;
}
