// Query service: the full live loop — a workflow executes with the Mofka
// plugins streaming provenance, a LiveIngestor tails the topics into the
// shared StoreCatalog, and concurrent clients ask paper-shaped questions
// over the wire while ingestion continues (paper §V: interactive provenance
// queries over the fused PERFRECUP views).
//
//   $ ./query_service
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "dtr/cluster.hpp"
#include "query/client.hpp"
#include "query/ingest.hpp"
#include "query/ir.hpp"
#include "query/server.hpp"
#include "workloads/image_processing.hpp"

using namespace recup;

namespace {

void show(const std::string& title, const query::QueryResponse& response) {
  std::cout << "== " << title << " (epoch " << response.epoch << ", "
            << (response.cached ? "cached" : "computed") << ", "
            << response.elapsed_ms << " ms)\n";
  if (!response.ok) {
    std::cout << "error: " << response.error << "\n\n";
    return;
  }
  std::cout << response.frame.to_csv() << "\n";
}

}  // namespace

int main() {
  // A scaled-down image pipeline, twice, streaming provenance via Mofka.
  workloads::ImageProcessingParams params;
  params.images = 24;
  params.extra_chunk_images = 12;

  query::StoreCatalog catalog;
  query::ServerConfig server_config;
  server_config.workers = 4;
  query::QueryServer server(catalog, server_config);

  for (std::uint32_t run_index = 0; run_index < 2; ++run_index) {
    workloads::Workload workload =
        workloads::make_image_processing(7 + run_index, params);
    dtr::ClusterConfig config = workload.cluster;
    config.seed = 7 + run_index;
    // Stream Darshan records through Mofka too, so the ingested runs can
    // serve the fused task_io view (the paper's "fully online" mode).
    config.enable_darshan_streaming = true;
    dtr::Cluster cluster(config);
    workload.prepare(cluster.vfs());
    RngStream rng(7 + run_index);
    auto graphs = workload.build_graphs(rng);

    // Tail this cluster's broker while the run executes; clients may query
    // the already-ingested runs concurrently.
    query::LiveIngestor ingestor(cluster.broker(), catalog);
    ingestor.start(std::chrono::milliseconds(1));
    std::thread monitor([&server] {
      query::QueryClient client(server);
      const query::QueryResponse r = client.query(
          R"({"from": "tasks", "group_by": ["workflow", "run"],
              "aggregates": [{"col": "key", "op": "count", "as": "tasks"}]})");
      std::cout << "[monitor] store has " << r.frame.rows()
                << " runs at epoch " << r.epoch << "\n";
    });
    const dtr::RunData run =
        cluster.run(std::move(graphs), workload.name, run_index);
    monitor.join();
    ingestor.stop();
    const query::Epoch epoch = ingestor.publish(run.meta);
    std::cout << "ingested " << workload.name << " run " << run_index
              << " -> epoch " << epoch << " ("
              << ingestor.stats().events_consumed
              << " events consumed so far)\n";
  }
  std::cout << "\n";

  query::QueryClient client(server);

  // Fig. 6-shaped: where does task time go, by task category?
  show("mean duration and I/O share by prefix",
       client.query(R"({
         "from": "tasks",
         "group_by": ["prefix"],
         "aggregates": [{"col": "key", "op": "count", "as": "n"},
                        {"col": "duration", "op": "mean", "as": "mean_s"},
                        {"col": "io_time", "op": "mean", "as": "mean_io_s"}],
         "order_by": {"col": "mean_s", "desc": true},
         "limit": 8
       })"));

  // Run-to-run comparison across the two ingested runs.
  show("per-run totals",
       client.query(R"({
         "from": "tasks",
         "group_by": ["run"],
         "aggregates": [{"col": "key", "op": "count", "as": "tasks"},
                        {"col": "duration", "op": "sum", "as": "busy_s"},
                        {"col": "worker", "op": "count_distinct",
                         "as": "workers"}],
         "order_by": {"col": "run"}
       })"));

  // Fig. 8-shaped: fuse I/O segments with the tasks that issued them and
  // rank files by time spent, per operation.
  show("I/O time by file and op (fused task_io view)",
       client.query(R"({
         "from": "task_io",
         "group_by": ["file", "op"],
         "aggregates": [{"col": "duration", "op": "sum", "as": "total_s"},
                        {"col": "task_key", "op": "count_distinct",
                         "as": "tasks"}],
         "order_by": {"col": "total_s", "desc": true},
         "limit": 6
       })"));

  // The planner's view of a pushed-down query.
  const query::QueryResponse plan =
      client.explain(query::parse_query(std::string(R"({
    "from": "tasks", "run": 1,
    "where": [{"col": "duration", "op": ">", "value": 0.05}],
    "group_by": ["worker"],
    "aggregates": [{"col": "duration", "op": "sum", "as": "busy"}]
  })")));
  std::cout << "== explain\n" << plan.explain << "\n";

  const query::ServerStats stats = server.stats();
  std::cout << "server: " << stats.completed << " completed, "
            << stats.cache.hits << " cache hits, " << stats.failed
            << " failed\n";
  return 0;
}
