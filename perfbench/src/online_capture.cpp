// online_capture: the paper's "fully online" mode end to end. Each unit is
// one XGBOOST run with Mofka capture and Darshan streaming on and a durable
// control plane (broker WAL, scheduler journal, ingest cursors). The
// benchmark's own thread polls the LiveIngestor while the run executes,
// publishes the run into a durable segment catalog when it returns, and a
// monitor client queries a one-worker QueryServer on that catalog the whole
// time, so reads run beside writes.
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "dtr/cluster.hpp"
#include "queries.hpp"
#include "query/catalog.hpp"
#include "query/ingest.hpp"
#include "query/plan.hpp"
#include "query/wire.hpp"
#include "workloads.hpp"
#include "workloads/xgboost.hpp"

namespace perfbench {

namespace {

using namespace recup;
namespace fs = std::filesystem;

/// Nominal units per second of --seconds (one capture-and-publish cycle
/// takes 1.0-1.5 s on a shared 4-core Xeon at 2.1 GHz).
constexpr double kUnitsPerSecond = 0.75;
constexpr std::size_t kMinUnits = 3;
constexpr std::size_t kSetupRepeats = 16;

workloads::Workload capture_workload(const Options& options) {
  workloads::XgboostParams params;
  // A scaled XGBOOST keeps a capture-and-publish cycle near one second, so
  // a run of a few seconds holds several units.
  params.partitions = options.size == Size::kTiny ? 4 : 16;
  params.boosting_rounds = options.size == Size::kTiny ? 2 : 10;
  return workloads::make_xgboost(options.seed, params);
}

/// The cluster configuration of run `run_index`, seeded the way
/// workloads::execute perturbs repeated submissions.
dtr::ClusterConfig unit_config(const workloads::Workload& workload,
                               std::uint32_t run_index,
                               const std::string& durable_root) {
  dtr::ClusterConfig config = workload.cluster;
  std::uint64_t state = workload.cluster.seed + 0x9e37 * (run_index + 1);
  config.seed = splitmix64(state);
  config.enable_darshan_streaming = true;
  config.durability.dir = durable_root;
  return config;
}

segstore::SegmentStoreConfig catalog_config(const std::string& root) {
  DurabilityConfig durability;
  durability.dir = root;
  return segstore::SegmentStoreConfig::from(durability);
}

query::ServerConfig monitor_server_config() {
  query::ServerConfig config;
  config.workers = 1;
  return config;
}

std::vector<dtr::TaskGraph> unit_graphs(const workloads::Workload& workload,
                                        const dtr::ClusterConfig& config) {
  RngStream rng(config.seed ^ fnv1a64("graphs"));
  return workload.build_graphs(rng);
}

std::string result_text(const query::Query& q,
                        const query::StoreCatalog& catalog) {
  const query::ExecutionResult result = query::execute_query(q, catalog,
                                                             nullptr);
  return query::frame_to_json(*result.frame).dump();
}

/// Catalog + server construction on a fresh directory, repeated; the
/// median goes into setup_s with the per-unit cluster construction.
double catalog_setup_s(const std::string& dir) {
  std::vector<double> samples;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    const std::string root = dir + "/" + std::to_string(k);
    const auto t0 = Clock::now();
    {
      query::StoreCatalog catalog(catalog_config(root));
      query::QueryServer server(catalog, monitor_server_config());
      samples.push_back(seconds_since(t0));
    }
    fs::remove_all(root);
  }
  return median(samples);
}

}  // namespace

void run_online_capture(const Options& options, Tracer& tracer,
                        Report& report) {
  const workloads::Workload workload = capture_workload(options);
  const std::string root = options.work_dir + "/capture";
  const std::string probe_root = options.work_dir + "/probe";
  const double catalog_setup = catalog_setup_s(options.work_dir + "/setup");

  auto catalog =
      std::make_unique<query::StoreCatalog>(catalog_config(root + "/store"));
  auto server = std::make_unique<query::QueryServer>(*catalog,
                                                     monitor_server_config());

  // The monitor watches the latest published run: it cycles through one
  // seeded instance of each template scoped to that run (run 0 before the
  // first publish, which answers with no rows).
  UnitLoop loop(options, tracer, kUnitsPerSecond, kMinUnits);
  std::vector<std::vector<QuerySpec>> monitor_pools;
  SequenceDigest digest;
  for (std::uint32_t i = 0; i < loop.count(); ++i) {
    monitor_pools.push_back(make_pool(derive_seed(options.seed, 100 + i),
                                      template_names().size(),
                                      {{workload.name, i}}, true));
    for (const QuerySpec& q : monitor_pools.back()) digest.add(q);
  }
  report.label("query_sequence", digest.hex());
  LatencyLog latencies;
  std::atomic<std::size_t> latest{0};
  std::atomic<std::uint64_t> monitor_done{0};
  // jthread: joined (after a stop request) on every exit path.
  std::jthread monitor([&](const std::stop_token& stop) {
    query::QueryClient client(*server);
    for (std::size_t k = 0; !stop.stop_requested(); ++k) {
      const std::vector<QuerySpec>& pool = monitor_pools[latest.load()];
      const QuerySpec& q = pool[k % pool.size()];
      const auto t0 = Clock::now();
      const query::QueryResponse response = [&] {
        auto span = tracer.span("query.roundtrip");
        return client.query(q.ir);
      }();
      latencies.add(seconds_since(t0) * 1e3, response.elapsed_ms);
      report.attempt(response.ok,
                     response.ok ? "" : "monitor query: " + response.error);
      monitor_done.fetch_add(1);
    }
  });

  std::vector<double> setup_samples;
  SplitSamples unit_samples;
  std::uint64_t polls = 0;
  std::uint64_t backlog = 0;
  const auto measured_from = Clock::now();
  while (loop.next()) {
    const auto index = static_cast<std::uint32_t>(loop.index());
    const dtr::ClusterConfig config =
        unit_config(workload, index, root + "/run-" + std::to_string(index));
    auto unit = tracer.span("unit");

    const auto setup_start = Clock::now();
    dtr::Cluster cluster(config);
    workload.prepare(cluster.vfs());
    query::LiveIngestor ingestor(cluster.broker(), *catalog,
                                 "perfbench_ingest",
                                 config.durability.ingest_dir());
    setup_samples.push_back(seconds_since(setup_start));
    auto graphs = unit_graphs(workload, config);

    std::uint64_t unit_polls = 0;
    std::jthread poller([&, unit_id = unit.id()](const std::stop_token& stop) {
      while (!stop.stop_requested()) {
        {
          auto span = tracer.span("ingest.poll", unit_id);
          ingestor.poll();
        }
        ++unit_polls;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    const auto t0 = Clock::now();
    dtr::RunData run = [&] {
      auto span = tracer.span("dtr.run");
      return cluster.run(std::move(graphs), workload.name, index);
    }();
    poller.request_stop();
    poller.join();

    std::uint64_t broker_events = 0;
    for (const std::string& topic : cluster.broker().topic_names()) {
      const mofka::TopicStats stats = cluster.broker().topic_stats(topic);
      broker_events += stats.events;
      report.add("mofka.events", static_cast<double>(stats.events));
      report.add("mofka.batches", static_cast<double>(stats.batches));
      report.add("mofka.bytes_wire", static_cast<double>(stats.bytes_wire));
    }
    const std::uint64_t consumed_before = ingestor.stats().events_consumed;
    backlog += broker_events - std::min(broker_events, consumed_before);

    // From Cluster::run returning to the run being visible in a fresh
    // snapshot: the final drain, canonicalize and segment flush.
    bool visible = false;
    {
      auto span = tracer.span("ingest.visible");
      {
        auto publish = tracer.span("ingest.publish");
        ingestor.publish(run.meta);
      }
      auto snapshot = tracer.span("catalog.snapshot");
      visible = !catalog->snapshot().runs(workload.name, index).empty();
    }
    unit_samples.add(loop.traced(), seconds_since(t0));
    report.attempt(visible, "run " + std::to_string(index) + " not visible");
    latest.store(index);

    // Output check: the published run holds exactly the rows the run
    // produced, view by view.
    const query::StoreCatalog::Snapshot snapshot = catalog->snapshot();
    const prov::RunId id{workload.name, index};
    report.check(
        snapshot.estimated_rows(query::ViewId::kTasks, id) == run.tasks.size(),
        "tasks rows of run " + std::to_string(index));
    report.check(snapshot.estimated_rows(query::ViewId::kTransitions, id) ==
                     run.transitions.size(),
                 "transitions rows of run " + std::to_string(index));
    report.check(
        snapshot.estimated_rows(query::ViewId::kComms, id) == run.comms.size(),
        "comms rows of run " + std::to_string(index));
    report.check(snapshot.estimated_rows(query::ViewId::kWarnings, id) ==
                     run.warnings.size(),
                 "warnings rows of run " + std::to_string(index));

    polls += unit_polls;
    report.add("ingest.events_consumed",
               static_cast<double>(ingestor.stats().events_consumed));
    report.add("dtr.transitions",
               static_cast<double>(cluster.scheduler().transitions().size()));
    report.add("dtr.journal_frames",
               static_cast<double>(cluster.scheduler().journal_frames()));
    report.add("dtr.journal_records",
               static_cast<double>(cluster.scheduler().journal_records()));
    report.add("mofka.wal_mb",
               static_cast<double>(dir_bytes(config.durability.broker_dir())) /
                   1e6);

    if (loop.traced()) {
      // catalog.add_run_s: the same RunData into a scratch durable catalog.
      const std::string scratch = probe_root + "/catalog-" +
                                  std::to_string(index);
      {
        query::StoreCatalog probe(catalog_config(scratch));
        auto span = tracer.span("catalog.add_run");
        probe.add_run(run);
      }
      fs::remove_all(scratch);
      // dtr.run_nocapture_s: the same run with capture and durability off.
      dtr::ClusterConfig plain = config;
      plain.enable_mofka = false;
      plain.enable_darshan_streaming = false;
      plain.durability.dir.clear();
      dtr::Cluster bare(plain);
      workload.prepare(bare.vfs());
      auto bare_graphs = unit_graphs(workload, plain);
      auto span = tracer.span("dtr.run_nocapture");
      bare.run(std::move(bare_graphs), workload.name, index);
    }
  }
  const std::size_t units = loop.index();
  const double measured_s = seconds_since(measured_from);
  monitor.request_stop();
  monitor.join();
  tracer.set_enabled(options.trace);

  add_server_stats(report, server->stats());
  report.set("query.qps", static_cast<double>(monitor_done.load()) /
                              measured_s);
  latencies.report(report);

  {
    auto span = tracer.span("segstore.compact");
    catalog->compact();
  }

  // Output check: a cold reopen of the durable catalog answers a fixed
  // query set byte-identically to the live catalog.
  std::vector<prov::RunId> runs =
      catalog->snapshot().runs(std::nullopt, std::nullopt);
  const std::vector<QuerySpec> fixed =
      make_pool(derive_seed(options.seed, 2), template_names().size(), runs);
  std::vector<std::string> live_results;
  for (const QuerySpec& q : fixed) {
    live_results.push_back(result_text(q.ir, *catalog));
  }
  server.reset();
  catalog.reset();
  const double store_bytes = static_cast<double>(dir_bytes(root));

  const auto open_start = Clock::now();
  std::unique_ptr<query::StoreCatalog> reopened;
  {
    auto span = tracer.span("segstore.cold_open");
    reopened = std::make_unique<query::StoreCatalog>(
        catalog_config(root + "/store"));
  }
  report.set("segstore.cold_open_s", seconds_since(open_start));
  {
    const query::StoreCatalog::Snapshot snapshot = reopened->snapshot();
    for (std::size_t v = 0; v < query::view_names().size(); ++v) {
      const auto t0 = Clock::now();
      for (const prov::RunId& id : runs) {
        (void)snapshot.frame(static_cast<query::ViewId>(v), id);
      }
      report.set("segstore.frame_decode_ms." + query::view_names()[v],
                 seconds_since(t0) * 1e3);
    }
  }
  for (std::size_t i = 0; i < fixed.size(); ++i) {
    report.check(result_text(fixed[i].ir, *reopened) == live_results[i],
                 "cold reopen answers " + fixed[i].tmpl + " identically");
  }
  if (options.trace) {
    for (const QuerySpec& q : fixed) {
      std::vector<double> ms;
      for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        auto span = tracer.span("query.execute");
        query::execute_query(q.ir, *reopened, nullptr);
        ms.push_back(seconds_since(t0) * 1e3);
      }
      report.set("query.exec_ms." + q.tmpl, median(ms));
    }
  }
  const std::string segstore_dir = catalog_config(root + "/store").dir;
  report.set("segstore.segments",
             static_cast<double>(
                 reopened->segment_store()->version()->files().size()));
  report.set("segstore.mb", static_cast<double>(dir_bytes(segstore_dir)) / 1e6);
  reopened.reset();

  // End-to-end metrics.
  report.set("setup_s", loop.scaled(catalog_setup + median(setup_samples)));
  report.set("unit_s", loop.scaled(median(unit_samples.all())));
  report.set("store_mb", store_bytes / 1e6 / static_cast<double>(units));

  // Per-layer times from the traced units' spans.
  report.set("bench.units", static_cast<double>(units));
  report.set("dtr.run_s", median(tracer.sum_per_root("unit", "dtr.run")));
  report.set("dtr.run_nocapture_s",
             median(tracer.sum_per_root("unit", "dtr.run_nocapture")));
  report.set("ingest.poll_s",
             median(tracer.sum_per_root("unit", "ingest.poll")));
  report.set("ingest.polls", static_cast<double>(polls));
  report.set("ingest.backlog_events", static_cast<double>(backlog));
  report.set("ingest.publish_s",
             median(tracer.sum_per_root("unit", "ingest.publish")));
  report.set("ingest.visible_s",
             median(tracer.sum_per_root("unit", "ingest.visible")));
  report.set("catalog.add_run_s",
             median(tracer.sum_per_root("unit", "catalog.add_run")));
  report.set("segstore.compact_s", median(tracer.durations("segstore.compact")));
  report_unit_samples(report, unit_samples);
  loop.describe(report);
}

}  // namespace perfbench
