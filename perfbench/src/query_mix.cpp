// query_mix: interactive analysis over a durable segment catalog, read
// only. Input generation (outside every metric) executes one run each of
// ImageProcessing, ResNet152 and XGBOOST, adds them to the catalog,
// compacts, and precomputes every pool query's reference answer on a
// memory-backend catalog holding the same runs. Each unit is one analysis
// session: a fresh two-worker QueryServer (cold result cache) and two
// closed-loop clients issuing a seeded draw from the query pool in which
// about half the draws repeat an earlier fingerprint.
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "dtr/cluster.hpp"
#include "queries.hpp"
#include "query/catalog.hpp"
#include "query/plan.hpp"
#include "query/wire.hpp"
#include "workloads.hpp"
#include "workloads/image_processing.hpp"
#include "workloads/registry.hpp"
#include "workloads/resnet152.hpp"
#include "workloads/xgboost.hpp"

namespace perfbench {

namespace {

using namespace recup;

/// Nominal sessions per second of --seconds (a 64-query session takes
/// about 60 ms on a 4-core Xeon at 2.1 GHz).
constexpr double kUnitsPerSecond = 16.0;
constexpr std::size_t kMinUnits = 5;
constexpr std::size_t kSetupRepeats = 8;
constexpr std::size_t kClients = 2;

std::vector<workloads::Workload> input_workloads(const Options& options) {
  if (options.size == Size::kFull) {
    return {workloads::make_workload("ImageProcessing", options.seed),
            workloads::make_workload("ResNet152", options.seed),
            workloads::make_workload("XGBOOST", options.seed)};
  }
  workloads::ImageProcessingParams images;
  images.images = 6;
  images.extra_chunk_images = 3;
  workloads::ResNet152Params resnet;
  resnet.files = 60;
  workloads::XgboostParams xgboost;
  xgboost.partitions = 4;
  xgboost.boosting_rounds = 2;
  return {workloads::make_image_processing(options.seed, images),
          workloads::make_resnet152(options.seed, resnet),
          workloads::make_xgboost(options.seed, xgboost)};
}

segstore::SegmentStoreConfig catalog_config(const std::string& root) {
  DurabilityConfig durability;
  durability.dir = root;
  return segstore::SegmentStoreConfig::from(durability);
}

query::ServerConfig session_server_config() {
  query::ServerConfig config;
  config.workers = kClients;
  return config;
}

std::string frame_text(const analysis::DataFrame& frame) {
  return query::frame_to_json(frame).dump();
}

}  // namespace

void run_query_mix(const Options& options, Tracer& tracer, Report& report) {
  const bool tiny = options.size == Size::kTiny;
  // A large pool keeps each seed's mix of cheap and expensive queries close
  // to the template average, so unit_s moves little between seeds.
  const std::size_t pool_size = tiny ? 16 : 256;
  const std::size_t session_length = tiny ? 8 : 64;
  const std::string root = options.work_dir + "/query";
  const segstore::SegmentStoreConfig config = catalog_config(root + "/store");

  // --- Input generation: not part of any metric. ---------------------------
  query::StoreCatalog reference;
  std::size_t stored_runs = 0;
  {
    query::StoreCatalog durable(config);
    for (const workloads::Workload& workload : input_workloads(options)) {
      dtr::ClusterConfig cluster_config = workload.cluster;
      std::uint64_t state = workload.cluster.seed + 0x9e37;
      cluster_config.seed = splitmix64(state);
      cluster_config.enable_mofka = false;
      dtr::Cluster cluster(cluster_config);
      workload.prepare(cluster.vfs());
      RngStream rng(cluster_config.seed ^ fnv1a64("graphs"));
      dtr::RunData run = cluster.run(workload.build_graphs(rng), workload.name);
      reference.add_run(run);
      durable.add_run(std::move(run));
      ++stored_runs;
    }
    durable.compact();
  }
  const std::vector<prov::RunId> runs =
      reference.snapshot().runs(std::nullopt, std::nullopt);
  const std::vector<QuerySpec> pool = make_pool(options.seed, pool_size, runs);
  std::vector<std::string> expected;
  expected.reserve(pool.size());
  for (const QuerySpec& q : pool) {
    expected.push_back(
        frame_text(*query::execute_query(q.ir, reference, nullptr).frame));
  }

  // --- Set-up: cold open of the catalog directory plus server start. -------
  std::vector<double> setup_samples;
  std::vector<double> open_samples;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = Clock::now();
    query::StoreCatalog catalog(config);
    open_samples.push_back(seconds_since(t0));
    query::QueryServer server(catalog, session_server_config());
    setup_samples.push_back(seconds_since(t0));
  }
  query::StoreCatalog catalog(config);

  // The first frame of every view on the freshly opened catalog.
  {
    const query::StoreCatalog::Snapshot snapshot = catalog.snapshot();
    for (std::size_t v = 0; v < query::view_names().size(); ++v) {
      const auto t0 = Clock::now();
      for (const prov::RunId& id : runs) {
        (void)snapshot.frame(static_cast<query::ViewId>(v), id);
      }
      report.set("segstore.frame_decode_ms." + query::view_names()[v],
                 seconds_since(t0) * 1e3);
    }
  }

  // --- Sessions. -------------------------------------------------------------
  SequenceDigest digest;
  LatencyLog latencies;
  SplitSamples unit_samples;
  double busy_s = 0.0;
  std::uint64_t completed = 0;
  UnitLoop loop(options, tracer, kUnitsPerSecond, kMinUnits);
  while (loop.next()) {
    const std::vector<std::size_t> draws =
        make_session(options.seed, loop.index(), pool.size(), session_length);
    for (const std::size_t d : draws) digest.add(pool[d]);
    query::QueryServer server(catalog, session_server_config());
    query::QueryClient client(server);
    std::vector<query::QueryResponse> responses(draws.size());
    std::vector<double> round_trip_ms(draws.size());

    auto unit = tracer.span("unit");
    const auto t0 = Clock::now();
    {
      std::vector<std::jthread> clients;
      for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c, unit_id = unit.id()] {
          for (std::size_t j = c; j < draws.size(); j += kClients) {
            const auto q0 = Clock::now();
            auto span = tracer.span("query.roundtrip", unit_id);
            responses[j] = client.query(pool[draws[j]].ir);
            round_trip_ms[j] = seconds_since(q0) * 1e3;
          }
        });
      }
    }
    const double makespan = seconds_since(t0);
    unit_samples.add(loop.traced(), makespan);
    busy_s += makespan;
    server.shutdown();
    add_server_stats(report, server.stats());

    // Output check: every answer equals the memory-backend reference.
    for (std::size_t j = 0; j < draws.size(); ++j) {
      const query::QueryResponse& r = responses[j];
      latencies.add(round_trip_ms[j], r.elapsed_ms);
      report.attempt(r.ok, r.ok ? "" : pool[draws[j]].tmpl + ": " + r.error);
      if (!r.ok) continue;
      ++completed;
      report.check(frame_text(r.frame) == expected[draws[j]],
                   pool[draws[j]].tmpl + " answer equals the reference");
    }
  }
  const std::size_t units = loop.index();
  tracer.set_enabled(options.trace);
  report.label("query_sequence", digest.hex());
  latencies.report(report);
  report.set("query.qps", static_cast<double>(completed) / busy_s);

  // Planner and kernel probes: every pool query planned, and each template's
  // instances executed directly with no result cache.
  {
    const query::StoreCatalog::Snapshot snapshot = catalog.snapshot();
    std::vector<double> plan_ms;
    double zone_pruned = 0.0;
    double runs_planned = 0.0;
    for (const QuerySpec& q : pool) {
      const auto t0 = Clock::now();
      const query::Plan plan = query::plan_query(q.ir, snapshot);
      plan_ms.push_back(seconds_since(t0) * 1e3);
      zone_pruned += static_cast<double>(plan.zone_pruned);
      runs_planned += static_cast<double>(plan.runs.size());
    }
    report.set("query.plan_ms", median(plan_ms));
    report.set("query.zone_pruned", zone_pruned);
    report.set("query.runs_planned", runs_planned);
  }
  if (options.trace) {
    for (const std::string& tmpl : template_names()) {
      std::vector<double> ms;
      for (const QuerySpec& q : pool) {
        if (q.tmpl != tmpl) continue;
        for (int rep = 0; rep < 3; ++rep) {
          auto span = tracer.span("query.execute");
          const auto t0 = Clock::now();
          query::execute_query(q.ir, catalog, nullptr);
          ms.push_back(seconds_since(t0) * 1e3);
        }
      }
      report.set("query.exec_ms." + tmpl, median(ms));
    }
  }

  report.set("segstore.segments",
             static_cast<double>(
                 catalog.segment_store()->version()->files().size()));
  const double store_bytes = static_cast<double>(dir_bytes(root));
  report.set("segstore.mb", store_bytes / 1e6);
  report.set("segstore.cold_open_s", median(open_samples));

  report.set("setup_s", loop.scaled(median(setup_samples)));
  report.set("unit_s", loop.scaled(median(unit_samples.all())));
  report.set("store_mb", store_bytes / 1e6 / static_cast<double>(stored_runs));
  report.set("bench.units", static_cast<double>(units));
  report_unit_samples(report, unit_samples);
  loop.describe(report);
}

}  // namespace perfbench
