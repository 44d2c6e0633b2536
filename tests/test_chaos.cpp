// Chaos tests: deterministic fault injection (recup::chaos) and the
// delivery guarantees of the streaming provenance pipeline.
//
// The headline oracle: a full workload -> Mofka -> LiveIngestor pipeline
// whose transport is attacked by a randomized FaultPlan (drops, duplicates,
// reorders, delays, transient errors, partition outages) must produce
// byte-identical PERFRECUP views to the same run over a fault-free
// transport — at-least-once delivery plus sequence dedup plus idempotent
// publication equals exactly-once effects. A deliberately lossy plan
// (retries disabled) must demonstrably fail that oracle, proving it can
// detect loss. Every failing case is replayable from (seed, plan).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "chaos/fault.hpp"
#include "common/rng.hpp"
#include "dtr/cluster.hpp"
#include "dtr/mofka_plugins.hpp"
#include "mochi/warabi.hpp"
#include "mochi/yokan.hpp"
#include "mofka/broker.hpp"
#include "mofka/consumer.hpp"
#include "mofka/producer.hpp"
#include "query/catalog.hpp"
#include "query/ingest.hpp"

namespace recup {
namespace {

using query::LiveIngestor;
using query::StoreCatalog;
using query::ViewId;

// ---------------------------------------------------------------------------
// Pipeline harness: run a small workflow on a Cluster (optionally under a
// FaultPlan), ingest its Mofka topics into a fresh catalog, and fingerprint
// every view.

std::vector<dtr::TaskGraph> workload() {
  dtr::TaskGraph g1("produce");
  for (int i = 0; i < 12; ++i) {
    dtr::TaskSpec t;
    t.key = {"produce-ca11", i};
    t.work.compute = 0.02;
    t.work.output_bytes = 1 << 20;
    g1.add_task(t);
  }
  dtr::TaskGraph g2("consume");
  for (int i = 0; i < 12; ++i) {
    dtr::TaskSpec t;
    t.key = {"consume-fe55", i};
    t.dependencies.push_back({"produce-ca11", i});
    t.work.compute = 0.02;
    t.work.output_bytes = 1 << 10;
    g2.add_task(t);
  }
  std::vector<dtr::TaskGraph> graphs;
  graphs.push_back(std::move(g1));
  graphs.push_back(std::move(g2));
  return graphs;
}

std::string fingerprint(const analysis::DataFrame& frame) {
  std::string out;
  for (const auto& name : frame.column_names()) {
    out += name;
    out += ',';
  }
  out += '\n';
  for (std::size_t row = 0; row < frame.rows(); ++row) {
    for (std::size_t c = 0; c < frame.width(); ++c) {
      out += frame.col(c).display(row);
      out += '|';
    }
    out += '\n';
  }
  return out;
}

struct PipelineResult {
  std::size_t direct_tasks = 0;
  std::size_t direct_records = 0;  ///< transitions + tasks + comms + warnings
  std::map<std::string, std::string> views;
  std::size_t ingested_rows = 0;
  std::uint64_t faults = 0;
  std::map<std::string, std::uint64_t> fault_counts;
};

PipelineResult run_pipeline(std::uint64_t cluster_seed,
                            const chaos::FaultPlan& plan,
                            std::size_t max_retries = 16,
                            std::size_t batch_size = 32) {
  dtr::ClusterConfig config;
  config.job.nodes = 2;
  config.job.workers_per_node = 2;
  config.job.threads_per_worker = 2;
  config.seed = cluster_seed;
  config.enable_gpuprof = false;
  config.fault_plan = plan;
  config.producer.batch_size = batch_size;
  config.producer.max_retries = max_retries;

  dtr::Cluster cluster(config);
  const dtr::RunData direct = cluster.run(workload(), "chaos", 0);

  StoreCatalog catalog;
  LiveIngestor ingestor(cluster.broker(), catalog);
  ingestor.publish(direct.meta);

  PipelineResult result;
  result.direct_tasks = direct.tasks.size();
  result.direct_records = direct.transitions.size() + direct.tasks.size() +
                          direct.comms.size() + direct.warnings.size();
  const StoreCatalog::Snapshot snap = catalog.snapshot();
  const prov::RunId id{"chaos", 0};
  for (const ViewId view : {ViewId::kTasks, ViewId::kTransitions,
                            ViewId::kComms, ViewId::kWarnings,
                            ViewId::kSteals}) {
    const auto frame = snap.frame(view, id);
    result.views[query::view_name(view)] = fingerprint(*frame);
    result.ingested_rows += frame->rows();
  }
  if (cluster.fault_injector()) {
    result.faults = cluster.fault_injector()->faults_injected();
    result.fault_counts = cluster.fault_injector()->counts();
  }
  return result;
}

// ---------------------------------------------------------------------------
// The oracle, over ten fixed seeds: randomized transport faults must not
// change any view by a single byte.

class ChaosOracle : public ::testing::TestWithParam<int> {};

TEST_P(ChaosOracle, ViewsIdenticalUnderTransportFaults) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const chaos::FaultPlan plan =
      chaos::FaultPlan::randomized_transport(1000 + seed, 0.06);

  const PipelineResult baseline = run_pipeline(seed, chaos::FaultPlan{});
  const PipelineResult faulty = run_pipeline(seed, plan);

  // The plan actually attacked the transport...
  EXPECT_GT(faulty.faults, 0u) << plan.describe();
  EXPECT_EQ(baseline.faults, 0u);
  // ...the workflow itself was unperturbed...
  EXPECT_EQ(faulty.direct_tasks, baseline.direct_tasks);
  EXPECT_EQ(faulty.direct_records, baseline.direct_records);
  // ...and every view survived byte-identical.
  ASSERT_EQ(faulty.views.size(), baseline.views.size());
  for (const auto& [name, expected] : baseline.views) {
    const auto it = faulty.views.find(name);
    ASSERT_NE(it, faulty.views.end()) << name;
    EXPECT_EQ(it->second, expected)
        << "view '" << name << "' diverged under " << plan.describe();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosOracle, ::testing::Range(1, 11));

// ---------------------------------------------------------------------------
// Scheduler byte-identity oracle (DESIGN.md §11): every derived view and the
// direct record counts of each seed are pinned to FNV-1a digests recorded
// from the scheduler before its intake queue, sharded task map and foreman
// tier were deleted (all of its topologies agreed on these bytes), with and
// without transport faults in flight. (The test names date from when each
// seed compared topologies.)

/// Digest of one pipeline run: its direct record counts and every view.
std::uint64_t pipeline_digest(const PipelineResult& result) {
  std::string text = "tasks=" + std::to_string(result.direct_tasks) +
                     " records=" + std::to_string(result.direct_records) +
                     " rows=" + std::to_string(result.ingested_rows) + "\n";
  for (const auto& [name, view] : result.views) {
    text += name;
    text += '\n';
    text += view;
  }
  return fnv1a64(text);
}

/// Seeds 1..10. Transport faults must not change a byte, so the faulty runs
/// share the fault-free digests.
constexpr std::uint64_t kViewDigests[10] = {
    0xab58d240df647d80ull, 0x0a859b7374769a76ull, 0x56b569bd35272538ull,
    0x18536bb580e287a3ull, 0xe04791a3c36f594aull, 0xe33e374839f0f8a5ull,
    0xd780382efbc37c44ull, 0xb63f6154af592394ull, 0x9f6304fca6fad493ull,
    0xdc0efe9e15efaeafull,
};

/// Failure note: how to re-record the digest of `seed` after an intended
/// change.
std::string rerecord_note(std::uint64_t seed, std::uint64_t digest) {
  char hex[24];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(digest));
  return "If the change is intended, re-record kViewDigests[" +
         std::to_string(seed - 1) + "] as " + hex + "ull.";
}

class SchedulerEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerEquivalence, ShardedHierarchicalViewsAreByteIdentical) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const std::uint64_t digest =
      pipeline_digest(run_pipeline(seed, chaos::FaultPlan{}));
  EXPECT_EQ(digest, kViewDigests[seed - 1])
      << "views of seed " << seed << " changed. "
      << rerecord_note(seed, digest);
}

TEST_P(SchedulerEquivalence, EquivalenceHoldsUnderTransportFaults) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const chaos::FaultPlan plan =
      chaos::FaultPlan::randomized_transport(1000 + seed, 0.06);
  const PipelineResult run = run_pipeline(seed, plan);
  EXPECT_GT(run.faults, 0u) << plan.describe();
  const std::uint64_t digest = pipeline_digest(run);
  EXPECT_EQ(digest, kViewDigests[seed - 1])
      << "views of seed " << seed << " under " << plan.describe()
      << " changed. " << rerecord_note(seed, digest);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerEquivalence, ::testing::Range(1, 11));

// A deliberately lossy configuration (drops injected, retries disabled)
// must fail the oracle: this proves the oracle can detect loss, i.e. the
// passing runs above are meaningful.
TEST(ChaosOracle, LossyPlanFailsTheOracle) {
  chaos::FaultPlan lossy;
  lossy.seed = 77;
  lossy.sites[chaos::sites::kMofkaPush].drop = 0.5;

  const PipelineResult baseline = run_pipeline(3, chaos::FaultPlan{});
  const PipelineResult dropped =
      run_pipeline(3, lossy, /*max_retries=*/0, /*batch_size=*/16);

  EXPECT_GT(dropped.faults, 0u);
  // Without retries, dropped batches are gone: strictly fewer rows arrive
  // and at least one view diverges from the fault-free baseline.
  EXPECT_LT(dropped.ingested_rows, baseline.ingested_rows);
  bool any_diverged = false;
  for (const auto& [name, expected] : baseline.views) {
    if (dropped.views.at(name) != expected) any_diverged = true;
  }
  EXPECT_TRUE(any_diverged);
}

// Replaying the same (cluster seed, plan) reproduces the exact same fault
// sequence and the exact same views — failing runs are debuggable offline.
TEST(ChaosOracle, ReplayFromSeedAndPlanIsDeterministic) {
  const chaos::FaultPlan plan = chaos::FaultPlan::randomized_transport(99, 0.1);
  const PipelineResult first = run_pipeline(5, plan);
  const PipelineResult second = run_pipeline(5, plan);

  EXPECT_GT(first.faults, 0u);
  EXPECT_EQ(second.faults, first.faults);
  EXPECT_EQ(second.fault_counts, first.fault_counts);
  EXPECT_EQ(second.views, first.views);
}

// ---------------------------------------------------------------------------
// FaultPlan / FaultInjector unit behaviour.

TEST(FaultPlan, JsonRoundTripReplaysIdenticalDecisions) {
  const chaos::FaultPlan plan =
      chaos::FaultPlan::randomized_transport(123, 0.25);
  const chaos::FaultPlan reloaded = chaos::FaultPlan::from_json(plan.to_json());
  EXPECT_EQ(reloaded.seed, plan.seed);
  ASSERT_EQ(reloaded.sites.size(), plan.sites.size());

  chaos::FaultInjector a(plan);
  chaos::FaultInjector b(reloaded);
  for (int i = 0; i < 500; ++i) {
    const std::uint32_t partition = static_cast<std::uint32_t>(i % 3);
    for (const char* site :
         {chaos::sites::kMofkaPush, chaos::sites::kMofkaConsumerPull}) {
      const chaos::FaultDecision da = a.decide(site, partition);
      const chaos::FaultDecision db = b.decide(site, partition);
      EXPECT_EQ(da.action, db.action);
      EXPECT_EQ(da.delay, db.delay);
    }
  }
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  EXPECT_EQ(a.counts(), b.counts());
}

TEST(FaultPlan, ScheduledFaultsFireOnExactHits) {
  chaos::FaultPlan plan;
  plan.seed = 1;
  chaos::SiteSpec& spec = plan.sites["unit.site"];
  spec.schedule.push_back({3, chaos::FaultAction::kDrop});
  spec.schedule.push_back({5, chaos::FaultAction::kTransientError});

  chaos::FaultInjector injector(plan);
  std::vector<chaos::FaultAction> seen;
  for (int i = 0; i < 7; ++i) seen.push_back(injector.decide("unit.site").action);
  const std::vector<chaos::FaultAction> expected = {
      chaos::FaultAction::kNone,           chaos::FaultAction::kNone,
      chaos::FaultAction::kDrop,           chaos::FaultAction::kNone,
      chaos::FaultAction::kTransientError, chaos::FaultAction::kNone,
      chaos::FaultAction::kNone};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(injector.faults_injected(), 2u);
  EXPECT_EQ(injector.hits("unit.site"), 7u);
}

TEST(FaultPlan, PartitionOutageWindowAndIsolation) {
  chaos::FaultPlan plan;
  plan.seed = 9;
  chaos::SiteSpec& spec = plan.sites["part.site"];
  spec.schedule.push_back({2, chaos::FaultAction::kPartitionUnavailable});
  spec.unavailable_hits = 3;

  chaos::FaultInjector injector(plan);
  std::vector<chaos::FaultAction> p0;
  for (int i = 0; i < 7; ++i) p0.push_back(injector.decide("part.site", 0).action);
  // Hit 2 opens the outage; hits 3..5 fall inside the window; hit 6 recovers.
  const auto kUnavailable = chaos::FaultAction::kPartitionUnavailable;
  const std::vector<chaos::FaultAction> expected = {
      chaos::FaultAction::kNone, kUnavailable, kUnavailable,
      kUnavailable,              kUnavailable, chaos::FaultAction::kNone,
      chaos::FaultAction::kNone};
  EXPECT_EQ(p0, expected);
  // The outage is scoped to partition 0: partition 1 keeps its own hit
  // counter and schedule, so only its own 2nd hit faults.
  EXPECT_EQ(injector.decide("part.site", 1).action, chaos::FaultAction::kNone);
  EXPECT_EQ(injector.decide("part.site", 1).action, kUnavailable);
}

TEST(FaultPlan, DescribeAndActionNamesRoundTrip) {
  for (const chaos::FaultAction action :
       {chaos::FaultAction::kNone, chaos::FaultAction::kDrop,
        chaos::FaultAction::kDuplicate, chaos::FaultAction::kReorder,
        chaos::FaultAction::kDelay, chaos::FaultAction::kTransientError,
        chaos::FaultAction::kPartitionUnavailable,
        chaos::FaultAction::kThreadKill}) {
    EXPECT_EQ(chaos::action_from_string(chaos::to_string(action)), action);
  }
  EXPECT_THROW(chaos::action_from_string("no_such_action"),
               std::invalid_argument);
  const chaos::FaultPlan plan = chaos::FaultPlan::randomized_transport(7);
  EXPECT_NE(plan.describe().find("seed=7"), std::string::npos);
  EXPECT_NE(plan.describe().find(chaos::sites::kMofkaPush), std::string::npos);
}

// ---------------------------------------------------------------------------
// Producer / broker delivery semantics under injected faults.

struct MofkaRig {
  MofkaRig() : broker(kv, blobs) {}

  void install(chaos::FaultPlan plan) {
    injector = std::make_shared<chaos::FaultInjector>(std::move(plan));
    broker.set_fault_injector(injector);
  }

  mochi::KeyValueStore kv;
  mochi::BlobStore blobs;
  mofka::Broker broker;
  std::shared_ptr<chaos::FaultInjector> injector;
};

json::Value numbered(int i) {
  json::Object o;
  o["i"] = static_cast<std::int64_t>(i);
  return json::Value(std::move(o));
}

TEST(ChaosDelivery, RetriesDeliverEveryEventExactlyOnce) {
  MofkaRig rig;
  rig.broker.create_topic("t", 2);
  chaos::FaultPlan plan;
  plan.seed = 4242;
  chaos::SiteSpec& push = plan.sites[chaos::sites::kMofkaPush];
  push.drop = 0.2;
  push.duplicate = 0.2;
  push.transient_error = 0.2;
  rig.install(plan);

  mofka::ProducerConfig config;
  config.batch_size = 8;
  config.max_retries = 32;
  mofka::Producer producer(rig.broker, "t", config);
  constexpr int kEvents = 200;
  for (int i = 0; i < kEvents; ++i) producer.push(numbered(i));
  producer.flush();

  // Exactly-once storage despite drops and lost acks.
  EXPECT_EQ(rig.broker.partition_size("t", 0) + rig.broker.partition_size("t", 1),
            static_cast<mofka::EventId>(kEvents));
  const mofka::ProducerStats stats = producer.stats();
  EXPECT_EQ(stats.pushed, static_cast<std::uint64_t>(kEvents));
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(stats.events_failed, 0u);
  // Lost acks forced re-sends the broker absorbed. The producer only sees
  // the duplicates acked on a retry that itself succeeded, so its count is
  // a lower bound on the broker's (a re-sent batch can fault again after
  // the broker already absorbed its duplicates).
  EXPECT_GT(rig.broker.topic_stats("t").duplicates_absorbed, 0u);
  EXPECT_GT(stats.duplicates_acked, 0u);
  EXPECT_LE(stats.duplicates_acked,
            rig.broker.topic_stats("t").duplicates_absorbed);

  // Each payload arrived exactly once.
  mofka::Consumer consumer(rig.broker, "t", "verify");
  std::multiset<std::int64_t> payloads;
  for (const mofka::Event& event : consumer.pull_all()) {
    payloads.insert(event.metadata.at("i").as_int());
  }
  ASSERT_EQ(payloads.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) {
    EXPECT_EQ(payloads.count(i), 1u) << "event " << i;
  }
}

TEST(ChaosDelivery, NonTransientErrorsAreNotRetried) {
  // A non-durable broker loses its topics in a restart, so the buffered
  // event's append fails for good: retrying cannot bring the topic back.
  MofkaRig rig;
  rig.broker.create_topic("gone");
  mofka::Producer producer(rig.broker, "gone", mofka::ProducerConfig{4});
  auto future = producer.push(numbered(0));
  rig.broker.crash_and_recover();
  producer.flush();
  try {
    (void)future.get();
    ADD_FAILURE() << "the append to a lost topic was acked";
  } catch (const mofka::MofkaError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown topic gone"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(producer.stats().retries, 0u);
  EXPECT_EQ(producer.stats().events_failed, 1u);
}

TEST(ChaosDelivery, ConsumerDedupFiltersInjectedRedeliveries) {
  MofkaRig rig;
  rig.broker.create_topic("dup");
  {
    mofka::Producer producer(rig.broker, "dup", mofka::ProducerConfig{16});
    for (int i = 0; i < 150; ++i) producer.push(numbered(i));
  }  // destructor flushes

  chaos::FaultPlan plan;
  plan.seed = 31337;
  chaos::SiteSpec& pull = plan.sites[chaos::sites::kMofkaConsumerPull];
  pull.duplicate = 0.3;
  pull.drop = 0.2;
  rig.install(plan);

  // A consumer reads by offset, so an injected duplicate costs it nothing:
  // each event comes back once, in offset order, and the data selector
  // runs once per delivered event (no redelivery is fetched to be dropped).
  std::uint64_t selections = 0;
  mofka::ConsumerConfig config;
  config.selector = [&selections](const json::Value&) {
    ++selections;
    return mofka::DataSelection{};
  };
  mofka::Consumer consumer(rig.broker, "dup", "clean", config);
  const std::vector<mofka::Event> events = consumer.pull_all();
  ASSERT_EQ(events.size(), 150u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, i);
    EXPECT_EQ(events[i].metadata.get_int("i", -1),
              static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(selections, 150u);
  const auto counts = rig.injector->counts();
  EXPECT_GT(counts.count("duplicate") ? counts.at("duplicate") : 0u, 0u);
  EXPECT_GT(counts.count("drop") ? counts.at("drop") : 0u, 0u);
}

TEST(ChaosDelivery, BackpressureBoundsInFlightEvents) {
  MofkaRig rig;
  rig.broker.create_topic("bp");
  mofka::ProducerConfig config;
  config.batch_size = 2 * mofka::kMaxInFlight;  // never size-triggered
  mofka::Producer producer(rig.broker, "bp", config);
  const int events = static_cast<int>(mofka::kMaxInFlight) + 100;
  for (int i = 0; i < events; ++i) producer.push(numbered(i));
  // Reaching the bound flushed the first kMaxInFlight events.
  EXPECT_EQ(rig.broker.partition_size("bp", 0), mofka::kMaxInFlight);
  producer.flush();
  EXPECT_EQ(rig.broker.partition_size("bp", 0),
            static_cast<mofka::EventId>(events));
  EXPECT_EQ(producer.stats().backpressure_flushes, 1u);
}

// ---------------------------------------------------------------------------
// The flush/teardown barrier: flush() must wait for batches that another
// thread is flushing, and the destructor must deliver everything still
// buffered. Regression tests for the teardown race where the destructor
// could return while another thread's flush was still appending.

TEST(ChaosDelivery, FlushWaitsForInFlightBackgroundBatch) {
  MofkaRig rig;
  rig.broker.create_topic("barrier");
  chaos::FaultPlan plan;
  plan.seed = 11;
  chaos::SiteSpec& push = plan.sites[chaos::sites::kMofkaPush];
  push.delay = 1.0;  // every append sleeps
  push.delay_min = std::chrono::microseconds(20000);
  push.delay_max = std::chrono::microseconds(20000);
  rig.install(plan);

  mofka::Producer producer(rig.broker, "barrier", mofka::ProducerConfig{8});
  // A second thread pushes one full batch, whose size-triggered flush
  // sleeps in the injected 20 ms append delay.
  std::thread pusher([&producer] {
    for (int i = 0; i < 8; ++i) producer.push(numbered(i));
  });
  // Wait (bounded) until that flush has started — a fixed sleep would race
  // the pusher on a loaded machine...
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (producer.stats().size_triggered_flushes == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // ...then flush() on this thread must not return until that batch landed.
  producer.flush();
  const mofka::EventId landed = rig.broker.partition_size("barrier", 0);
  pusher.join();
  EXPECT_EQ(landed, 8u);
  EXPECT_EQ(producer.stats().size_triggered_flushes, 1u);
}

TEST(ChaosDelivery, DestructorDeliversBufferedEvents) {
  MofkaRig rig;
  rig.broker.create_topic("dtor");
  {
    mofka::Producer producer(rig.broker, "dtor", mofka::ProducerConfig{1024});
    for (int i = 0; i < 5; ++i) producer.push(numbered(i));
    // No flush: the destructor owes us delivery.
  }
  EXPECT_EQ(rig.broker.partition_size("dtor", 0), 5u);
}

// ---------------------------------------------------------------------------
// Ingestor crash recovery: consumed-but-unpublished events survive a crash
// (cursors only move on publish), and re-publishing after cursor loss never
// double-publishes a run.

dtr::RunData produce_synthetic_run(mofka::Broker& broker,
                                   const std::string& workflow, int n) {
  dtr::RunData run;
  run.meta.workflow = workflow;
  run.meta.run_index = 0;
  for (int i = 0; i < n; ++i) {
    dtr::TaskRecord t;
    t.key = {"job-" + workflow, i};
    t.graph = "g0";
    t.prefix = "ingest";
    t.worker = static_cast<dtr::WorkerId>(i % 2);
    t.start_time = i;
    t.end_time = i + 0.5;
    run.tasks.push_back(t);
  }
  dtr::WarningRecord w;
  w.kind = "gc_collection";
  w.location = "worker-0";
  w.time = 0.25;
  run.warnings.push_back(w);

  const mofka::ProducerConfig config{8};
  mofka::Producer tasks(broker, "wms_tasks", config);
  mofka::Producer warnings(broker, "wms_warnings", config);
  for (const auto& r : run.tasks) tasks.push(dtr::to_json(r));
  for (const auto& r : run.warnings) warnings.push(dtr::to_json(r));
  tasks.flush();
  warnings.flush();
  return run;
}

TEST(ChaosIngest, CrashBeforePublishLosesNothing) {
  mochi::KeyValueStore kv;
  mochi::BlobStore blobs;
  mofka::Broker broker(kv, blobs);
  dtr::create_wms_topics(broker);
  const dtr::RunData run = produce_synthetic_run(broker, "crashy", 12);

  StoreCatalog catalog;
  {
    LiveIngestor doomed(broker, catalog);
    EXPECT_GT(doomed.poll(), 0u);
    // Crash: destroyed with pending events, before publish — no cursors
    // were committed, so nothing is lost.
  }
  LiveIngestor survivor(broker, catalog);
  survivor.publish(run.meta);

  const StoreCatalog::Snapshot snap = catalog.snapshot();
  const auto frame = snap.frame(ViewId::kTasks, {"crashy", 0});
  EXPECT_EQ(frame->rows(), run.tasks.size());
  EXPECT_EQ(snap.frame(ViewId::kWarnings, {"crashy", 0})->rows(),
            run.warnings.size());
}

TEST(ChaosIngest, CursorLossCannotDoublePublish) {
  mochi::KeyValueStore kv;
  mochi::BlobStore blobs;
  mofka::Broker broker(kv, blobs);
  dtr::create_wms_topics(broker);
  const dtr::RunData run = produce_synthetic_run(broker, "twice", 10);

  StoreCatalog catalog;
  LiveIngestor first(broker, catalog);
  const query::Epoch epoch = first.publish(run.meta);
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(first.stats().runs_published, 1u);

  // A recovering ingestor whose cursors were lost (different group) re-reads
  // the topics from offset zero and re-publishes the same run id: the
  // catalog's idempotent add_run absorbs it without bumping the epoch.
  LiveIngestor recovered(broker, catalog, "recup_query_ingest_recovered");
  const query::Epoch after = recovered.publish(run.meta);
  EXPECT_EQ(after, 1u);
  EXPECT_EQ(recovered.stats().runs_published, 0u);
  {
    // Scoped: a live Snapshot holds a reader lock, and publish's add_run
    // takes the writer lock — holding one across a publish on the same
    // thread would deadlock by design.
    const StoreCatalog::Snapshot snap = catalog.snapshot();
    EXPECT_EQ(snap.runs(std::nullopt, std::nullopt).size(), 1u);
    EXPECT_EQ(snap.frame(ViewId::kTasks, {"twice", 0})->rows(),
              run.tasks.size());
  }

  // Same-group re-publish with no new events is equally a no-op.
  const query::Epoch again = first.publish(run.meta);
  EXPECT_EQ(again, 1u);
}

// ---------------------------------------------------------------------------
// Worker thread-kill faults: the chaos plan can kill workers mid-run; SSG
// detects the deaths and the scheduler recovers, so the workflow completes
// (or dead-letters) — and everything remains replayable from (seed, plan).

// This exact (plan seed, cluster seed) is also a regression test: before the
// scheduler learned to recompute in-memory results whose replicas all died
// before a dependent graph was submitted (and to revalidate queued tasks in
// drain_queue), this combination threw "dispatching task with unmet
// dependency" out of Cluster::run.
TEST(ChaosWorker, ThreadKillFaultsAreRecoveredByTheScheduler) {
  chaos::FaultPlan plan;
  plan.seed = 606;
  plan.sites[chaos::sites::kDtrWorker].thread_kill = 0.02;

  dtr::ClusterConfig config;
  config.job.nodes = 2;
  config.job.workers_per_node = 2;
  config.job.threads_per_worker = 2;
  config.seed = 21;
  config.enable_gpuprof = false;
  config.fault_plan = plan;

  dtr::Cluster cluster(config);
  const dtr::RunData run = cluster.run(workload(), "killer", 0);

  // At least one worker was killed by the injector (deterministic for this
  // seed/plan), and at least one survived to finish the workflow.
  std::size_t dead = 0;
  for (std::size_t i = 0; i < cluster.worker_count(); ++i) {
    if (!cluster.scheduler().worker_alive(static_cast<dtr::WorkerId>(i))) {
      ++dead;
    }
  }
  EXPECT_GT(dead, 0u);
  EXPECT_LT(dead, cluster.worker_count());
  ASSERT_TRUE(cluster.fault_injector());
  const auto counts = cluster.fault_injector()->counts();
  const auto kills = counts.find("thread_kill");
  ASSERT_NE(kills, counts.end());
  EXPECT_GE(kills->second, dead);

  // Every task either produced a completion record or was dead-lettered
  // with a warning row. Recomputed tasks append additional records, so the
  // record count may exceed the 24 submitted tasks — coverage is judged on
  // distinct keys.
  std::set<std::string> completed;
  for (const auto& record : run.tasks) completed.insert(record.key.to_string());
  std::vector<std::string> dead_letters;
  for (const auto& w : run.warnings) {
    if (w.kind == "dead_letter") dead_letters.push_back(w.message);
  }
  for (const auto& graph : workload()) {
    for (const auto& [key, spec] : graph.tasks()) {
      const std::string name = key.to_string();
      const bool done = completed.count(name) != 0;
      const bool lettered =
          std::any_of(dead_letters.begin(), dead_letters.end(),
                      [&name](const std::string& message) {
                        return message.find(name) != std::string::npos;
                      });
      EXPECT_TRUE(done || lettered) << "task " << name
                                    << " neither completed nor dead-lettered";
    }
  }
  EXPECT_GE(run.tasks.size(), 24u);
}

}  // namespace
}  // namespace recup
