// recup::datastore tests — the out-of-band data plane.
//
// Layers under test, bottom up: warabi's logical-size stand-in regions, the
// binary proxy + fetch-frame codec, the DataStore's publish/fetch/ownership
// semantics (validation, repin on owner death, replica drops), a real-thread
// concurrency smoke for the sanitizer passes, and the cluster-level
// acceptance oracles: a fault-free run with
// the datastore enabled is byte-identical to the inline path in the paper's
// figure views while moving >= 5x fewer bytes over the scheduler path, and
// the 10-seed chaos oracle holds under randomized datastore.fetch faults.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/figures.hpp"
#include "chaos/fault.hpp"
#include "datastore/store.hpp"
#include "datastore/wire.hpp"
#include "dtr/cluster.hpp"
#include "mochi/warabi.hpp"
#include "query/catalog.hpp"
#include "query/ingest.hpp"
#include "wire/codec.hpp"

namespace recup {
namespace {

using datastore::DataStore;
using datastore::FetchStatus;
using datastore::Proxy;

// ---------------------------------------------------------------------------
// Warabi stand-in regions: a shard stores a bounded physical payload and the
// logical size that fetch validation checks against the proxy.

TEST(WarabiCapacity, LogicalSizeStandInDrivesAccounting) {
  mochi::BlobStore store("logical");
  const auto region =
      store.create_sealed("tiny-physical", /*logical_size=*/64 << 20);
  EXPECT_EQ(store.logical_size(region), 64u << 20);
  EXPECT_EQ(store.size(region), std::string("tiny-physical").size());
  // Reads serve the physical stand-in, clamped to its stored bytes.
  EXPECT_EQ(store.read(region), "tiny-physical");
  EXPECT_EQ(store.read(region, 5, 1000), "physical");
}

// ---------------------------------------------------------------------------
// Proxy + fetch-frame wire codec.

TEST(DatastoreWire, ProxyRoundTripsAndRejectsTrailingBytes) {
  Proxy proxy;
  proxy.shard = 7;
  proxy.node = 3;
  proxy.region = 0x1234567890ULL;
  proxy.size = 5ULL << 30;
  proxy.fingerprint = 0xDEADBEEFCAFEF00DULL;
  const std::string bytes = datastore::encode_proxy(proxy);
  EXPECT_EQ(datastore::decode_proxy(bytes), proxy);
  // The control plane ships proxies instead of multi-GiB payloads: the
  // encoding must stay tiny.
  EXPECT_LE(bytes.size(), 64u);
  EXPECT_THROW((void)datastore::decode_proxy(bytes + "x"), wire::WireError);
}

TEST(DatastoreWire, TruncatedOrMistaggedProxyThrows) {
  const std::string bytes = datastore::encode_proxy(Proxy{1, 1, 42, 100, 99});
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW((void)datastore::decode_proxy(bytes.substr(0, cut)),
                 wire::WireError)
        << "prefix of " << cut << " bytes decoded";
  }
  std::string mistagged = bytes;
  mistagged[0] = static_cast<char>(0x7F);
  EXPECT_THROW((void)datastore::decode_proxy(mistagged), wire::WireError);
}

TEST(DatastoreWire, FetchFramesRoundTripAndRejectTruncation) {
  datastore::FetchRequest request;
  request.key = "produce-aa/3";
  request.source = 2;
  request.region = 17;
  request.offset = 128;
  request.length = 4096;
  const std::string req_frame = datastore::encode_fetch_request(request);
  std::size_t pos = 0;
  const datastore::FetchRequest req2 =
      datastore::decode_fetch_request(req_frame, pos);
  EXPECT_EQ(pos, req_frame.size());
  EXPECT_EQ(req2.key, request.key);
  EXPECT_EQ(req2.source, request.source);
  EXPECT_EQ(req2.region, request.region);
  EXPECT_EQ(req2.offset, request.offset);
  EXPECT_EQ(req2.length, request.length);

  datastore::FetchResponse response;
  response.status = FetchStatus::kOk;
  response.logical_size = 1 << 20;
  response.fingerprint = 0xABCDEF;
  response.payload = "canonical-bytes";
  const std::string resp_frame = datastore::encode_fetch_response(response);
  pos = 0;
  const datastore::FetchResponse resp2 =
      datastore::decode_fetch_response(resp_frame, pos);
  EXPECT_EQ(resp2.status, response.status);
  EXPECT_EQ(resp2.logical_size, response.logical_size);
  EXPECT_EQ(resp2.fingerprint, response.fingerprint);
  EXPECT_EQ(resp2.payload, response.payload);

  // Every strict prefix is rejected — a truncated frame can never decode
  // into a shorter-but-valid response.
  for (std::size_t cut = 0; cut < resp_frame.size(); ++cut) {
    std::size_t p = 0;
    EXPECT_THROW(
        (void)datastore::decode_fetch_response(resp_frame.substr(0, cut), p),
        wire::WireError);
  }
}

// ---------------------------------------------------------------------------
// DataStore semantics.

TEST(DataStoreTest, ThresholdSplitsInlineFromOob) {
  DataStore store;
  store.add_shard(0, 0);
  EXPECT_FALSE(store.oob(0));
  EXPECT_FALSE(store.oob(4095));
  EXPECT_TRUE(store.oob(4096));
  EXPECT_TRUE(store.oob(1ULL << 40));

  // Below the threshold publish is inert (inline accounting only).
  const Proxy none = store.publish("small", 0, 100);
  EXPECT_FALSE(none.valid());
  EXPECT_FALSE(store.proxy_for("small").has_value());
  store.note_inline(50);
  EXPECT_EQ(store.stats().inline_results, 2u);
  EXPECT_EQ(store.stats().inline_bytes, 150u);
}

TEST(DataStoreTest, PublishPinsOwnerCopyAndFetchInstallsReplica) {
  DataStore store;
  store.add_shard(0, 0);
  store.add_shard(1, 1);
  const std::uint64_t bytes = 8 << 20;
  const Proxy proxy = store.publish("produce-aa/0", 0, bytes);
  ASSERT_TRUE(proxy.valid());
  EXPECT_EQ(proxy.shard, 0u);
  EXPECT_EQ(proxy.node, 0u);
  EXPECT_EQ(proxy.size, bytes);
  EXPECT_EQ(proxy.fingerprint, DataStore::fingerprint_of("produce-aa/0", bytes));
  EXPECT_TRUE(store.shard_store(0).exists(proxy.region));
  EXPECT_EQ(store.shard_store(0).logical_size(proxy.region), bytes);

  EXPECT_EQ(store.fetch("produce-aa/0", 0, 1), FetchStatus::kOk);
  EXPECT_EQ(store.replicas("produce-aa/0"),
            (std::vector<datastore::ShardId>{0, 1}));
  // Fetch is idempotent and a re-fetch costs no second wire round-trip.
  const auto wire_bytes = store.stats().fetch_wire_bytes;
  EXPECT_GT(wire_bytes, 0u);
  EXPECT_EQ(store.fetch("produce-aa/0", 0, 1), FetchStatus::kOk);
  EXPECT_EQ(store.stats().fetch_wire_bytes, wire_bytes);
  EXPECT_EQ(store.stats().fetches, 1u);

  // An unknown key or a source without a copy is kMissing, not a crash.
  EXPECT_EQ(store.fetch("no-such-key", 0, 1), FetchStatus::kMissing);
}

TEST(DataStoreTest, RepublishTransfersOwnershipAndDropsStaleCopies) {
  DataStore store;
  store.add_shard(0, 0);
  store.add_shard(1, 1);
  const Proxy first = store.publish("stolen-bb/0", 0, 1 << 20);
  ASSERT_TRUE(first.valid());
  // A steal lands the recompute on shard 1: it republishes, shard 0's stale
  // copy is dropped, and ownership moves.
  const Proxy second = store.publish("stolen-bb/0", 1, 1 << 20);
  ASSERT_TRUE(second.valid());
  EXPECT_EQ(second.shard, 1u);
  EXPECT_FALSE(store.shard_store(0).exists(first.region));
  ASSERT_TRUE(store.proxy_for("stolen-bb/0").has_value());
  EXPECT_EQ(store.proxy_for("stolen-bb/0")->shard, 1u);
  EXPECT_EQ(store.stats().republishes, 1u);
  EXPECT_EQ(store.stats().ownership_transfers, 1u);
}

TEST(DataStoreTest, OwnerDeathRepinsToSurvivingReplica) {
  DataStore store;
  store.add_shard(0, 0);
  store.add_shard(1, 1);
  store.add_shard(2, 1);
  store.publish("repin-dd/0", 0, 1 << 20);
  ASSERT_EQ(store.fetch("repin-dd/0", 0, 2), FetchStatus::kOk);
  store.kill_shard(0);
  // Ownership moved to the lowest-id surviving replica.
  ASSERT_TRUE(store.proxy_for("repin-dd/0").has_value());
  const Proxy after = *store.proxy_for("repin-dd/0");
  EXPECT_EQ(after.shard, 2u);
  EXPECT_TRUE(store.shard_store(2).exists(after.region));
  EXPECT_EQ(store.stats().repins, 1u);
  // Fetching from the dead shard reports kMissing (callers pick the new
  // owner from the refreshed proxy).
  EXPECT_EQ(store.fetch("repin-dd/0", 0, 1), FetchStatus::kMissing);
  EXPECT_EQ(store.fetch("repin-dd/0", 2, 1), FetchStatus::kOk);
}

TEST(DataStoreTest, OwnerDeathWithNoReplicaLosesTheEntry) {
  DataStore store;
  store.add_shard(0, 0);
  store.add_shard(1, 1);
  store.publish("lost-ee/0", 0, 1 << 20);
  store.kill_shard(0);
  // No surviving copy: the entry vanishes so the scheduler's lost-key
  // recovery recomputes the producer; a later publish re-creates it.
  EXPECT_FALSE(store.proxy_for("lost-ee/0").has_value());
  EXPECT_EQ(store.stats().lost_entries, 1u);
  EXPECT_EQ(store.fetch("lost-ee/0", 0, 1), FetchStatus::kMissing);
  const Proxy again = store.publish("lost-ee/0", 1, 1 << 20);
  EXPECT_TRUE(again.valid());
  EXPECT_EQ(store.proxy_for("lost-ee/0")->shard, 1u);
}

TEST(DataStoreTest, TransportFaultsAreAbsorbedAndNeverInstallTruncatedBytes) {
  chaos::FaultPlan plan;
  plan.seed = 5150;
  chaos::SiteSpec& site = plan.sites[chaos::sites::kDatastoreFetch];
  // First four wire attempts: two lost frames, two truncated responses.
  site.schedule.push_back({1, chaos::FaultAction::kDrop});
  site.schedule.push_back({2, chaos::FaultAction::kReorder});
  site.schedule.push_back({3, chaos::FaultAction::kTransientError});
  site.schedule.push_back({4, chaos::FaultAction::kReorder});
  chaos::FaultInjector injector(plan);

  DataStore store(&injector);
  store.add_shard(0, 0);
  store.add_shard(1, 1);
  store.publish("flaky-ff/0", 0, 1 << 20);
  EXPECT_EQ(store.fetch("flaky-ff/0", 0, 1), FetchStatus::kOk);
  const auto stats = store.stats();
  EXPECT_EQ(stats.fetch_retries, 4u);
  // The two truncated responses were caught by frame/fingerprint validation
  // — the replica installed on attempt five is the full validated payload.
  EXPECT_EQ(stats.validation_failures, 2u);
  EXPECT_EQ(stats.fetches, 1u);
  EXPECT_EQ(stats.fetch_failures, 0u);
  // The installed replica holds the full validated payload: serving a
  // second consumer *from shard 1* passes fingerprint validation.
  store.add_shard(2, 2);
  EXPECT_EQ(store.fetch("flaky-ff/0", 1, 2), FetchStatus::kOk);
}

TEST(DataStoreTest, RetryBudgetExhaustionIsUnavailableNotCorrupt) {
  chaos::FaultPlan plan;
  plan.seed = 2;
  plan.sites[chaos::sites::kDatastoreFetch].drop = 1.0;  // every attempt
  chaos::FaultInjector injector(plan);
  DataStore store(&injector);
  store.add_shard(0, 0);
  store.add_shard(1, 1);
  store.publish("dead-link-gg/0", 0, 1 << 20);
  EXPECT_EQ(store.fetch("dead-link-gg/0", 0, 1), FetchStatus::kUnavailable);
  EXPECT_EQ(store.stats().fetch_failures, 1u);
  // The initial try plus every retry faulted.
  EXPECT_EQ(store.stats().fetch_retries, datastore::kMaxFetchRetries + 1);
  // Nothing was installed on the requester.
  EXPECT_EQ(store.replicas("dead-link-gg/0"),
            (std::vector<datastore::ShardId>{0}));
}

TEST(DataStoreTest, ChaosEvictWithoutSpillDropsReplicaAndFetchReportsMissing) {
  DataStore store;
  store.add_shard(0, 0);
  store.add_shard(1, 1);
  store.add_shard(2, 2);
  store.publish("droppy-ii/0", 0, 1 << 20);
  ASSERT_EQ(store.fetch("droppy-ii/0", 0, 1), FetchStatus::kOk);
  // The scheduler's missing-dependency path drops shard 1's replica: its
  // region (shard 1's first) is freed and its registration goes with it.
  store.drop_replica("droppy-ii/0", 1);
  EXPECT_EQ(store.replicas("droppy-ii/0"),
            (std::vector<datastore::ShardId>{0}));
  EXPECT_FALSE(store.shard_store(1).exists(1));
  EXPECT_EQ(store.stats().replica_drops, 1u);
  // The owner's copy is never dropped this way.
  store.drop_replica("droppy-ii/0", 0);
  EXPECT_EQ(store.replicas("droppy-ii/0"),
            (std::vector<datastore::ShardId>{0}));
  EXPECT_EQ(store.stats().replica_drops, 1u);
  // A consumer that raced the drop and still believes in shard 1 gets
  // kMissing and falls back to the owner.
  EXPECT_EQ(store.fetch("droppy-ii/0", 1, 2), FetchStatus::kMissing);
  EXPECT_EQ(store.fetch("droppy-ii/0", 0, 2), FetchStatus::kOk);
}

// ---------------------------------------------------------------------------
// Real-thread concurrency smoke (exercised under ASan/UBSan and TSan by
// tools/run_checks.sh): publishers, fetchers, and a replica dropper hammer
// one DataStore concurrently; the store's mutex plus warabi's per-shard
// lock must keep every invariant intact with no data races.

TEST(DataStoreConcurrency, ParallelPublishFetchEvictSmoke) {
  DataStore store;
  constexpr int kShards = 4;
  for (int s = 0; s < kShards; ++s) {
    store.add_shard(static_cast<datastore::ShardId>(s), s % 2);
  }
  constexpr int kKeys = 32;
  const auto key_name = [](int k) { return "conc-kk/" + std::to_string(k); };

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Publishers: each owns a shard and (re)publishes its slice of keys.
  for (int s = 0; s < 2; ++s) {
    threads.emplace_back([&, s] {
      for (int round = 0; round < 50; ++round) {
        for (int k = s; k < kKeys; k += 2) {
          store.publish(key_name(k), static_cast<datastore::ShardId>(s),
                        4096 + static_cast<std::uint64_t>(k) * 17);
        }
      }
    });
  }
  // Fetchers: pull whatever currently resolves into shards 2 and 3.
  for (int s = 2; s < kShards; ++s) {
    threads.emplace_back([&, s] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < kKeys; ++k) {
          const auto proxy = store.proxy_for(key_name(k));
          if (!proxy) continue;
          (void)store.fetch(key_name(k), proxy->shard,
                            static_cast<datastore::ShardId>(s));
        }
      }
    });
  }
  // Dropper: frees the consumer shards' replicas as the fetchers land them.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (int k = 0; k < kKeys; ++k) {
        store.drop_replica(key_name(k), 2);
        store.drop_replica(key_name(k), 3);
      }
      std::this_thread::yield();
    }
  });

  threads[0].join();
  threads[1].join();
  stop.store(true);
  for (std::size_t i = 2; i < threads.size(); ++i) threads[i].join();

  // Terminal invariants: every key resolves to an owner copy whose logical
  // size matches, and no validation failure ever fired (fetch never
  // observed torn bytes).
  for (int k = 0; k < kKeys; ++k) {
    const auto proxy = store.proxy_for(key_name(k));
    ASSERT_TRUE(proxy.has_value()) << key_name(k);
    EXPECT_EQ(proxy->size, 4096 + static_cast<std::uint64_t>(k) * 17);
  }
  EXPECT_EQ(store.stats().validation_failures, 0u);
  EXPECT_EQ(store.stats().fetch_failures, 0u);
}

// ---------------------------------------------------------------------------
// Cluster-level acceptance: a fault-free run with the datastore enabled is
// byte-identical to the inline path in the paper's figure views, while the
// scheduler path carries >= 5x fewer bytes at the 4 KiB threshold.

std::vector<dtr::TaskGraph> cluster_workload() {
  dtr::TaskGraph g1("produce");
  for (int i = 0; i < 12; ++i) {
    dtr::TaskSpec t;
    t.key = {"produce-ca11", i};
    t.work.compute = 0.02;
    t.work.output_bytes = 1 << 20;  // >= threshold: goes out-of-band
    g1.add_task(t);
  }
  dtr::TaskGraph g2("consume");
  for (int i = 0; i < 12; ++i) {
    dtr::TaskSpec t;
    t.key = {"consume-fe55", i};
    // Fan-in across producers: the cost-based scheduler can co-locate a
    // consumer with at most one of them, so the others are fetched across
    // workers — the transfers this test is about.
    t.dependencies.push_back({"produce-ca11", i});
    t.dependencies.push_back({"produce-ca11", (i + 1) % 12});
    t.dependencies.push_back({"produce-ca11", (i + 5) % 12});
    t.work.compute = 0.02;
    t.work.output_bytes = 1 << 10;  // below threshold: stays inline
    g2.add_task(t);
  }
  std::vector<dtr::TaskGraph> graphs;
  graphs.push_back(std::move(g1));
  graphs.push_back(std::move(g2));
  return graphs;
}

dtr::ClusterConfig cluster_config(std::uint64_t seed) {
  dtr::ClusterConfig config;
  config.job.nodes = 2;
  config.job.workers_per_node = 2;
  config.job.threads_per_worker = 2;
  config.seed = seed;
  config.enable_gpuprof = false;
  return config;
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

TEST(DataStoreCluster, OobRunIsByteIdenticalToInlineInFigureViews) {
  dtr::ClusterConfig oob_config = cluster_config(7);
  ASSERT_TRUE(oob_config.enable_datastore);  // the default
  dtr::Cluster oob_cluster(oob_config);
  const dtr::RunData oob = oob_cluster.run(cluster_workload(), "oob", 0);

  dtr::ClusterConfig inline_config = cluster_config(7);
  inline_config.enable_datastore = false;  // pre-datastore path
  dtr::Cluster inline_cluster(inline_config);
  const dtr::RunData base = inline_cluster.run(cluster_workload(), "oob", 0);

  // Identical timing/placement behaviour: the figure views (which carry
  // every timing, size, and locality column) match byte for byte.
  EXPECT_EQ(fingerprint(analysis::figure5_frame(oob)),
            fingerprint(analysis::figure5_frame(base)));
  EXPECT_EQ(fingerprint(analysis::figure6_frame(oob)),
            fingerprint(analysis::figure6_frame(base)));
  ASSERT_EQ(oob.tasks.size(), base.tasks.size());
  ASSERT_EQ(oob.comms.size(), base.comms.size());

  // The provenance split: every >= 4 KiB result went out-of-band, every
  // smaller one stayed inline, and at most one of the two is nonzero.
  std::uint64_t oob_bytes = 0;
  std::uint64_t inline_bytes = 0;
  for (const auto& t : oob.tasks) {
    EXPECT_TRUE(t.bytes_oob == 0 || t.bytes_inline == 0);
    EXPECT_EQ(t.bytes_oob + t.bytes_inline, t.output_bytes);
    if (t.output_bytes >= datastore::kInlineThreshold) {
      EXPECT_EQ(t.bytes_oob, t.output_bytes) << t.key.to_string();
    } else {
      EXPECT_EQ(t.bytes_inline, t.output_bytes) << t.key.to_string();
    }
    oob_bytes += t.bytes_oob;
    inline_bytes += t.bytes_inline;
  }
  for (const auto& t : base.tasks) {
    EXPECT_EQ(t.bytes_oob, 0u);
    EXPECT_EQ(t.bytes_inline, t.output_bytes);
  }
  // Dependency transfers for out-of-band results are flagged in the comms
  // view (same endpoints/bytes/timing as the inline run otherwise).
  std::size_t oob_comms = 0;
  for (const auto& c : oob.comms) {
    if (c.oob) ++oob_comms;
  }
  EXPECT_GT(oob_comms, 0u);
  for (const auto& c : base.comms) EXPECT_FALSE(c.oob);

  // The acceptance ratio: scheduler-path payload bytes collapse from the
  // full result volume to (small inline results + proxy handles).
  ASSERT_NE(oob_cluster.datastore(), nullptr);
  EXPECT_EQ(inline_cluster.datastore(), nullptr);
  const datastore::DataStoreStats stats = oob_cluster.datastore()->stats();
  EXPECT_EQ(stats.oob_bytes, oob_bytes);
  const std::uint64_t inline_path_bytes = oob_bytes + inline_bytes;
  const std::uint64_t oob_path_bytes = inline_bytes + stats.proxy_wire_bytes;
  ASSERT_GT(oob_path_bytes, 0u);
  EXPECT_GE(static_cast<double>(inline_path_bytes) /
                static_cast<double>(oob_path_bytes),
            5.0)
      << "scheduler path moved " << oob_path_bytes << " of "
      << inline_path_bytes << " inline-path bytes";
  EXPECT_EQ(stats.fetch_failures, 0u);
  EXPECT_EQ(stats.validation_failures, 0u);
}

// ---------------------------------------------------------------------------
// The 10-seed chaos oracle under datastore.fetch faults: randomized
// fetch-frame drops, truncations and transient errors must not change any
// provenance view by a single byte — wire retries and fingerprint
// validation absorb every fault below the application.

struct PipelineResult {
  std::size_t direct_tasks = 0;
  std::map<std::string, std::string> views;
  std::uint64_t faults = 0;
  datastore::DataStoreStats datastore_stats;
};

PipelineResult run_pipeline(std::uint64_t cluster_seed,
                            const chaos::FaultPlan& plan) {
  dtr::ClusterConfig config = cluster_config(cluster_seed);
  config.fault_plan = plan;

  dtr::Cluster cluster(config);
  const dtr::RunData direct = cluster.run(cluster_workload(), "dchaos", 0);

  query::StoreCatalog catalog;
  query::LiveIngestor ingestor(cluster.broker(), catalog);
  ingestor.publish(direct.meta);

  PipelineResult result;
  result.direct_tasks = direct.tasks.size();
  const query::StoreCatalog::Snapshot snap = catalog.snapshot();
  const prov::RunId id{"dchaos", 0};
  for (const query::ViewId view :
       {query::ViewId::kTasks, query::ViewId::kTransitions,
        query::ViewId::kComms, query::ViewId::kWarnings,
        query::ViewId::kSteals}) {
    result.views[query::view_name(view)] = fingerprint(*snap.frame(view, id));
  }
  if (cluster.fault_injector()) {
    result.faults = cluster.fault_injector()->faults_injected();
  }
  if (cluster.datastore()) {
    result.datastore_stats = cluster.datastore()->stats();
  }
  return result;
}

class DatastoreChaosOracle : public ::testing::TestWithParam<int> {};

TEST_P(DatastoreChaosOracle, ViewsIdenticalUnderDatastoreFaults) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const chaos::FaultPlan plan =
      chaos::FaultPlan::randomized_datastore(4000 + seed, 0.08);

  const PipelineResult baseline = run_pipeline(seed, chaos::FaultPlan{});
  const PipelineResult faulty = run_pipeline(seed, plan);

  // The plan actually attacked the data plane...
  EXPECT_GT(faulty.faults, 0u) << plan.describe();
  EXPECT_EQ(baseline.faults, 0u);
  EXPECT_GT(faulty.datastore_stats.fetch_retries, 0u);
  // ...no fetch was lost or corrupted past the wire retries...
  EXPECT_EQ(faulty.datastore_stats.fetch_failures, 0u);
  EXPECT_EQ(faulty.direct_tasks, baseline.direct_tasks);
  // ...and every provenance view survived byte-identical.
  ASSERT_EQ(faulty.views.size(), baseline.views.size());
  for (const auto& [name, expected] : baseline.views) {
    const auto it = faulty.views.find(name);
    ASSERT_NE(it, faulty.views.end()) << name;
    EXPECT_EQ(it->second, expected)
        << "view '" << name << "' diverged under " << plan.describe();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatastoreChaosOracle, ::testing::Range(1, 11));

}  // namespace
}  // namespace recup
