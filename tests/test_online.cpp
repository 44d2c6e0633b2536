// Tests for the "fully online" future-work feature, the Darshan-to-Mofka
// streaming bridge, and for the WMS plugins' cluster events.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "dtr/cluster.hpp"
#include "dtr/darshan_bridge.hpp"
#include "dtr/mofka_plugins.hpp"
#include "mofka/wire.hpp"
#include "wire/codec.hpp"

namespace recup::dtr {
namespace {

ClusterConfig bridge_config() {
  ClusterConfig config;
  config.job.nodes = 2;
  config.job.workers_per_node = 2;
  config.job.threads_per_worker = 2;
  config.seed = 21;
  config.enable_darshan_streaming = true;
  config.darshan_bridge.interval = 0.5;
  return config;
}

RunData run_io_workflow(Cluster& cluster) {
  cluster.vfs().register_file("/data/stream", 32ULL << 20);
  TaskGraph g("io");
  for (int i = 0; i < 24; ++i) {
    TaskSpec t;
    t.key = {"streamer-ab12", i};
    t.work.compute = 0.05;
    t.work.reads.push_back({"/data/stream",
                            static_cast<std::uint64_t>(i % 16) * (2 << 20),
                            1 << 20, false});
    t.work.writes.push_back({"/out/streamed",
                             static_cast<std::uint64_t>(i) * 4096, 4096,
                             true});
    g.add_task(t);
  }
  return cluster.run({g}, "bridge-test", 0);
}

/// (file, process, reads, writes, bytes_read, bytes_written) of every POSIX
/// record, sorted.
using PosixCounters =
    std::tuple<std::string, darshan::ProcessId, std::uint64_t, std::uint64_t,
               std::uint64_t, std::uint64_t>;

std::vector<PosixCounters> posix_counters(
    const std::vector<darshan::LogFile>& logs) {
  std::vector<PosixCounters> out;
  for (const auto& log : logs) {
    for (const auto& rec : log.posix) {
      out.emplace_back(rec.file_path, rec.process_id, rec.reads, rec.writes,
                       rec.bytes_read, rec.bytes_written);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(DarshanBridge, StreamedRecordsMatchPostHocCollection) {
  Cluster cluster(bridge_config());
  const RunData run = run_io_workflow(cluster);
  ASSERT_NE(cluster.darshan_bridge(), nullptr);
  EXPECT_GT(cluster.darshan_bridge()->events_pushed(), 0u);
  EXPECT_GT(cluster.darshan_bridge()->snapshots_taken(), 1u);

  const auto streamed = read_darshan_topic(cluster.broker());

  // Every POSIX record through the streamed path equals its post-hoc twin.
  const auto direct = posix_counters(run.darshan_logs);
  EXPECT_FALSE(direct.empty());
  EXPECT_EQ(posix_counters(streamed), direct);

  // DXT segments survive with their thread ids (the join key).
  std::size_t direct_segments = 0;
  for (const auto& log : run.darshan_logs) {
    for (const auto& rec : log.dxt) direct_segments += rec.segments.size();
  }
  std::size_t online_segments = 0;
  for (const auto& log : streamed) {
    for (const auto& rec : log.dxt) {
      online_segments += rec.segments.size();
      for (const auto& seg : rec.segments) {
        EXPECT_NE(seg.thread_id, 0u);
      }
    }
  }
  EXPECT_EQ(online_segments, direct_segments);
}

TEST(MofkaPlugins, ClusterEventsMatchTheTreesTheyReplace) {
  // graph-received and worker-added/-removed have no field list: the
  // scheduler plugin writes their keys in order by hand. Stored, they must
  // be the bytes of the trees the plugin used to build, stamps included.
  mochi::KeyValueStore kv;
  mochi::BlobStore blobs;
  mofka::Broker broker(kv, blobs);
  create_wms_topics(broker);
  MofkaSchedulerPlugin plugin(broker, mofka::ProducerConfig{8});
  plugin.on_graph_received("graph-7", 12, 1.5);
  plugin.on_worker_added(3, "tcp://10.0.1.2:9003", 2.25);
  plugin.on_worker_removed(3, "tcp://10.0.1.2:9003", 9.0);
  plugin.flush();

  std::vector<json::Value> trees(3);
  trees[0]["kind"] = "graph-received";
  trees[0]["graph"] = "graph-7";
  trees[0]["tasks"] = std::uint64_t{12};
  trees[0]["time"] = 1.5;
  for (int i = 1; i < 3; ++i) {
    trees[i]["kind"] = i == 1 ? "worker-added" : "worker-removed";
    trees[i]["worker"] = std::int64_t{3};
    trees[i]["address"] = "tcp://10.0.1.2:9003";
    trees[i]["time"] = i == 1 ? 2.25 : 9.0;
  }
  ASSERT_EQ(broker.partition_size("wms_cluster", 0), 3u);
  for (mofka::EventId offset = 0; offset < 3; ++offset) {
    const auto event = broker.fetch_wire("wms_cluster", 0, offset);
    ASSERT_TRUE(event.has_value());
    const auto stamps = mofka::read_stamps(event->metadata);
    ASSERT_TRUE(stamps.has_value());
    EXPECT_EQ(stamps->seq, offset);
    json::Value expected = trees[offset];
    expected["_pid"] = stamps->pid;
    expected["_seq"] = stamps->seq;
    EXPECT_EQ(event->metadata, wire::encode_value(expected))
        << expected.dump();
  }
}

TEST(DarshanBridge, DisabledByDefault) {
  ClusterConfig config = bridge_config();
  config.enable_darshan_streaming = false;
  Cluster cluster(config);
  run_io_workflow(cluster);
  EXPECT_EQ(cluster.darshan_bridge(), nullptr);
  EXPECT_FALSE(cluster.broker().topic_exists("darshan_records"));
}

}  // namespace
}  // namespace recup::dtr
