// Tests for the "fully online" future-work features: the Darshan-to-Mofka
// streaming bridge and the adaptive capture plugin, and the WMS plugins'
// cluster events.
#include <gtest/gtest.h>

#include <algorithm>

#include "darshan/report.hpp"
#include "dtr/adaptive.hpp"
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

TEST(DarshanBridge, StreamedRecordsMatchPostHocCollection) {
  Cluster cluster(bridge_config());
  const RunData run = run_io_workflow(cluster);
  ASSERT_NE(cluster.darshan_bridge(), nullptr);
  EXPECT_GT(cluster.darshan_bridge()->events_pushed(), 0u);
  EXPECT_GT(cluster.darshan_bridge()->snapshots_taken(), 1u);

  const auto streamed = read_darshan_topic(cluster.broker());

  // Totals through the streamed path equal the post-hoc logs.
  darshan::Report direct(run.darshan_logs);
  darshan::Report online(streamed);
  EXPECT_EQ(online.totals().reads, direct.totals().reads);
  EXPECT_EQ(online.totals().writes, direct.totals().writes);
  EXPECT_EQ(online.totals().bytes_read, direct.totals().bytes_read);
  EXPECT_EQ(online.totals().bytes_written, direct.totals().bytes_written);
  EXPECT_EQ(online.distinct_files(), direct.distinct_files());

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

// --- Adaptive capture ---------------------------------------------------------

class CountingPlugin final : public WorkerPlugin {
 public:
  void on_transition(const TransitionRecord&) override { ++transitions; }
  void on_task_done(const TaskRecord&) override { ++tasks; }
  void on_incoming_transfer(const CommRecord&) override { ++comms; }
  void on_warning(const WarningRecord&) override { ++warnings; }

  int transitions = 0;
  int tasks = 0;
  int comms = 0;
  int warnings = 0;
};

TransitionRecord transition_at(TimePoint t) {
  TransitionRecord r;
  r.key = {"x-aaaa", 0};
  r.time = t;
  return r;
}

TEST(AdaptiveCapture, ForwardsEverythingUnderBudget) {
  CountingPlugin inner;
  AdaptiveCaptureConfig config;
  config.transitions_per_window = 100;
  AdaptiveCapturePlugin adaptive(inner, config);
  for (int i = 0; i < 50; ++i) {
    adaptive.on_transition(transition_at(0.01 * i));
  }
  EXPECT_EQ(inner.transitions, 50);
  EXPECT_EQ(adaptive.sampled_out(), 0u);
  EXPECT_FALSE(adaptive.throttling());
}

TEST(AdaptiveCapture, ThrottlesBursts) {
  CountingPlugin inner;
  AdaptiveCaptureConfig config;
  config.transitions_per_window = 100;
  config.sample_stride = 10;
  AdaptiveCapturePlugin adaptive(inner, config);
  for (int i = 0; i < 1000; ++i) {
    adaptive.on_transition(transition_at(0.0005 * i));  // all in one window
  }
  EXPECT_TRUE(adaptive.throttling());
  // First 100 pass, then ~1 in 10 of the remaining 900.
  EXPECT_NEAR(inner.transitions, 190, 15);
  EXPECT_GT(adaptive.sampled_out(), 700u);
}

TEST(AdaptiveCapture, WindowRollRestoresFullCapture) {
  CountingPlugin inner;
  AdaptiveCaptureConfig config;
  config.transitions_per_window = 10;
  config.window = 1.0;
  AdaptiveCapturePlugin adaptive(inner, config);
  for (int i = 0; i < 100; ++i) {
    adaptive.on_transition(transition_at(0.001 * i));
  }
  EXPECT_TRUE(adaptive.throttling());
  adaptive.on_transition(transition_at(2.0));  // new window
  EXPECT_FALSE(adaptive.throttling());
}

TEST(AdaptiveCapture, WarningForcesFullFidelity) {
  CountingPlugin inner;
  AdaptiveCaptureConfig config;
  config.transitions_per_window = 10;
  config.full_fidelity_after_warning = 100.0;
  AdaptiveCapturePlugin adaptive(inner, config);

  WarningRecord warning;
  warning.kind = "event_loop_unresponsive";
  warning.time = 0.0;
  adaptive.on_warning(warning);

  for (int i = 0; i < 500; ++i) {
    adaptive.on_transition(transition_at(0.001 * i));
  }
  // Over budget but inside the full-fidelity window: nothing sampled out.
  EXPECT_EQ(inner.transitions, 500);
  EXPECT_EQ(adaptive.sampled_out(), 0u);
}

TEST(AdaptiveCapture, NeverSamplesCompletionsOrWarnings) {
  CountingPlugin inner;
  AdaptiveCaptureConfig config;
  config.transitions_per_window = 1;
  AdaptiveCapturePlugin adaptive(inner, config);
  for (int i = 0; i < 50; ++i) {
    adaptive.on_transition(transition_at(0.001 * i));
    TaskRecord task;
    task.key = {"x-aaaa", i};
    adaptive.on_task_done(task);
    CommRecord comm;
    adaptive.on_incoming_transfer(comm);
  }
  EXPECT_EQ(inner.tasks, 50);
  EXPECT_EQ(inner.comms, 50);
  EXPECT_LT(inner.transitions, 50);
}

}  // namespace
}  // namespace recup::dtr
