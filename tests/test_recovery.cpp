// Durable-control-plane tests: the segmented WAL primitive, the WAL-backed
// Mofka broker, scheduler checkpoint/restart, lease-based worker liveness,
// durable ingestor cursors, and the crash-recovery oracle.
//
// The headline oracle: a full workload -> Mofka -> LiveIngestor pipeline
// whose *processes* are attacked by a FaultPlan (broker crash mid-append,
// scheduler crash at a graph boundary, ingestor crash mid-poll) must
// produce byte-identical PERFRECUP views to the same run without crashes —
// WAL replay, checkpoint + journal recovery, and cursor restoration
// together make whole-process restarts invisible to provenance consumers.
// A non-durable broker under the same crash is demonstrably total loss,
// proving the oracle can detect missing durability.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chaos/fault.hpp"
#include "common/wal.hpp"
#include "dtr/cluster.hpp"
#include "dtr/darshan_bridge.hpp"
#include "dtr/durability.hpp"
#include "dtr/mofka_plugins.hpp"
#include "dtr_fixture.hpp"
#include "mochi/bedrock.hpp"
#include "mofka/broker.hpp"
#include "mofka/consumer.hpp"
#include "mofka/producer.hpp"
#include "query/catalog.hpp"
#include "query/client.hpp"
#include "query/ingest.hpp"
#include "query/server.hpp"
#include "wire/codec.hpp"

namespace recup {
namespace {

using query::LiveIngestor;
using query::StoreCatalog;
using query::ViewId;

/// Unique per-test scratch directory (ctest runs each test in its own
/// process, so the pid disambiguates concurrent tests sharing a tag).
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("recup_recovery_" + tag + "_" +
                std::to_string(static_cast<long>(::getpid()))))
                  .string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

std::vector<std::string> replay_all(const std::string& dir,
                                    wal::ReplayStats* stats = nullptr) {
  std::vector<std::string> records;
  const wal::ReplayStats s = wal::WalWriter::replay(
      dir, [&](std::string_view payload) { records.emplace_back(payload); });
  if (stats) *stats = s;
  return records;
}

std::string last_segment_path(const std::string& dir) {
  std::string best;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0 &&
        (best.empty() ||
         name > std::filesystem::path(best).filename().string())) {
      best = entry.path().string();
    }
  }
  return best;
}

std::string first_segment_path(const std::string& dir) {
  std::string best;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0 &&
        (best.empty() ||
         name < std::filesystem::path(best).filename().string())) {
      best = entry.path().string();
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// WAL primitive.

/// Byte-at-a-time CRC-32 (IEEE, reflected): the reference the sliced
/// implementation must match.
std::uint32_t bytewise_crc32(const unsigned char* data, std::size_t size,
                             std::uint32_t seed) {
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Wal, Crc32MatchesTheStandardCheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(wal::crc32(check, 9), 0xCBF43926u);
  // Chaining via the seed equals one pass over the concatenation.
  const std::uint32_t head = wal::crc32(check, 4);
  EXPECT_EQ(wal::crc32(check + 4, 5, head), 0xCBF43926u);

  // Every length 0-64 at every alignment 0-7 (so each 8-byte step, each
  // tail length and each misaligned start is covered), plain and chained.
  std::vector<unsigned char> bytes(64 + 8);
  std::uint32_t x = 0x12345678u;
  for (unsigned char& b : bytes) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t size = 0; size <= 64; ++size) {
      const unsigned char* data = bytes.data() + offset;
      EXPECT_EQ(wal::crc32(data, size), bytewise_crc32(data, size, 0))
          << "offset " << offset << " size " << size;
      EXPECT_EQ(wal::crc32(data, size, 0xDEADBEEFu),
                bytewise_crc32(data, size, 0xDEADBEEFu))
          << "offset " << offset << " size " << size;
    }
  }
}

TEST(Wal, RoundTripsBinaryRecordsInOrder) {
  TempDir dir("wal_roundtrip");
  std::vector<std::string> expected;
  expected.push_back(std::string("hello"));
  expected.push_back(std::string());  // empty record
  expected.push_back(std::string("bin\0ary\xff", 8));
  expected.push_back(std::string(1000, 'x'));
  {
    wal::WalWriter writer(dir.str());
    for (const auto& record : expected) writer.append(record);
    EXPECT_EQ(writer.records_appended(), expected.size());
  }
  wal::ReplayStats stats;
  const std::vector<std::string> got = replay_all(dir.str(), &stats);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(stats.records, expected.size());
  EXPECT_FALSE(stats.truncated_tail);
}

TEST(Wal, RotatesSegmentsAndReplaysAcrossThem) {
  TempDir dir("wal_rotate");
  std::vector<std::string> expected;
  {
    wal::WalOptions options;
    options.segment_bytes = 64;  // ~2 records per segment
    wal::WalWriter writer(dir.str(), options);
    for (int i = 0; i < 20; ++i) {
      expected.push_back("record-" + std::to_string(i) + "-payloadpayload");
      writer.append(expected.back());
    }
  }
  wal::ReplayStats stats;
  EXPECT_EQ(replay_all(dir.str(), &stats), expected);
  EXPECT_GE(stats.segments, 2u);
  EXPECT_EQ(stats.records, 20u);
}

TEST(Wal, TornTailIsTruncatedAndTheLogResumes) {
  TempDir dir("wal_torn");
  {
    wal::WalWriter writer(dir.str());
    writer.append("one");
    writer.append("two");
  }
  {
    // A crash mid-append: a frame header promising more bytes than exist.
    std::ofstream out(last_segment_path(dir.str()),
                      std::ios::binary | std::ios::app);
    const std::uint32_t length = 100;
    const std::uint32_t crc = 0;
    out.write(reinterpret_cast<const char*>(&length), sizeof(length));
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    out.write("abc", 3);
  }
  wal::ReplayStats stats;
  EXPECT_EQ(replay_all(dir.str(), &stats),
            (std::vector<std::string>{"one", "two"}));
  EXPECT_TRUE(stats.truncated_tail);

  // Reopening repairs the tail and continues after the last valid record.
  {
    wal::WalWriter resumed(dir.str());
    resumed.append("three");
  }
  EXPECT_EQ(replay_all(dir.str(), &stats),
            (std::vector<std::string>{"one", "two", "three"}));
  EXPECT_FALSE(stats.truncated_tail);
}

TEST(Wal, MidLogCorruptionThrowsInsteadOfSilentLoss) {
  TempDir dir("wal_corrupt");
  {
    wal::WalOptions options;
    options.segment_bytes = 64;
    wal::WalWriter writer(dir.str(), options);
    for (int i = 0; i < 8; ++i) {
      writer.append("corruptible-payload-" + std::to_string(i));
    }
  }
  wal::ReplayStats stats;
  ASSERT_GE(replay_all(dir.str(), &stats).size(), 8u);
  ASSERT_GE(stats.segments, 2u);
  {
    // Flip one payload byte in the *first* segment: not a crash artifact.
    std::fstream file(first_segment_path(dir.str()),
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(10);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    file.seekp(10);
    file.write(&byte, 1);
  }
  EXPECT_THROW(replay_all(dir.str()), wal::WalError);
}

TEST(Wal, GroupCommitEveryAppendIsDurableWithFewerFsyncs) {
  TempDir dir("wal_group_commit");
  wal::WalOptions options;
  options.sync = wal::SyncPolicy::kOnAppend;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  {
    wal::WalWriter writer(dir.str(), options);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&writer, t] {
        for (int i = 0; i < kPerThread; ++i) {
          writer.append("t" + std::to_string(t) + "r" + std::to_string(i));
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(writer.records_appended(), kThreads * kPerThread);
    // Every append returned fsync-durable, yet concurrent appenders share
    // leader fsyncs — far fewer syscalls than one per record.
    EXPECT_GE(writer.fsyncs_issued(), 1u);
    EXPECT_LE(writer.fsyncs_issued(), writer.records_appended());
  }
  // Replay integrity: all records present exactly once, per-thread order
  // preserved.
  std::map<char, int> next_index;
  std::size_t total = 0;
  wal::WalWriter::replay(dir.str(), [&](std::string_view record) {
    ++total;
    const std::string s(record);
    const auto split = s.find('r');
    ASSERT_NE(split, std::string::npos);
    const char thread_tag = s[1];
    const int index = std::stoi(s.substr(split + 1));
    EXPECT_EQ(index, next_index[thread_tag]) << s;
    next_index[thread_tag] = index + 1;
  });
  EXPECT_EQ(total, static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(Wal, GroupCommitSingleThreadedSyncsEveryAppend) {
  TempDir dir("wal_group_commit_solo");
  wal::WalOptions options;
  options.sync = wal::SyncPolicy::kOnAppend;
  wal::WalWriter writer(dir.str(), options);
  for (int i = 0; i < 10; ++i) writer.append("solo");
  // With no concurrency there is nobody to share a leader fsync with: the
  // durability contract degenerates to one fsync per append.
  EXPECT_EQ(writer.fsyncs_issued(), 10u);
}

TEST(Wal, GroupCommitSurvivesRotationAndReset) {
  TempDir dir("wal_group_commit_rotate");
  wal::WalOptions options;
  options.sync = wal::SyncPolicy::kOnAppend;
  options.segment_bytes = 64;  // rotate every few records
  wal::WalWriter writer(dir.str(), options);
  for (int i = 0; i < 20; ++i) writer.append(std::string(24, 'a' + i % 26));
  EXPECT_EQ(replay_all(dir.str()).size(), 20u);
  writer.reset();
  writer.append("after-reset");
  EXPECT_EQ(replay_all(dir.str()), (std::vector<std::string>{"after-reset"}));
}

TEST(Wal, ResetStartsAnEmptyLog) {
  TempDir dir("wal_reset");
  wal::WalWriter writer(dir.str());
  writer.append("doomed");
  writer.reset();
  EXPECT_EQ(replay_all(dir.str()).size(), 0u);
  writer.append("fresh");
  writer.flush();
  EXPECT_EQ(replay_all(dir.str()), (std::vector<std::string>{"fresh"}));
}

TEST(Wal, CompactDropsWholeCoveredSegmentsOnly) {
  TempDir dir("wal_compact");
  std::vector<std::string> expected;
  wal::WalOptions options;
  options.segment_bytes = 64;  // 2-3 records per segment
  wal::WalWriter writer(dir.str(), options);
  for (int i = 0; i < 20; ++i) {
    expected.push_back("record-" + std::to_string(i) + "-payloadpayload");
    writer.append(expected.back());
  }
  writer.flush();

  // Nothing below record 0 is droppable.
  EXPECT_EQ(writer.compact(0), 0u);
  EXPECT_EQ(replay_all(dir.str()), expected);

  // Compacting up to record 10 deletes only whole segments whose records
  // all precede it; the survivors replay as an aligned suffix. The marker
  // and its directory are fsynced before any segment goes.
  const std::uint64_t fsyncs_before = writer.fsyncs_issued();
  const std::uint64_t dropped = writer.compact(10);
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(writer.fsyncs_issued(), fsyncs_before);
  EXPECT_LE(dropped, 10u);
  EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir.str()) /
                                      "wal-compacted"));
  EXPECT_NE(std::filesystem::path(first_segment_path(dir.str())).filename(),
            "wal-00000000.seg");
  wal::ReplayStats stats;
  const std::vector<std::string> suffix = replay_all(dir.str(), &stats);
  EXPECT_EQ(stats.compacted_records, dropped);
  ASSERT_EQ(suffix.size(), expected.size() - dropped);
  for (std::size_t i = 0; i < suffix.size(); ++i) {
    EXPECT_EQ(suffix[i], expected[dropped + i]) << i;
  }
  // A watermark at or below the current one is a no-op, and syncs nothing.
  const std::uint64_t fsyncs_after = writer.fsyncs_issued();
  EXPECT_EQ(writer.compact(dropped), 0u);
  EXPECT_EQ(writer.fsyncs_issued(), fsyncs_after);

  // Compacting "everything" still never touches the active segment: the
  // log remains appendable and the tail replays.
  writer.compact(writer.records_appended());
  EXPECT_FALSE(first_segment_path(dir.str()).empty());
  writer.append("after-compact");
  writer.flush();
  const std::vector<std::string> tail = replay_all(dir.str(), &stats);
  ASSERT_FALSE(tail.empty());
  EXPECT_EQ(tail.back(), "after-compact");
  EXPECT_EQ(stats.compacted_records + stats.records, 21u);
}

TEST(Wal, CompactionMarkerMakesCrashMidDeletionInvisible) {
  TempDir dir("wal_compact_crash");
  std::vector<std::string> expected;
  wal::WalOptions options;
  options.segment_bytes = 64;
  std::uint64_t dropped = 0;
  {
    wal::WalWriter writer(dir.str(), options);
    for (int i = 0; i < 16; ++i) {
      expected.push_back("record-" + std::to_string(i) + "-payloadpayload");
      writer.append(expected.back());
    }
    dropped = writer.compact(8);
    ASSERT_GT(dropped, 0u);
  }
  // Crash mid-deletion: the marker was durably renamed into place *before*
  // any segment was unlinked, so a stale segment below the boundary can
  // reappear — here with garbage contents that would throw if scanned.
  {
    std::ofstream stale(std::filesystem::path(dir.str()) / "wal-00000000.seg",
                        std::ios::binary | std::ios::trunc);
    stale << "not a valid wal segment at all";
  }
  wal::ReplayStats stats;
  const std::vector<std::string> suffix = replay_all(dir.str(), &stats);
  EXPECT_EQ(stats.compacted_records, dropped);
  ASSERT_EQ(suffix.size(), expected.size() - dropped);
  EXPECT_EQ(suffix.front(), expected[dropped]);

  // A writer reopened over the same directory resumes past the stale
  // segment as well.
  wal::WalWriter resumed(dir.str(), options);
  resumed.append("post-crash");
  resumed.flush();
  EXPECT_EQ(replay_all(dir.str(), &stats).back(), "post-crash");
}

// ---------------------------------------------------------------------------
// WAL-backed broker.

json::Value numbered(int i) {
  json::Object o;
  o["i"] = static_cast<std::int64_t>(i);
  return json::Value(std::move(o));
}

json::Value stamped(int i, std::uint64_t pid, std::uint64_t seq) {
  json::Object o;
  o["i"] = static_cast<std::int64_t>(i);
  o["_pid"] = pid;
  o["_seq"] = seq;
  return json::Value(std::move(o));
}

TEST(BrokerWal, RebuildsFromDiskWithIdenticalOffsets) {
  TempDir dir("broker_rebuild");
  {
    mochi::KeyValueStore kv;
    mochi::BlobStore blobs;
    mofka::Broker broker(kv, blobs, {dir.str(), {}});
    EXPECT_TRUE(broker.durable());
    broker.create_topic("t", {2, nullptr, nullptr});
    std::vector<std::pair<json::Value, std::string>> p0;
    for (int i = 0; i < 10; ++i) p0.emplace_back(numbered(i), "d" + std::to_string(i));
    broker.append_batch("t", 0, p0);
    std::vector<std::pair<json::Value, std::string>> p1;
    for (int i = 0; i < 5; ++i) p1.emplace_back(numbered(100 + i), "");
    broker.append_batch("t", 1, p1);
    broker.commit_offset("t", "grp", 0, 7);
    EXPECT_GT(broker.wal_bytes(), 0u);
  }
  // A cold restart: fresh stores, same directory.
  mochi::KeyValueStore kv;
  mochi::BlobStore blobs;
  mofka::Broker rebuilt(kv, blobs, {dir.str(), {}});
  ASSERT_TRUE(rebuilt.topic_exists("t"));
  EXPECT_EQ(rebuilt.partition_count("t"), 2u);
  EXPECT_EQ(rebuilt.partition_size("t", 0), 10u);
  EXPECT_EQ(rebuilt.partition_size("t", 1), 5u);
  EXPECT_EQ(rebuilt.committed_offset("t", "grp", 0), 7u);
  for (int i = 0; i < 10; ++i) {
    const auto event = rebuilt.fetch("t", 0, static_cast<mofka::EventId>(i));
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->metadata.at("i").as_int(), i);
  }
}

TEST(BrokerWal, CrashRecoveryPreservesOffsetsAndAbsorbsRetries) {
  TempDir dir("broker_crash");
  mochi::KeyValueStore kv;
  mochi::BlobStore blobs;
  mofka::Broker broker(kv, blobs, {dir.str(), {}});
  broker.create_topic("t", {});
  std::vector<std::pair<json::Value, std::string>> batch;
  for (int i = 0; i < 12; ++i) batch.emplace_back(stamped(i, 7, i), "");
  const mofka::AppendResult first = broker.append_batch("t", 0, batch);
  EXPECT_EQ(first.duplicates, 0u);

  broker.crash_and_recover();
  EXPECT_EQ(broker.recoveries(), 1u);
  EXPECT_EQ(broker.partition_size("t", 0), 12u);

  // A producer re-sending the same batch after the restart (its ack was
  // lost in the crash) must be absorbed with the original offsets: the
  // sequence-dedup state was rebuilt from the WAL, so retry-across-restart
  // is still exactly-once.
  const mofka::AppendResult retried = broker.append_batch("t", 0, batch);
  EXPECT_EQ(retried.duplicates, batch.size());
  EXPECT_EQ(retried.offsets, first.offsets);
  EXPECT_EQ(broker.partition_size("t", 0), 12u);
  EXPECT_EQ(broker.topic_stats("t").duplicates_absorbed, batch.size());
}

TEST(BrokerWal, NonDurableCrashIsObservableTotalLoss) {
  mochi::KeyValueStore kv;
  mochi::BlobStore blobs;
  mofka::Broker broker(kv, blobs);
  EXPECT_FALSE(broker.durable());
  EXPECT_EQ(broker.wal_bytes(), 0u);
  broker.create_topic("t", {});
  broker.append_batch("t", 0, {{numbered(1), "data"}});
  broker.crash_and_recover();
  EXPECT_EQ(broker.recoveries(), 1u);
  EXPECT_FALSE(broker.topic_exists("t"));
}

/// Little-endian u32, the broker WAL's field framing.
void put_le32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void put_le_str(std::string& out, const std::string& s) {
  put_le32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

TEST(BrokerWal, JsonTextMetadataIsATypedError) {
  // Event metadata in the broker WAL is wire-encoded only: a batch record
  // whose metadata is JSON text is corruption, and replay reports it as a
  // typed wire::WireError.
  TempDir dir("broker_json_meta");
  {
    wal::WalWriter writer(dir.str());
    std::string topic("T");
    put_le_str(topic, "t");
    put_le32(topic, 1);
    writer.append(topic);
    std::string batch("B");
    put_le_str(batch, "t");
    put_le32(batch, 0);  // partition
    put_le32(batch, 1);  // events
    put_le_str(batch, R"({"i":1})");
    put_le_str(batch, "data");
    writer.append(batch);
  }
  mochi::KeyValueStore kv;
  mochi::BlobStore blobs;
  EXPECT_THROW((void)mofka::Broker(kv, blobs, {dir.str(), {}}),
               wire::WireError);
}

// ---------------------------------------------------------------------------
// Scheduler checkpoint/restart.

template <typename Records>
std::string dump_records(const Records& records) {
  std::string out;
  for (const auto& record : records) {
    out += dtr::to_json(record).dump();
    out += '\n';
  }
  return out;
}

TEST(SchedulerDurable, ColdRestartRebuildsFullHistoryFromJournal) {
  TempDir dir("sched_cold");
  std::string transitions_a;
  std::string tasks_a;
  {
    dtr::testing::MiniCluster a;
    a.scheduler.enable_durability({dir.str(), 0, false, {}});
    ASSERT_TRUE(a.run_graph(dtr::testing::diamond_graph()));
    transitions_a = dump_records(a.scheduler.transitions());
    tasks_a = dump_records(a.scheduler.task_records());
    ASSERT_FALSE(transitions_a.empty());
  }
  // A brand-new scheduler process over the same directory: the journal is
  // full-history provenance, so the records come back byte-identical.
  dtr::testing::MiniCluster b;
  b.scheduler.enable_durability({dir.str(), 0, false, {}});
  b.scheduler.recover();
  b.engine.run();
  EXPECT_EQ(b.scheduler.recoveries(), 1u);
  EXPECT_EQ(b.scheduler.tasks_total(), 4u);
  EXPECT_TRUE(b.scheduler.in_memory({"sink-abc123", 0}));
  EXPECT_EQ(dump_records(b.scheduler.transitions()), transitions_a);
  EXPECT_EQ(dump_records(b.scheduler.task_records()), tasks_a);
}

TEST(SchedulerDurable, MidRunCrashRecoversAndCompletesTheGraph) {
  TempDir dir("sched_midrun");
  dtr::testing::MiniCluster mini;
  mini.scheduler.enable_durability({dir.str(), 0, false, {}});
  bool done = false;
  const auto finish = [&](const std::string&) {
    done = true;
    mini.scheduler.stop();
  };
  mini.scheduler.submit_graph(dtr::testing::diamond_graph(0.05), finish);
  // Crash while the source task is processing on a (surviving) worker. The
  // graph-done callback dies with the process; recovery re-adopts the
  // in-flight task and set_graph_done re-attaches the callback.
  mini.engine.schedule_after(0.02, [&] {
    mini.scheduler.crash_and_recover();
    mini.scheduler.set_graph_done("diamond", finish);
  });
  mini.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(mini.scheduler.recoveries(), 1u);
  EXPECT_EQ(mini.scheduler.tasks_total(), 4u);
  EXPECT_TRUE(mini.scheduler.in_memory({"sink-abc123", 0}));
  // Every diamond task produced at least one completion record.
  std::set<std::string> completed;
  for (const auto& record : mini.scheduler.task_records()) {
    completed.insert(record.key.to_string());
  }
  EXPECT_EQ(completed.size(), 4u);
}

TEST(SchedulerDurable, SetGraphDoneFiresImmediatelyWhenAlreadyComplete) {
  TempDir dir("sched_done");
  dtr::testing::MiniCluster mini;
  mini.scheduler.enable_durability({dir.str(), 0, false, {}});
  ASSERT_TRUE(mini.run_graph(dtr::testing::independent_graph(4)));
  bool fired = false;
  mini.scheduler.set_graph_done("independent",
                                [&](const std::string&) { fired = true; });
  EXPECT_TRUE(fired);
  EXPECT_THROW(mini.scheduler.set_graph_done("no-such-graph", nullptr),
               std::exception);
}

TEST(SchedulerDurable, CompactingCheckpointBoundsTheJournalAndStillRecovers) {
  TempDir dir("sched_compact");
  dtr::SchedulerDurability durability;
  durability.dir = dir.str();
  durability.checkpoint_every = 16;
  durability.compact_on_checkpoint = true;
  durability.wal.segment_bytes = 1024;  // a handful of records per segment
  {
    dtr::testing::MiniCluster a;
    a.scheduler.enable_durability(durability);
    int done = 0;
    const auto on_done = [&](const std::string&) {
      if (++done == 2) a.scheduler.stop();
    };
    a.scheduler.submit_graph(dtr::testing::diamond_graph(), on_done);
    a.scheduler.submit_graph(dtr::testing::independent_graph(16), on_done);
    a.scheduler.start_stealing_loop();
    a.engine.run();
    ASSERT_EQ(done, 2);
  }
  // Compaction bounded by checkpoint age really ran: the boundary marker is
  // on disk, leading segments are gone, and replay reports the dropped
  // prefix so full-log positions stay stable.
  EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir.str()) /
                                      "wal-compacted"));
  EXPECT_NE(std::filesystem::path(first_segment_path(dir.str())).filename(),
            "wal-00000000.seg");
  wal::ReplayStats stats;
  replay_all(dir.str(), &stats);
  EXPECT_GT(stats.compacted_records, 0u);

  // A cold restart over the truncated journal: the compacting checkpoint
  // carries every task spec its deleted prefix used to hold, so recovery is
  // self-contained — full control state, every result in memory.
  dtr::testing::MiniCluster b;
  b.scheduler.enable_durability(durability);
  b.scheduler.recover();
  b.engine.run();
  EXPECT_EQ(b.scheduler.recoveries(), 1u);
  EXPECT_EQ(b.scheduler.tasks_total(), 20u);
  EXPECT_TRUE(b.scheduler.in_memory({"sink-abc123", 0}));
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(b.scheduler.in_memory({"embarrassing-def456", i})) << i;
  }
  // The recovered scheduler is live: a brand-new graph still completes.
  dtr::TaskGraph extra("post-recovery");
  for (int i = 0; i < 4; ++i) {
    dtr::TaskSpec t;
    t.key = {"post-ff77", i};
    t.work.compute = 0.01;
    t.work.output_bytes = 2048;
    extra.add_task(t);
  }
  EXPECT_TRUE(b.run_graph(extra));
}

TEST(SchedulerDurable, MidRunCrashWithCompactionCompletesTheGraph) {
  // The aggressive configuration: checkpoint every few records, compact on
  // every checkpoint, tiny segments — then crash mid-run. Recovery must
  // stitch the spec-carrying checkpoint to the surviving journal suffix.
  TempDir dir("sched_compact_crash");
  dtr::SchedulerDurability durability;
  durability.dir = dir.str();
  durability.checkpoint_every = 4;
  durability.compact_on_checkpoint = true;
  durability.wal.segment_bytes = 256;
  dtr::testing::MiniCluster mini;
  mini.scheduler.enable_durability(durability);
  bool done = false;
  const auto finish = [&](const std::string&) {
    done = true;
    mini.scheduler.stop();
  };
  mini.scheduler.submit_graph(dtr::testing::diamond_graph(0.05), finish);
  mini.engine.schedule_after(0.02, [&] {
    mini.scheduler.crash_and_recover();
    mini.scheduler.set_graph_done("diamond", finish);
  });
  mini.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(mini.scheduler.recoveries(), 1u);
  EXPECT_EQ(mini.scheduler.tasks_total(), 4u);
  EXPECT_TRUE(mini.scheduler.in_memory({"sink-abc123", 0}));
  wal::ReplayStats stats;
  replay_all(dir.str(), &stats);
  EXPECT_GT(stats.compacted_records, 0u);
}

std::string read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Lowers this process's file-size limit (with SIGXFSZ ignored, so an
/// oversized write fails with EFBIG instead of killing the process) and
/// restores both on scope exit.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &saved_);
    handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit low = saved_;
    low.rlim_cur = bytes;
    ::setrlimit(RLIMIT_FSIZE, &low);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*handler_)(int) = nullptr;
};

TEST(SchedulerDurable, FailedCheckpointWriteKeepsThePreviousSnapshot) {
  // A short checkpoint write (a full disk; here the file-size limit) must
  // throw and leave the last good snapshot in place — never rename a
  // truncated one over it.
  TempDir dir("sched_cp_short");
  const auto cp_path = std::filesystem::path(dir.str()) / "checkpoint.bin";
  std::string good;
  {
    dtr::testing::MiniCluster mini;
    mini.scheduler.enable_durability({dir.str(), 0, false, {}});
    ASSERT_TRUE(mini.run_graph(dtr::testing::independent_graph(16)));
    good = read_bytes(cp_path);
    ASSERT_GT(good.size(), 64u);
    bool threw = false;
    {
      const FileSizeLimit limit(good.size() / 2);
      try {
        mini.scheduler.checkpoint();
      } catch (const wal::WalError&) {
        threw = true;
      }
    }
    EXPECT_TRUE(threw);
  }
  EXPECT_EQ(read_bytes(cp_path), good);
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(dir.str()) /
                                       "checkpoint.tmp"));

  // The previous snapshot still grounds a cold restart.
  dtr::testing::MiniCluster restarted;
  restarted.scheduler.enable_durability({dir.str(), 0, false, {}});
  restarted.scheduler.recover();
  restarted.engine.run();
  EXPECT_EQ(restarted.scheduler.recoveries(), 1u);
  EXPECT_EQ(restarted.scheduler.tasks_in_memory(), 16u);
}

TEST(SchedulerDurable, JsonTextJournalFrameIsATypedError) {
  // The journal is wire-encoded only. A JSON-text frame is corruption, and
  // both replay sites report it as a typed wire::WireError.
  const std::string json_frame = R"({"name":"g","size":1,"t":"graph"})";
  {
    TempDir dir("sched_json_enable");
    {
      wal::WalWriter writer(dir.str());
      writer.append(json_frame);
    }
    dtr::testing::MiniCluster mini;
    EXPECT_THROW(mini.scheduler.enable_durability({dir.str(), 0, false, {}}),
                 wire::WireError);
  }
  TempDir dir("sched_json_recover");
  dtr::testing::MiniCluster mini;
  mini.scheduler.enable_durability({dir.str(), 0, false, {}});
  {
    wal::WalWriter writer(dir.str());
    writer.append(json_frame);
  }
  EXPECT_THROW(mini.scheduler.recover(), wire::WireError);
}

TEST(SchedulerDurable, BareJournalFrameIsATypedError) {
  // Every journal frame is a batch group. A well-formed wire record written
  // as a frame of its own (no batch envelope) is corruption at both replay
  // sites, reported as a typed wal::WalError.
  std::string bare;
  dtr::put_graph_record(bare, "g", 1);
  {
    TempDir dir("sched_bare_enable");
    {
      wal::WalWriter writer(dir.str());
      writer.append(bare);
    }
    dtr::testing::MiniCluster mini;
    EXPECT_THROW(mini.scheduler.enable_durability({dir.str(), 0, false, {}}),
                 wal::WalError);
  }
  TempDir dir("sched_bare_recover");
  dtr::testing::MiniCluster mini;
  mini.scheduler.enable_durability({dir.str(), 0, false, {}});
  {
    wal::WalWriter writer(dir.str());
    writer.append(bare);
  }
  EXPECT_THROW(mini.scheduler.recover(), wal::WalError);
}

// ---------------------------------------------------------------------------
// Batched journal groups (DESIGN.md §11): every WAL frame is a
// {"t":"batch","base":N,"recs":[...]} group carrying the
// logical index of its first record, so checkpoint offsets (logical) and
// compaction watermarks (physical frames) stay consistent. A torn group is
// atomically absent — WAL truncation drops whole frames, so a crash inside
// a group can never half-apply it.

TEST(SchedulerBatchedJournal, GroupsAmortizeFramesAndCarryLogicalBases) {
  TempDir dir("sched_batch_frames");
  dtr::testing::MiniCluster mini;
  mini.scheduler.enable_durability({dir.str(), 0, false, {}});
  ASSERT_TRUE(mini.run_graph(dtr::testing::independent_graph(16)));

  // Grouping amortizes: fewer physical frames than logical records
  // (submit_graph alone batches 16 specs + 16 transitions into one frame).
  EXPECT_LT(mini.scheduler.journal_frames(), mini.scheduler.journal_records());
  EXPECT_GT(mini.scheduler.journal_frames(), 0u);

  // On-disk format: every frame is a batch group whose "base" is the
  // logical index of its first inner record, and the bases tile the
  // logical log exactly (no gaps, no overlaps).
  std::size_t next_logical = 0;
  std::size_t frames = 0;
  wal::WalWriter::replay(dir.str(), [&](std::string_view payload) {
    json::Value frame = wire::decode_value(payload);
    ASSERT_EQ(frame.get_string("t", ""), "batch");
    ASSERT_EQ(frame.get_int("base", -1),
              static_cast<std::int64_t>(next_logical));
    const json::Array& recs = frame["recs"].as_array();
    ASSERT_FALSE(recs.empty());
    next_logical += recs.size();
    ++frames;
  });
  EXPECT_EQ(frames, mini.scheduler.journal_frames());
  EXPECT_EQ(next_logical, mini.scheduler.journal_records());
}

TEST(SchedulerBatchedJournal, TornBatchGroupIsAtomicallyAbsent) {
  // Crash mid-write of a batch group: the WAL's torn-tail repair drops the
  // whole frame, so recovery sees *none* of the group's records — never a
  // prefix. The lost tail is re-derived by worker reconciliation, and no
  // record is applied twice.
  TempDir dir("sched_torn_batch");
  {
    dtr::testing::MiniCluster mini;
    mini.scheduler.enable_durability({dir.str(), 0, false, {}});
    ASSERT_TRUE(mini.run_graph(dtr::testing::independent_graph(8)));
  }
  const std::size_t intact_frames = replay_all(dir.str()).size();
  ASSERT_GT(intact_frames, 1u);
  {
    // Tear the final group: chop bytes out of the last frame's payload. In
    // a real crash the group's single write never completed, so the
    // graph-completion checkpoint that followed it never landed either.
    const std::string segment = last_segment_path(dir.str());
    const auto size = std::filesystem::file_size(segment);
    std::filesystem::resize_file(segment, size - 5);
    std::filesystem::remove(std::filesystem::path(dir.str()) /
                            "checkpoint.bin");
  }
  wal::ReplayStats stats;
  const std::vector<std::string> frames = replay_all(dir.str(), &stats);
  EXPECT_TRUE(stats.truncated_tail);
  EXPECT_EQ(frames.size(), intact_frames - 1);  // whole group gone, not part

  // A cold restart over the torn journal: the surviving prefix replays
  // cleanly (interior bases still line up), the work the torn group
  // described is re-dispatched, and the graph completes.
  dtr::testing::MiniCluster restarted;
  restarted.scheduler.enable_durability({dir.str(), 0, false, {}});
  restarted.scheduler.recover();
  bool done = false;
  // Fires immediately when the torn frame held only post-completion
  // records; otherwise the re-dispatched tail completes it below.
  restarted.scheduler.set_graph_done("independent", [&](const std::string&) {
    done = true;
    restarted.scheduler.stop();
  });
  restarted.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(restarted.scheduler.recoveries(), 1u);
  EXPECT_EQ(restarted.scheduler.tasks_in_memory(), 8u);
  // No double application: every task's transition chain is still legal
  // (a replayed-then-reapplied record would fork the chain).
  std::map<std::string, std::string> last_state;
  for (const auto& t : restarted.scheduler.transitions()) {
    const std::string key = t.key.to_string();
    if (last_state.count(key)) {
      EXPECT_EQ(last_state[key], t.from_state) << key << " " << t.stimulus;
    }
    last_state[key] = t.to_state;
  }
  for (const auto& [key, state] : last_state) {
    EXPECT_EQ(state, "memory") << key;
  }
}

TEST(SchedulerBatchedJournal, MidBatchCrashNeitherDoublesNorLosesWork) {
  // Crash the scheduler *while groups are open mid-run* (auto-checkpoints
  // every few records force group flushes at awkward boundaries). The
  // buffered group dies with the process; reconciliation against surviving
  // workers must complete the graph with every task in memory exactly once.
  TempDir dir("sched_mid_batch");
  dtr::SchedulerDurability durability;
  durability.dir = dir.str();
  durability.checkpoint_every = 8;
  dtr::testing::MiniCluster mini;
  mini.scheduler.enable_durability(durability);
  bool done = false;
  const auto finish = [&](const std::string&) {
    done = true;
    mini.scheduler.stop();
  };
  mini.scheduler.submit_graph(dtr::testing::independent_graph(12, 0.05),
                              finish);
  mini.engine.schedule_after(0.03, [&] {
    mini.scheduler.crash_and_recover();
    mini.scheduler.set_graph_done("independent", finish);
  });
  mini.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(mini.scheduler.recoveries(), 1u);
  EXPECT_EQ(mini.scheduler.tasks_in_memory(), 12u);
  std::map<std::string, int> memory_entries;
  for (const auto& t : mini.scheduler.transitions()) {
    if (t.to_state == "memory") ++memory_entries[t.key.to_string()];
  }
  EXPECT_EQ(memory_entries.size(), 12u);
  for (const auto& [key, count] : memory_entries) {
    EXPECT_EQ(count, 1) << key << " applied more than once";
  }

  // And the final journal is a consistent full log: a cold second restart
  // rebuilds the exact same records.
  const std::string live = dump_records(mini.scheduler.transitions());
  dtr::testing::MiniCluster cold;
  cold.scheduler.enable_durability(durability);
  cold.scheduler.recover();
  cold.engine.run();
  EXPECT_EQ(dump_records(cold.scheduler.transitions()), live);
}

TEST(SchedulerBatchedJournal, WireWritersMatchTheTreeEncodingByteForByte) {
  // The journal is written straight from the typed records. Its reference is
  // the JSON tree each record stands for, wire-encoded: equal bytes keep
  // journals identical to the tree path and readable by wire::decode_value.
  std::mt19937_64 rng(0x6a6f75726e616cULL);  // "journal"
  const auto below = [&rng](std::uint64_t n) { return rng() % n; };
  const auto text = [&]() {
    std::string s(below(12), '\0');  // often empty; any byte value
    for (char& c : s) c = static_cast<char>(below(256));
    return s;
  };
  const auto real = [&]() {
    switch (below(6)) {
      case 0: return std::numeric_limits<double>::quiet_NaN();
      case 1: return std::numeric_limits<double>::infinity();
      case 2: return -std::numeric_limits<double>::infinity();
      case 3: return 0.0;  // integral doubles stay doubles on the wire
      case 4: return -0.0;
      default:
        return std::uniform_real_distribution<double>(-1e6, 1e6)(rng);
    }
  };
  const auto integer = [&]() -> std::int64_t {
    switch (below(4)) {
      case 0: return -1;
      case 1: return std::numeric_limits<std::int64_t>::min();
      case 2: return std::numeric_limits<std::int64_t>::max();
      default: return static_cast<std::int64_t>(rng() >> below(64));
    }
  };
  const auto u64 = [&]() -> std::uint64_t {
    return below(2) == 0 ? (1ULL << 63) + (rng() >> 1) : rng() >> below(64);
  };
  const auto u32 = [&]() { return static_cast<std::uint32_t>(rng()); };
  const auto key = [&]() { return dtr::TaskKey{text(), integer()}; };
  const auto keys = [&]() {
    std::vector<dtr::TaskKey> out(below(4));
    for (dtr::TaskKey& k : out) k = key();
    return out;
  };
  const auto io_ops = [&](bool is_write) {
    std::vector<dtr::IoOpSpec> ops(1 + below(3));
    for (dtr::IoOpSpec& op : ops) op = {text(), u64(), u64(), is_write};
    return ops;
  };
  const auto wired = [](const auto& record) {
    std::string out;
    dtr::to_wire(record, out);
    return out;
  };
  const auto envelope = [](const char* type, json::Value r) {
    json::Object o;
    o["t"] = type;
    o["r"] = std::move(r);
    return json::Value(std::move(o));
  };

  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // Every record of the round, as encoded bytes and as its JSON tree.
    std::string recs;
    json::Array trees;
    const auto check = [&](const std::string& bytes, json::Value tree) {
      EXPECT_EQ(bytes, wire::encode_value(tree));
      recs += bytes;
      trees.push_back(std::move(tree));
    };

    dtr::TransitionRecord transition{key(),  text(), text(), text(),
                                     text(), text(), real()};
    EXPECT_EQ(wired(transition),
              wire::encode_value(dtr::to_json(transition)));
    std::string bytes;
    dtr::put_journal_record(bytes, transition);
    check(bytes, envelope("transition", dtr::to_json(transition)));

    dtr::TaskRecord task;
    task.key = key();
    task.graph = text();
    task.prefix = text();
    task.worker = u32();
    task.worker_address = text();
    task.thread_id = u64();
    task.lane = u32();
    task.received_time = real();
    task.ready_time = real();
    task.start_time = real();
    task.end_time = real();
    task.compute_time = real();
    task.io_time = real();
    task.gpu_time = real();
    task.output_bytes = u64();
    task.bytes_read = u64();
    task.bytes_written = u64();
    task.bytes_oob = u64();
    task.bytes_inline = u64();
    task.retries = u32();
    task.stolen = below(2) == 0;
    task.dependencies = keys();  // with and without dependencies
    EXPECT_EQ(wired(task), wire::encode_value(dtr::to_json(task)));
    bytes.clear();
    dtr::put_journal_record(bytes, task);
    check(bytes, envelope("task", dtr::to_json(task)));

    const dtr::StealRecord steal{key(), u32(), u32(), real(), real(), real()};
    EXPECT_EQ(wired(steal), wire::encode_value(dtr::to_json(steal)));
    bytes.clear();
    dtr::put_journal_record(bytes, steal);
    check(bytes, envelope("steal", dtr::to_json(steal)));

    const dtr::WarningRecord warning{text(), text(), real(), real(), text()};
    EXPECT_EQ(wired(warning), wire::encode_value(dtr::to_json(warning)));
    bytes.clear();
    dtr::put_journal_record(bytes, warning);
    check(bytes, envelope("warning", dtr::to_json(warning)));

    const std::string graph = text();
    const std::size_t size = u64();
    bytes.clear();
    dtr::put_graph_record(bytes, graph, size);
    json::Object graph_record;
    graph_record["t"] = "graph";
    graph_record["name"] = graph;
    graph_record["size"] = size;
    check(bytes, json::Value(std::move(graph_record)));

    // Specs: every on/off combination of the four optional lists.
    for (int lists = 0; lists < 16; ++lists) {
      dtr::TaskSpec spec;
      spec.key = key();
      if (lists & 1) spec.dependencies = {key(), key()};
      spec.priority = static_cast<int>(u32());
      spec.work.compute = real();
      spec.work.compute_noise_sigma = real();
      spec.work.output_bytes = u64();
      spec.work.scratch_bytes = u64();
      spec.work.blocks_event_loop = below(2) == 0;
      spec.work.failure_probability = real();
      spec.work.releasable = below(2) == 0;
      if (lists & 2) spec.work.reads = io_ops(false);
      if (lists & 4) spec.work.writes = io_ops(true);
      if (lists & 8) {
        spec.work.kernels = {{text(), real(), u32()}, {text(), real(), 1}};
      }
      EXPECT_EQ(wired(spec), wire::encode_value(dtr::to_json(spec)))
          << "lists " << lists;
      bytes.clear();
      dtr::put_spec_record(bytes, graph, spec);
      json::Object spec_record;
      spec_record["t"] = "spec";
      spec_record["graph"] = graph;
      spec_record["spec"] = dtr::to_json(spec);
      check(bytes, json::Value(std::move(spec_record)));
    }

    // Batch frames around the round's records, with bases whose varints
    // span one to nine bytes.
    for (const std::size_t base :
         {std::size_t{0}, std::size_t{63}, std::size_t{64}, std::size_t{8192},
          std::size_t{1} << 20, std::size_t{1} << 34, std::size_t{1} << 55,
          (std::size_t{1} << 62) + static_cast<std::size_t>(below(1000))}) {
      bytes.clear();
      dtr::put_batch_frame(bytes, base, trees.size(), recs);
      json::Object frame;
      frame["t"] = "batch";
      frame["base"] = base;
      frame["recs"] = trees;
      EXPECT_EQ(bytes, wire::encode_value(json::Value(std::move(frame))))
          << "base " << base;
    }
  }
}

// ---------------------------------------------------------------------------
// Lease-based worker liveness: a worker that dies *silently* (no SSG death
// notification in the MiniCluster) stops heartbeating; its lease expires
// and the scheduler reclaims its in-flight tasks.

TEST(SchedulerLease, ExpiredLeaseReclaimsTasksFromAHungWorker) {
  dtr::SchedulerConfig scheduler_config;
  scheduler_config.work_stealing = false;  // isolate the lease path
  scheduler_config.heartbeat_interval = 0.05;
  scheduler_config.lease_misses = 4.0;
  dtr::WorkerConfig worker_config;
  worker_config.heartbeat_interval = 0.05;
  dtr::testing::MiniCluster mini(2, 2, 2, worker_config, scheduler_config);

  bool done = false;
  mini.scheduler.submit_graph(
      dtr::testing::independent_graph(8, /*compute=*/0.5),
      [&](const std::string&) {
        done = true;
        mini.scheduler.stop();
        for (auto& worker : mini.workers) worker->stop();
      });
  for (auto& worker : mini.workers) worker->start_heartbeats();
  mini.scheduler.start_lease_loop();
  // Silent death at t=0.1: heartbeats cease, but nobody tells the
  // scheduler. Only the lease can notice.
  mini.engine.schedule_after(0.1, [&] { mini.workers[0]->kill(); });
  mini.engine.run();

  EXPECT_TRUE(done);
  EXPECT_GE(mini.scheduler.lease_expirations(), 1u);
  EXPECT_FALSE(mini.scheduler.worker_alive(0));
  EXPECT_EQ(mini.scheduler.erred_tasks(), 0u);
  std::set<std::string> completed;
  for (const auto& record : mini.scheduler.task_records()) {
    completed.insert(record.key.to_string());
  }
  EXPECT_EQ(completed.size(), 8u);
}

// ---------------------------------------------------------------------------
// Durable ingestor cursors.

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

  mofka::ProducerConfig config;
  config.batch_size = 8;
  config.background_flush = false;
  mofka::Producer tasks(broker, "wms_tasks", config);
  mofka::Producer warnings(broker, "wms_warnings", config);
  for (const auto& r : run.tasks) tasks.push(dtr::to_json(r));
  for (const auto& r : run.warnings) warnings.push(dtr::to_json(r));
  tasks.flush();
  warnings.flush();
  return run;
}

/// Streams `n` DXT write segments of one process and file to the Darshan
/// topic, shaped as DarshanMofkaBridge pushes them.
void produce_dxt_segments(mofka::Broker& broker, const std::string& file,
                          int n) {
  const char* topic = dtr::DarshanMofkaBridge::kTopic;
  if (!broker.topic_exists(topic)) broker.create_topic(topic);
  mofka::ProducerConfig config;
  config.batch_size = 8;
  config.background_flush = false;
  mofka::Producer producer(broker, topic, config);
  for (int i = 0; i < n; ++i) {
    json::Object o;
    o["kind"] = "dxt";
    o["file"] = file;
    o["process"] = static_cast<std::int64_t>(0);
    o["hostname"] = "node-0";
    o["op"] = "write";
    o["offset"] = static_cast<std::int64_t>(i) * 4096;
    o["length"] = static_cast<std::int64_t>(4096);
    o["start"] = 0.1 * i;
    o["end"] = 0.1 * i + 0.05;
    o["thread_id"] = static_cast<std::int64_t>(100);
    producer.push(json::Value(std::move(o)));
  }
  producer.flush();
}

TEST(IngestDurable, CursorWalSurvivesLossOfBrokerCommits) {
  TempDir dir("ingest_cursor");
  mochi::KeyValueStore kv;
  mochi::BlobStore blobs;
  mofka::Broker broker(kv, blobs);
  dtr::create_wms_topics(broker);
  const dtr::RunData run1 = produce_synthetic_run(broker, "r1", 12);
  produce_dxt_segments(broker, "/data/r1.bin", 5);
  StoreCatalog cat1;
  {
    LiveIngestor a(broker, cat1, "g", dir.str());
    a.publish(run1.meta);  // commits offsets and logs cursors to the WAL
  }
  EXPECT_EQ(cat1.snapshot().frame(ViewId::kIoSegments, {"r1", 0})->rows(),
            5u);
  const dtr::RunData run2 = produce_synthetic_run(broker, "r2", 7);
  produce_dxt_segments(broker, "/data/r2.bin", 3);

  // A restarted ingestor whose broker-side commits are gone (simulated by
  // a fresh consumer group) still resumes from the WAL cursors: run1's
  // events are not re-consumed into run2. That includes the Darshan topic,
  // which is read at publish rather than tailed.
  StoreCatalog cat2;
  LiveIngestor b(broker, cat2, "g_lost", dir.str());
  b.publish(run2.meta);
  {
    const StoreCatalog::Snapshot snap = cat2.snapshot();
    EXPECT_EQ(snap.frame(ViewId::kTasks, {"r2", 0})->rows(), 7u);
    EXPECT_EQ(snap.frame(ViewId::kIoSegments, {"r2", 0})->rows(), 3u);
  }

  // Control: the same restart *without* the cursor WAL replays everything
  // from offset zero and misattributes run1's records to run2.
  StoreCatalog cat3;
  LiveIngestor c(broker, cat3, "g_lost_no_wal");
  c.publish(run2.meta);
  {
    const StoreCatalog::Snapshot snap = cat3.snapshot();
    EXPECT_EQ(snap.frame(ViewId::kTasks, {"r2", 0})->rows(), 19u);
    EXPECT_EQ(snap.frame(ViewId::kIoSegments, {"r2", 0})->rows(), 8u);
  }
}

TEST(IngestDurable, JsonTextCursorRecordIsATypedError) {
  // The cursor WAL is wire-encoded only: a JSON-text cursor record is
  // corruption, and restoring the cursors reports it as a typed
  // wire::WireError.
  TempDir dir("ingest_json_cursor");
  {
    wal::WalWriter writer(dir.str());
    writer.append(R"({"wms_tasks":[0]})");
  }
  mochi::KeyValueStore kv;
  mochi::BlobStore blobs;
  mofka::Broker broker(kv, blobs);
  dtr::create_wms_topics(broker);
  StoreCatalog catalog;
  EXPECT_THROW((void)LiveIngestor(broker, catalog, "g", dir.str()),
               wire::WireError);
}

TEST(IngestDurable, InjectedProcessCrashRestoresCursorsAndRepolls) {
  TempDir dir("ingest_crash");
  mochi::KeyValueStore kv;
  mochi::BlobStore blobs;
  mofka::Broker broker(kv, blobs);
  dtr::create_wms_topics(broker);
  const dtr::RunData run = produce_synthetic_run(broker, "crashy", 12);

  StoreCatalog catalog;
  LiveIngestor ingestor(broker, catalog, "g", dir.str());
  chaos::FaultPlan plan;
  plan.seed = 404;
  plan.sites[chaos::sites::kIngestorProcess].schedule.push_back(
      {1, chaos::FaultAction::kProcessCrashRestart});
  ingestor.set_fault_injector(std::make_shared<chaos::FaultInjector>(plan));

  // The first poll crashes: pending events die with the process, cursors
  // restore, and the re-poll delivers everything — nothing was committed
  // before the crash, so nothing is lost.
  EXPECT_EQ(ingestor.poll(), 0u);
  EXPECT_EQ(ingestor.recoveries(), 1u);
  ingestor.publish(run.meta);
  const StoreCatalog::Snapshot snap = catalog.snapshot();
  EXPECT_EQ(snap.frame(ViewId::kTasks, {"crashy", 0})->rows(),
            run.tasks.size());
  EXPECT_EQ(snap.frame(ViewId::kWarnings, {"crashy", 0})->rows(),
            run.warnings.size());
}

/// Every view of one run, as the bytes the crash oracle compares.
std::map<std::string, std::string> view_bytes(const StoreCatalog& catalog,
                                              const prov::RunId& id) {
  const StoreCatalog::Snapshot snap = catalog.snapshot();
  std::map<std::string, std::string> out;
  for (const std::string& name : query::view_names()) {
    out[name] = fingerprint(*snap.frame(query::view_from_name(name), id));
  }
  return out;
}

TEST(IngestDurable, CrashWithKeyedRecordsPendingRepublishesIdenticalViews) {
  TempDir dir("ingest_crash_pending");
  mochi::KeyValueStore kv;
  mochi::BlobStore blobs;
  mofka::Broker broker(kv, blobs);
  dtr::create_wms_topics(broker, 2);
  const dtr::RunData early = produce_synthetic_run(broker, "early", 12);

  StoreCatalog catalog;
  LiveIngestor ingestor(broker, catalog, "g", dir.str());
  chaos::FaultPlan plan;
  plan.seed = 405;
  plan.sites[chaos::sites::kIngestorProcess].schedule.push_back(
      {2, chaos::FaultAction::kProcessCrashRestart});
  ingestor.set_fault_injector(std::make_shared<chaos::FaultInjector>(plan));

  // The first poll buffers records with their canonical keys; the second
  // crashes, and both die with the process.
  const std::size_t buffered = early.tasks.size() + early.warnings.size();
  EXPECT_EQ(ingestor.poll(), buffered);
  EXPECT_EQ(ingestor.pending_events(), buffered);
  EXPECT_EQ(ingestor.poll(), 0u);
  EXPECT_EQ(ingestor.recoveries(), 1u);
  EXPECT_EQ(ingestor.pending_events(), 0u);

  // More events arrive after the restart; the publish re-tails them all.
  const dtr::RunData late = produce_synthetic_run(broker, "late", 5);
  ingestor.publish(early.meta);

  // A fault-free ingestor (its own consumer group) over the same topics.
  StoreCatalog clean_catalog;
  LiveIngestor clean(broker, clean_catalog, "g_clean");
  clean.publish(early.meta);

  const prov::RunId id{"early", 0};
  EXPECT_EQ(catalog.snapshot().frame(ViewId::kTasks, id)->rows(),
            early.tasks.size() + late.tasks.size());
  EXPECT_EQ(view_bytes(catalog, id), view_bytes(clean_catalog, id));
}

// ---------------------------------------------------------------------------
// The crash-recovery oracle: process crashes anywhere in the durable
// control plane must not change any view by a single byte.

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

struct DurableResult {
  std::size_t direct_tasks = 0;
  std::map<std::string, std::string> views;
  std::uint64_t faults = 0;
  std::uint64_t broker_recoveries = 0;
  std::uint64_t scheduler_recoveries = 0;
  std::uint64_t ingestor_recoveries = 0;
};

DurableResult run_durable_pipeline(std::uint64_t cluster_seed,
                                   const chaos::FaultPlan& plan,
                                   const std::string& dir) {
  std::filesystem::remove_all(dir);
  dtr::ClusterConfig config;
  config.job.nodes = 2;
  config.job.workers_per_node = 2;
  config.job.threads_per_worker = 2;
  config.seed = cluster_seed;
  config.enable_gpuprof = false;
  config.fault_plan = plan;
  config.producer.batch_size = 16;  // more append batches, more crash sites
  config.producer.max_retries = 32;
  config.durability.dir = dir;

  dtr::Cluster cluster(config);
  const dtr::RunData direct = cluster.run(workload(), "durable", 0);

  StoreCatalog catalog;
  LiveIngestor ingestor(cluster.broker(), catalog, "recup_query_ingest",
                        dir + "/ingest");
  if (cluster.fault_injector()) {
    ingestor.set_fault_injector(cluster.fault_injector());
  }
  ingestor.publish(direct.meta);

  DurableResult result;
  result.direct_tasks = direct.tasks.size();
  const StoreCatalog::Snapshot snap = catalog.snapshot();
  const prov::RunId id{"durable", 0};
  for (const ViewId view : {ViewId::kTasks, ViewId::kTransitions,
                            ViewId::kComms, ViewId::kWarnings,
                            ViewId::kSteals}) {
    result.views[query::view_name(view)] = fingerprint(*snap.frame(view, id));
  }
  if (cluster.fault_injector()) {
    result.faults = cluster.fault_injector()->faults_injected();
  }
  result.broker_recoveries = cluster.broker().recoveries();
  result.scheduler_recoveries = cluster.scheduler().recoveries();
  result.ingestor_recoveries = ingestor.recoveries();
  return result;
}

/// Crashes every durable component: the broker probabilistically per append
/// batch, the scheduler deterministically at the first graph boundary, the
/// ingestor on its first poll (plus probabilistically afterwards).
chaos::FaultPlan crash_everything_plan(std::uint64_t seed) {
  chaos::FaultPlan plan;
  plan.seed = seed;
  plan.sites[chaos::sites::kBrokerProcess].process_crash_restart = 0.05;
  plan.sites[chaos::sites::kSchedulerProcess].schedule.push_back(
      {1, chaos::FaultAction::kProcessCrashRestart});
  chaos::SiteSpec& ingest = plan.sites[chaos::sites::kIngestorProcess];
  ingest.schedule.push_back({1, chaos::FaultAction::kProcessCrashRestart});
  ingest.process_crash_restart = 0.05;
  return plan;
}

class CrashRecoveryOracle : public ::testing::TestWithParam<int> {};

TEST_P(CrashRecoveryOracle, ViewsIdenticalAcrossProcessCrashes) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const chaos::FaultPlan plan = crash_everything_plan(7000 + seed);
  TempDir dir("oracle_" + std::to_string(seed));

  const DurableResult baseline =
      run_durable_pipeline(seed, chaos::FaultPlan{}, dir.str() + "/base");
  const DurableResult crashed =
      run_durable_pipeline(seed, plan, dir.str() + "/fault");

  // The plan really crashed processes...
  EXPECT_GT(crashed.faults, 0u) << plan.describe();
  EXPECT_GE(crashed.scheduler_recoveries, 1u);
  EXPECT_GE(crashed.ingestor_recoveries, 1u);
  EXPECT_EQ(baseline.scheduler_recoveries + baseline.broker_recoveries +
                baseline.ingestor_recoveries,
            0u);
  // ...the workflow was unperturbed...
  EXPECT_EQ(crashed.direct_tasks, baseline.direct_tasks);
  // ...and every view survived byte-identical.
  ASSERT_EQ(crashed.views.size(), baseline.views.size());
  for (const auto& [name, expected] : baseline.views) {
    const auto it = crashed.views.find(name);
    ASSERT_NE(it, crashed.views.end()) << name;
    EXPECT_EQ(it->second, expected)
        << "view '" << name << "' diverged under " << plan.describe();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoveryOracle, ::testing::Range(1, 11));

// ---------------------------------------------------------------------------
// Dead-letter flow-through: a task the chaos of the cluster dead-letters is
// queryable as a warnings-view row through the full query service.

TEST(DeadLetterQuery, DeadLetteredTaskAppearsInTheWarningsView) {
  dtr::ClusterConfig config;
  config.job.nodes = 1;
  config.job.workers_per_node = 2;
  config.job.threads_per_worker = 2;
  config.seed = 11;
  config.enable_gpuprof = false;
  config.scheduler.max_retries = 1;

  dtr::TaskGraph graph("doomed");
  dtr::TaskSpec bad;
  bad.key = {"doomed-aa11", 0};
  bad.work.compute = 0.01;
  bad.work.failure_probability = 1.0;  // fails every attempt
  graph.add_task(bad);
  for (int i = 1; i <= 4; ++i) {
    dtr::TaskSpec ok;
    ok.key = {"fine-bb22", i};
    ok.work.compute = 0.01;
    graph.add_task(ok);
  }

  dtr::Cluster cluster(config);
  const dtr::RunData run = cluster.run({graph}, "deadletter", 0);
  ASSERT_GE(cluster.scheduler().erred_tasks(), 1u);

  StoreCatalog catalog;
  LiveIngestor ingestor(cluster.broker(), catalog);
  ingestor.publish(run.meta);

  query::QueryServer server(catalog);
  query::QueryClient client(server);
  const query::QueryResponse response = client.query(std::string(
      R"({"from": "warnings",
          "where": [{"col": "kind", "op": "==", "value": "dead_letter"}]})"));
  ASSERT_TRUE(response.ok) << response.error;
  ASSERT_GE(response.frame.rows(), 1u);
  // The row names the doomed task.
  bool named = false;
  for (std::size_t c = 0; c < response.frame.width(); ++c) {
    for (std::size_t r = 0; r < response.frame.rows(); ++r) {
      if (response.frame.col(c).display(r).find("doomed-aa11") !=
          std::string::npos) {
        named = true;
      }
    }
  }
  EXPECT_TRUE(named);
}

// ---------------------------------------------------------------------------
// QueryClient transient retry: a client resolving the server through a
// discovery hook rides out a restart; without retries the same error is
// surfaced (marked transient) instead.

TEST(QueryRetry, ClientRetriesAcrossAServerRestart) {
  StoreCatalog catalog;
  dtr::RunData run;
  run.meta.workflow = "W";
  run.meta.run_index = 0;
  dtr::TaskRecord t;
  t.key = {"t-aaaa", 0};
  t.graph = "g";
  t.prefix = "t";
  t.worker = 0;
  t.start_time = 0.0;
  t.end_time = 1.0;
  run.tasks.push_back(t);
  catalog.add_run(run);

  query::QueryServer dead(catalog);
  dead.shutdown();
  query::QueryServer live(catalog);

  // Fail-fast control: no retries, the shutdown error comes back marked
  // retryable.
  {
    query::QueryClient client(dead);
    const query::QueryResponse response =
        client.query(std::string(R"({"from": "tasks"})"));
    EXPECT_FALSE(response.ok);
    EXPECT_TRUE(response.raw.get_bool("transient", false));
    EXPECT_EQ(client.retries(), 0u);
  }

  // Discovery resolves the dead server first, the restarted one on retry.
  std::atomic<int> resolutions{0};
  query::QueryClient::Config config;
  config.max_retries = 3;
  query::QueryClient client(
      [&]() -> query::QueryServer& {
        return resolutions.fetch_add(1) == 0 ? dead : live;
      },
      config);
  const query::QueryResponse response =
      client.query(std::string(R"({"from": "tasks"})"));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.frame.rows(), 1u);
  EXPECT_GE(client.retries(), 1u);
  EXPECT_GE(resolutions.load(), 2);
}

}  // namespace
}  // namespace recup
