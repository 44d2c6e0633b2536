// Unit tests for the Mofka event streaming service: topics, batching
// producer, pull consumer, data selectors, consumer groups, and concurrent
// production.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <thread>

#include "common/wal.hpp"
#include "mochi/warabi.hpp"
#include "mochi/yokan.hpp"
#include "mofka/broker.hpp"
#include "mofka/consumer.hpp"
#include "mofka/producer.hpp"
#include "mofka/wire.hpp"

namespace recup::mofka {
namespace {

class MofkaTest : public ::testing::Test {
 protected:
  MofkaTest() : broker_(kv_, blobs_) {}

  mochi::KeyValueStore kv_;
  mochi::BlobStore blobs_;
  Broker broker_;
};

json::Value meta(int i) {
  json::Object o;
  o["i"] = i;
  return json::Value(std::move(o));
}

TEST_F(MofkaTest, TopicLifecycle) {
  broker_.create_topic("t", 2);
  EXPECT_TRUE(broker_.topic_exists("t"));
  EXPECT_FALSE(broker_.topic_exists("u"));
  EXPECT_EQ(broker_.partition_count("t"), 2u);
  EXPECT_THROW(broker_.create_topic("t"), MofkaError);
  EXPECT_THROW(broker_.create_topic("zero", 0), MofkaError);
  EXPECT_THROW(broker_.partition_count("u"), MofkaError);
}

TEST_F(MofkaTest, ProduceConsumeOrderedPerPartition) {
  broker_.create_topic("t");
  Producer producer(broker_, "t", ProducerConfig{8});
  for (int i = 0; i < 20; ++i) producer.push(meta(i), "d" + std::to_string(i));
  producer.flush();

  Consumer consumer(broker_, "t", "g");
  int expected = 0;
  while (auto event = consumer.pull()) {
    EXPECT_EQ(event->metadata.at("i").as_int(), expected);
    EXPECT_EQ(event->data, "d" + std::to_string(expected));
    ++expected;
  }
  EXPECT_EQ(expected, 20);
}

TEST_F(MofkaTest, PushFutureResolvesToOffset) {
  broker_.create_topic("t");
  Producer producer(broker_, "t", ProducerConfig{4});
  auto f0 = producer.push(meta(0));
  auto f1 = producer.push(meta(1));
  producer.flush();
  EXPECT_EQ(f0.get(), 0u);
  EXPECT_EQ(f1.get(), 1u);
}

TEST_F(MofkaTest, SizeTriggeredBatching) {
  broker_.create_topic("t");
  Producer producer(broker_, "t", ProducerConfig{4});
  for (int i = 0; i < 9; ++i) producer.push(meta(i));
  // Two full batches flushed by size; one partial pending.
  EXPECT_EQ(broker_.partition_size("t", 0), 8u);
  producer.flush();
  EXPECT_EQ(broker_.partition_size("t", 0), 9u);
  const ProducerStats stats = producer.stats();
  EXPECT_EQ(stats.pushed, 9u);
  EXPECT_EQ(stats.size_triggered_flushes, 2u);
  EXPECT_EQ(stats.batches_flushed, 3u);
}

TEST_F(MofkaTest, DestructorFlushesPending) {
  broker_.create_topic("t");
  {
    Producer producer(broker_, "t", ProducerConfig{1000});
    producer.push(meta(1));
  }
  EXPECT_EQ(broker_.partition_size("t", 0), 1u);
}

TEST_F(MofkaTest, RoundRobinPartitionSpread) {
  broker_.create_topic("t", 4);
  Producer producer(broker_, "t", ProducerConfig{1});
  for (int i = 0; i < 8; ++i) producer.push(meta(i));
  producer.flush();
  for (PartitionIndex p = 0; p < 4; ++p) {
    EXPECT_EQ(broker_.partition_size("t", p), 2u);
  }
}

TEST_F(MofkaTest, DataSelectorSkipsOrSlicesPayload) {
  broker_.create_topic("t");
  Producer producer(broker_, "t", ProducerConfig{1});
  producer.push(meta(0), "0123456789");
  producer.push(meta(1), "abcdefghij");
  producer.flush();

  ConsumerConfig config;
  config.selector = [](const json::Value& m) {
    DataSelection sel;
    if (m.at("i").as_int() == 0) {
      sel.fetch = false;  // skip payload
    } else {
      sel.offset = 2;
      sel.length = 3;
    }
    return sel;
  };
  Consumer consumer(broker_, "t", "g", std::move(config));
  const auto events = consumer.pull_all();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].data, "");
  EXPECT_EQ(events[1].data, "cde");
}

TEST_F(MofkaTest, ConsumerGroupsResumeFromCommit) {
  broker_.create_topic("t");
  Producer producer(broker_, "t", ProducerConfig{1});
  for (int i = 0; i < 5; ++i) producer.push(meta(i));
  producer.flush();

  {
    Consumer consumer(broker_, "t", "g");
    EXPECT_TRUE(consumer.pull().has_value());
    EXPECT_TRUE(consumer.pull().has_value());
    consumer.commit();
  }
  {
    Consumer consumer(broker_, "t", "g");
    const auto event = consumer.pull();
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->metadata.at("i").as_int(), 2);  // resumes at offset 2
  }
  {
    Consumer fresh(broker_, "t", "other-group");
    EXPECT_EQ(fresh.pull_all().size(), 5u);  // independent offsets
  }
}

TEST_F(MofkaTest, StatsAccumulateBytes) {
  broker_.create_topic("t");
  Producer producer(broker_, "t", ProducerConfig{2});
  producer.push(meta(0), "xxxx");
  producer.push(meta(1), "yy");
  producer.flush();
  const TopicStats stats = broker_.topic_stats("t");
  EXPECT_EQ(stats.events, 2u);
  EXPECT_EQ(stats.bytes_data, 6u);
  EXPECT_GT(stats.bytes_metadata, 0u);
  EXPECT_GE(stats.batches, 1u);
}

TEST_F(MofkaTest, ConcurrentProducersAllEventsArrive) {
  broker_.create_topic("t", 2);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  {
    std::vector<std::unique_ptr<Producer>> producers;
    for (int t = 0; t < kThreads; ++t) {
      producers.push_back(std::make_unique<Producer>(
          broker_, "t", ProducerConfig{16}));
    }
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          producers[t]->push(meta(t * kPerThread + i));
        }
        producers[t]->flush();
      });
    }
    for (auto& thread : threads) thread.join();
  }
  Consumer consumer(broker_, "t", "g");
  std::set<std::int64_t> seen;
  while (auto event = consumer.pull()) {
    seen.insert(event->metadata.at("i").as_int());
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST_F(MofkaTest, FetchOutOfRangeReturnsNullopt) {
  broker_.create_topic("t");
  EXPECT_FALSE(broker_.fetch("t", 0, 0).has_value());
  EXPECT_THROW(broker_.fetch("t", 5, 0), MofkaError);
  EXPECT_THROW(broker_.fetch("missing", 0, 0), MofkaError);
}

TEST_F(MofkaTest, EmptyBatchRejected) {
  broker_.create_topic("t");
  wire::StreamEncoder encoder;
  EXPECT_THROW(broker_.append_frame("t", 0, /*session=*/1,
                                    encode_event_frame(encoder, {})),
               MofkaError);
}

// --- Binary wire path -------------------------------------------------------

TEST_F(MofkaTest, EventFrameRoundTripsAndShrinksWithInterning) {
  wire::StreamEncoder encoder;
  wire::StreamDecoder decoder;
  std::vector<EventBytes> events;
  for (int i = 0; i < 4; ++i) {
    json::Object o;
    o["task_state"] = std::string("TASK_COMPLETED");
    o["worker"] = std::string("nid004512");
    o["seq"] = i;
    events.emplace_back(wire::encode_value(json::Value(std::move(o))),
                        "payload" + std::to_string(i));
  }
  const std::string f1 = encode_event_frame(encoder, events);
  const std::string f2 = encode_event_frame(encoder, events);
  EXPECT_EQ(decode_event_frame(decoder, f1), events);
  EXPECT_EQ(decode_event_frame(decoder, f2), events);
  // Second frame ships dictionary refs for the repeated keys/values.
  EXPECT_LT(f2.size(), f1.size());
  // Retried delivery of the same bytes decodes idempotently.
  EXPECT_EQ(decode_event_frame(decoder, f2), events);
}

TEST_F(MofkaTest, AppendFrameStoresEventsAndCountsWireBytes) {
  broker_.create_topic("t");
  wire::StreamEncoder encoder;
  std::vector<EventBytes> events;
  for (int i = 0; i < 3; ++i) {
    events.emplace_back(wire::encode_value(meta(i)), "d" + std::to_string(i));
  }
  const std::string frame = encode_event_frame(encoder, events);
  const AppendResult ack = broker_.append_frame("t", 0, /*session=*/1, frame);
  ASSERT_EQ(ack.offsets.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const auto event = broker_.fetch("t", 0, static_cast<EventId>(i));
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->metadata.at("i").as_int(), i);
    EXPECT_EQ(event->data, "d" + std::to_string(i));
  }
  EXPECT_EQ(broker_.topic_stats("t").bytes_wire, frame.size());
}

TEST_F(MofkaTest, MalformedFrameRejected) {
  broker_.create_topic("t");
  EXPECT_THROW(broker_.append_frame("t", 0, 1, "\x08garbage"),
               WireSessionError);
  // The poisoned session state was discarded: a clean frame on the same
  // session id decodes fine afterwards.
  wire::StreamEncoder encoder;
  const std::string frame = encode_event_frame(encoder, {{wire::encode_value(meta(0)), "d"}});
  EXPECT_EQ(broker_.append_frame("t", 0, 1, frame).offsets.size(), 1u);
}

TEST_F(MofkaTest, BrokerRestartWipesWireSessions) {
  broker_.create_topic("t");
  wire::StreamEncoder encoder;
  json::Object o;
  o["shared_key_name"] = std::string("shared_value_text");
  const std::string metadata = wire::encode_value(json::Value(std::move(o)));
  // Frame 1 sights the strings, frame 2 defines them, frame 3 is refs-only.
  (void)broker_.append_frame("t", 0, 7, encode_event_frame(encoder, {{metadata, ""}}));
  (void)broker_.append_frame("t", 0, 7, encode_event_frame(encoder, {{metadata, ""}}));
  broker_.crash_and_recover();
  // The restarted broker lost the session dictionary; an interned frame is
  // undecodable and must surface as WireSessionError (not TransientFault —
  // retrying the same bytes can never succeed).
  EXPECT_THROW((void)broker_.append_frame("t", 0, 7,
                                          encode_event_frame(encoder, {{metadata, ""}})),
               WireSessionError);
  // Recovery path: reset the encoder session and re-encode self-contained.
  // (This broker is non-durable, so the restart also dropped the topic.)
  broker_.create_topic("t");
  wire::StreamEncoder fresh;
  const AppendResult ack =
      broker_.append_frame("t", 0, 7, encode_event_frame(fresh, {{metadata, ""}}));
  EXPECT_EQ(ack.offsets.size(), 1u);
}

TEST_F(MofkaTest, BinaryProducerMatchesJsonProducerAndSavesWireBytes) {
  broker_.create_topic("bin");
  Producer producer(broker_, "bin", ProducerConfig{8});
  std::uint64_t json_text_bytes = 0;
  for (int i = 0; i < 64; ++i) {
    json::Object o;
    o["task_state"] = std::string("TASK_RUNNING");
    o["worker"] = std::string("nid004512");
    o["i"] = i;
    const json::Value metadata(std::move(o));
    json_text_bytes += metadata.dump().size();
    producer.push(metadata, "data");
  }
  producer.flush();
  // The frames the broker received are smaller than the events' JSON text.
  const TopicStats stats = broker_.topic_stats("bin");
  EXPECT_GT(stats.bytes_wire, 0u);
  EXPECT_LT(stats.bytes_wire, json_text_bytes);
}

/// Event metadata around the producer's stamps: keys sorting before "_pid",
/// between the stamps and after them, stamps already present, and values
/// that are no object (pushed unstamped).
std::vector<json::Value> stamp_cases() {
  std::vector<json::Value> out;
  const char* const keys[] = {"A", "0", "_a", "_q", "a"};
  for (int i = 0; i < 10; ++i) {
    json::Object o;
    for (int k = 0; k < 5; ++k) {
      if ((i + k) % 3 != 0) o[keys[k]] = json::Value(i * 10 + k);
    }
    if (i % 4 == 1) {
      o["_pid"] = "stale";
      o["_seq"] = json::Array{};
    }
    out.emplace_back(std::move(o));
  }
  out.emplace_back("not an object");
  out.emplace_back(json::Array{json::Object{{"_pid", 1}, {"_seq", 2}}});
  return out;
}

/// What one producer's pushes left in a durable broker.
struct Stored {
  std::uint64_t pid = 0;
  std::vector<EventId> acks;
  /// Per partition, in offset order: the Yokan values, and the metadata of
  /// the broker WAL's batch records.
  std::vector<std::vector<std::string>> values;
  std::vector<std::vector<std::string>> logged;
  std::uint64_t bytes_wire = 0;
};

/// Pushes stamp_cases() into a fresh two-partition durable broker, as trees
/// or as their wire bytes.
Stored push_stamp_cases(const std::string& dir, bool as_bytes) {
  std::filesystem::remove_all(dir);
  mochi::KeyValueStore kv;
  mochi::BlobStore blobs;
  Stored stored;
  {
    Broker broker(kv, blobs, dir);
    broker.create_topic("t", 2);
    Producer producer(broker, "t", ProducerConfig{4});
    stored.pid = producer.producer_id();
    std::vector<std::future<EventId>> acks;
    int i = 0;
    for (const json::Value& metadata : stamp_cases()) {
      std::string data = "data" + std::to_string(i++);
      acks.push_back(as_bytes ? producer.push_wire(wire::encode_value(metadata),
                                                   std::move(data))
                              : producer.push(metadata, std::move(data)));
    }
    producer.flush();
    for (auto& ack : acks) stored.acks.push_back(ack.get());
    stored.values.resize(2);
    for (PartitionIndex p = 0; p < 2; ++p) {
      for (EventId offset = 0; offset < broker.partition_size("t", p);
           ++offset) {
        char key[64];
        std::snprintf(key, sizeof(key), "t/t/%08u/%020llu", p,
                      static_cast<unsigned long long>(offset));
        stored.values[p].push_back(kv.get(key).value_or("missing"));
      }
    }
    stored.bytes_wire = broker.topic_stats("t").bytes_wire;
  }
  // Batch records: 'B', then length-prefixed topic, partition, count and
  // (metadata, data) pairs, little-endian.
  stored.logged.resize(2);
  wal::WalWriter::replay(dir, [&](std::string_view record) {
    if (record[0] != 'B') return;
    std::size_t pos = 1;
    const auto u32 = [&] {
      std::uint32_t v = 0;
      for (int b = 0; b < 4; ++b) {
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(record[pos + b]))
             << (8 * b);
      }
      pos += 4;
      return v;
    };
    const auto str = [&] {
      const std::uint32_t n = u32();
      const std::string out(record.substr(pos, n));
      pos += n;
      return out;
    };
    (void)str();  // topic
    const std::uint32_t partition = u32();
    const std::uint32_t count = u32();
    for (std::uint32_t e = 0; e < count; ++e) {
      stored.logged.at(partition).push_back(str());
      (void)str();  // data
    }
  });
  std::filesystem::remove_all(dir);
  return stored;
}

TEST_F(MofkaTest, TreePushAndBytePushStoreTheSameBytes) {
  // push(json::Value) and push_wire(bytes) send the same frames and store,
  // log and ack the same bytes: encode_value of the tree stamped with the
  // producer's id and per-partition sequence, as the tree path always has.
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("recup_mofka_push_" + std::to_string(::getpid())))
                              .string();
  const Stored by_tree = push_stamp_cases(dir, false);
  const Stored by_bytes = push_stamp_cases(dir, true);
  EXPECT_EQ(by_tree.acks, by_bytes.acks);
  for (const Stored* stored : {&by_tree, &by_bytes}) {
    // Round-robin over two partitions; objects take the next sequence.
    std::vector<std::vector<std::string>> expected(2);
    std::vector<std::uint64_t> next_seq(2, 0);
    std::uint64_t frame_bytes = 0;
    std::vector<wire::StreamEncoder> encoders(2);
    std::vector<std::vector<EventBytes>> batches(2);
    const auto flush = [&](PartitionIndex p) {
      if (batches[p].empty()) return;
      frame_bytes += encode_event_frame(encoders[p], batches[p]).size();
      batches[p].clear();
    };
    int i = 0;
    for (json::Value metadata : stamp_cases()) {
      const auto p = static_cast<PartitionIndex>(i % 2);
      if (metadata.is_object()) {
        metadata["_pid"] = stored->pid;
        metadata["_seq"] = next_seq[p]++;
      }
      expected[p].push_back(wire::encode_value(metadata));
      batches[p].emplace_back(expected[p].back(), "data" + std::to_string(i));
      if (batches[p].size() == 4) flush(p);
      ++i;
    }
    flush(0);
    flush(1);
    EXPECT_EQ(stored->values, expected);
    EXPECT_EQ(stored->logged, expected);
    EXPECT_EQ(stored->bytes_wire, frame_bytes);
  }
}

TEST_F(MofkaTest, DataSelectorSeesTheStoredTree) {
  // The consumer's data selector gets the metadata as stored, producer
  // stamps included, decoded into a tree.
  broker_.create_topic("t", 2);
  Producer producer(broker_, "t", ProducerConfig{8});
  for (int i = 0; i < 4; ++i) {
    (void)producer.push_wire(wire::encode_value(meta(i)), "payload");
  }
  producer.flush();

  std::vector<json::Value> seen;
  ConsumerConfig config;
  config.selector = [&](const json::Value& metadata) {
    seen.push_back(metadata);
    return DataSelection{0, 3, true};
  };
  Consumer consumer(broker_, "t", "g", config);
  std::size_t pulled = 0;
  while (auto event = consumer.pull_wire()) {
    EXPECT_EQ(event->data, "pay");
    EXPECT_EQ(wire::encode_value(seen.back()), event->metadata);
    EXPECT_EQ(seen.back().at("_pid").as_int(),
              static_cast<std::int64_t>(producer.producer_id()));
    ++pulled;
  }
  EXPECT_EQ(pulled, 4u);
  EXPECT_EQ(seen.size(), 4u);
}

}  // namespace
}  // namespace recup::mofka
