// Unit tests for the Mochi microservice substrate: Yokan KV, Warabi blobs,
// SSG membership/fault detection, Bedrock bootstrapping.
#include <gtest/gtest.h>

#include <thread>

#include "mochi/bedrock.hpp"
#include "mochi/ssg.hpp"
#include "mochi/warabi.hpp"
#include "mochi/yokan.hpp"

namespace recup::mochi {
namespace {

TEST(Yokan, PutGetEraseExists) {
  KeyValueStore kv;
  kv.put("a", "1");
  EXPECT_EQ(kv.get("a").value(), "1");
  EXPECT_TRUE(kv.exists("a"));
  kv.put("a", "2");  // overwrite
  EXPECT_EQ(kv.get("a").value(), "2");
  EXPECT_TRUE(kv.erase("a"));
  EXPECT_FALSE(kv.erase("a"));
  EXPECT_FALSE(kv.get("a").has_value());
}

TEST(Yokan, PutIfAbsent) {
  KeyValueStore kv;
  EXPECT_TRUE(kv.put_if_absent("k", "v1"));
  EXPECT_FALSE(kv.put_if_absent("k", "v2"));
  EXPECT_EQ(kv.get("k").value(), "v1");
}

TEST(Yokan, PrefixListingOrderedAndLimited) {
  KeyValueStore kv;
  kv.put("t/a/2", "y");
  kv.put("t/a/1", "x");
  kv.put("t/b/1", "z");
  kv.put("u/0", "w");
  const auto keys = kv.list_keys("t/a/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "t/a/1");
  EXPECT_EQ(keys[1], "t/a/2");
  EXPECT_EQ(kv.list_keys("t/", 1).size(), 1u);
  const auto kvs = kv.list_keyvals("t/b/");
  ASSERT_EQ(kvs.size(), 1u);
  EXPECT_EQ(kvs[0].second, "z");
}

TEST(Yokan, IncrementAtomicCounter) {
  KeyValueStore kv;
  EXPECT_EQ(kv.increment("n"), 1);
  EXPECT_EQ(kv.increment("n", 5), 6);
  EXPECT_EQ(kv.increment("n", -2), 4);
  kv.put("bad", "not-a-number");
  EXPECT_THROW(kv.increment("bad"), std::runtime_error);
}

TEST(Yokan, ConcurrentPuts) {
  KeyValueStore kv;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&kv, t] {
      for (int i = 0; i < 250; ++i) {
        kv.put("k" + std::to_string(t) + "-" + std::to_string(i), "v");
        kv.increment("counter");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(kv.size(), 1001u);  // 1000 keys + counter
  EXPECT_EQ(kv.get("counter").value(), "1000");
}

TEST(Warabi, CreateSealedReadBack) {
  BlobStore store;
  const RegionId id = store.create_sealed("hello world");
  EXPECT_EQ(store.read(id), "hello world");
  EXPECT_EQ(store.read(id, 6), "world");
  EXPECT_EQ(store.read(id, 6, 3), "wor");
  EXPECT_EQ(store.read(id, 100), "");  // past end clamps
  EXPECT_EQ(store.size(id), 11u);
  EXPECT_TRUE(store.sealed(id));
}

TEST(Warabi, AppendThenSeal) {
  BlobStore store;
  const RegionId id = store.create();
  EXPECT_EQ(store.append(id, "abc"), 0u);
  EXPECT_EQ(store.append(id, "def"), 3u);
  store.seal(id);
  EXPECT_THROW(store.append(id, "x"), std::logic_error);
  EXPECT_EQ(store.read(id), "abcdef");
}

TEST(Warabi, EraseAndUnknownRegion) {
  BlobStore store;
  const RegionId id = store.create_sealed("x");
  EXPECT_TRUE(store.exists(id));
  EXPECT_TRUE(store.erase(id));
  EXPECT_FALSE(store.exists(id));
  EXPECT_THROW(store.read(id), std::out_of_range);
  EXPECT_THROW(store.size(999), std::out_of_range);
}

TEST(Warabi, StatsTrackBytes) {
  BlobStore store;
  const RegionId id = store.create_sealed("12345678");
  store.read(id, 0, 4);
  const WarabiStats stats = store.stats();
  EXPECT_EQ(stats.bytes_written, 8u);
  EXPECT_EQ(stats.bytes_read, 4u);
  EXPECT_EQ(stats.creates, 1u);
}

// Regression pin for the locking contract documented in warabi.hpp: every
// public call serializes on the store's single internal mutex, so a read of
// an *unsealed* region concurrent with appends to it is a prefix-consistent
// snapshot — a whole number of appended records, never a torn one. Any
// change to the locking scheme (sharding the mutex, lock-free reads) must
// keep this hammer green under TSan.
TEST(Warabi, BlobStoreLockingContract) {
  BlobStore store;
  const RegionId open = store.create();
  // Records are runs of one repeated letter; a torn read would surface as a
  // run whose length is not a multiple of the record size.
  constexpr std::size_t kRecordSize = 64;
  constexpr int kRecords = 400;

  std::thread appender([&] {
    for (int i = 0; i < kRecords; ++i) {
      store.append(open, std::string(kRecordSize, static_cast<char>(
                                                      'a' + (i % 2))));
    }
    store.seal(open);
  });

  std::uint64_t snapshots = 0;
  for (;;) {
    const std::string snapshot = store.read(open);
    ++snapshots;
    // Prefix consistency: a whole number of records, and each record run is
    // intact (no interleaving or tearing within a record boundary).
    ASSERT_EQ(snapshot.size() % kRecordSize, 0u);
    for (std::size_t r = 0; r + kRecordSize <= snapshot.size();
         r += kRecordSize) {
      const char expected = static_cast<char>('a' + (r / kRecordSize) % 2);
      ASSERT_EQ(snapshot[r], expected) << "record " << r / kRecordSize;
      ASSERT_EQ(snapshot[r + kRecordSize - 1], expected)
          << "record " << r / kRecordSize;
    }
    if (snapshot.size() == kRecordSize * kRecords && store.sealed(open)) break;
  }
  appender.join();
  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(store.read(open).size(), kRecordSize * kRecords);

  // Multi-call atomicity is *not* promised for open regions: only sealing
  // freezes the region (further appends throw), after which any sequence of
  // reads is trivially consistent.
  EXPECT_THROW(store.append(open, "late"), std::logic_error);
}

TEST(Ssg, JoinLeaveMembership) {
  Group group("g");
  const MemberId a = group.join("addr-a");
  const MemberId b = group.join("addr-b");
  EXPECT_EQ(group.members().size(), 2u);
  EXPECT_EQ(group.alive_count(), 2u);
  group.leave(a);
  EXPECT_EQ(group.members().size(), 1u);
  EXPECT_EQ(group.state(b), MemberState::kAlive);
  EXPECT_THROW(group.state(a), std::out_of_range);
}

TEST(Ssg, FaultDetectionProgression) {
  Group group("g", /*suspect_after=*/2, /*dead_after=*/4);
  const MemberId a = group.join("addr-a");
  std::vector<MembershipUpdate> updates;
  group.add_observer([&](const Member&, MembershipUpdate u) {
    updates.push_back(u);
  });
  group.tick();  // consume join-round heartbeat
  group.tick();  // miss 1
  EXPECT_EQ(group.state(a), MemberState::kAlive);
  group.tick();  // miss 2 -> suspect
  EXPECT_EQ(group.state(a), MemberState::kSuspect);
  group.tick();  // miss 3
  group.tick();  // miss 4 -> dead
  EXPECT_EQ(group.state(a), MemberState::kDead);
  ASSERT_EQ(updates.size(), 2u);
  EXPECT_EQ(updates[0], MembershipUpdate::kSuspected);
  EXPECT_EQ(updates[1], MembershipUpdate::kDied);
}

TEST(Ssg, HeartbeatRevivesSuspect) {
  Group group("g", 2, 5);
  const MemberId a = group.join("addr-a");
  group.tick();
  group.tick();
  group.tick();  // -> suspect
  EXPECT_EQ(group.state(a), MemberState::kSuspect);
  bool rejoined = false;
  group.add_observer([&](const Member&, MembershipUpdate u) {
    if (u == MembershipUpdate::kRejoined) rejoined = true;
  });
  group.heartbeat(a);
  EXPECT_EQ(group.state(a), MemberState::kAlive);
  EXPECT_TRUE(rejoined);
}

TEST(Ssg, SteadyHeartbeatsStayAlive) {
  Group group("g");
  const MemberId a = group.join("addr-a");
  for (int i = 0; i < 20; ++i) {
    group.heartbeat(a);
    group.tick();
  }
  EXPECT_EQ(group.state(a), MemberState::kAlive);
}

TEST(Ssg, InvalidThresholdsRejected) {
  EXPECT_THROW(Group("g", 0, 5), std::invalid_argument);
  EXPECT_THROW(Group("g", 5, 5), std::invalid_argument);
}

TEST(Bedrock, BootstrapFromJson) {
  auto handle = ServiceHandle::from_string(R"({
    "providers": [
      {"type": "yokan",  "name": "meta"},
      {"type": "warabi", "name": "data"},
      {"type": "ssg",    "name": "group", "suspect_after": 3,
       "dead_after": 9}
    ]
  })");
  handle.yokan("meta").put("k", "v");
  EXPECT_EQ(handle.yokan("meta").get("k").value(), "v");
  const auto id = handle.warabi("data").create_sealed("blob");
  EXPECT_EQ(handle.warabi("data").read(id), "blob");
  handle.ssg("group").join("w1");
  EXPECT_EQ(handle.ssg("group").alive_count(), 1u);
  EXPECT_TRUE(handle.has_provider("meta"));
  EXPECT_FALSE(handle.has_provider("nope"));
  EXPECT_EQ(handle.provider_names().size(), 3u);
}

TEST(Bedrock, ConfigErrors) {
  EXPECT_THROW(ServiceHandle::from_string("{}"), BedrockError);
  EXPECT_THROW(ServiceHandle::from_string(
                   R"({"providers": [{"type": "bogus", "name": "x"}]})"),
               BedrockError);
  EXPECT_THROW(ServiceHandle::from_string(
                   R"({"providers": [{"type": "yokan"}]})"),
               BedrockError);
  EXPECT_THROW(ServiceHandle::from_string(R"({"providers": [
                   {"type": "yokan", "name": "dup"},
                   {"type": "warabi", "name": "dup"}]})"),
               BedrockError);
  auto handle = ServiceHandle::from_string(
      R"({"providers": [{"type": "yokan", "name": "meta"}]})");
  EXPECT_THROW(handle.warabi("meta"), BedrockError);
  EXPECT_THROW(handle.yokan("missing"), BedrockError);
}

}  // namespace
}  // namespace recup::mochi
