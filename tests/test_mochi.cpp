// Unit tests for the Mochi microservice substrate: Yokan KV, Warabi blobs,
// SSG membership/fault detection.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "mochi/ssg.hpp"
#include "mochi/warabi.hpp"
#include "mochi/yokan.hpp"

namespace recup::mochi {
namespace {

TEST(Yokan, PutGetEraseExists) {
  KeyValueStore kv;
  kv.put("a", "1");
  EXPECT_EQ(kv.get("a").value(), "1");
  kv.put("a", "2");  // overwrite
  EXPECT_EQ(kv.get("a").value(), "2");
  EXPECT_TRUE(kv.erase("a"));
  EXPECT_FALSE(kv.erase("a"));
  EXPECT_FALSE(kv.get("a").has_value());
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
}

TEST(Yokan, ConcurrentPuts) {
  KeyValueStore kv;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&kv, t] {
      const std::string prefix = "k" + std::to_string(t) + "-";
      for (int i = 0; i < 250; ++i) {
        kv.put(prefix + std::to_string(i), "v");
      }
      // Listed while the other threads still write their own keys.
      EXPECT_EQ(kv.list_keys(prefix).size(), 250u);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(kv.list_keys("").size(), 1000u);
}

TEST(Warabi, CreateSealedReadBack) {
  BlobStore store;
  const RegionId id = store.create_sealed("hello world");
  EXPECT_EQ(store.read(id), "hello world");
  EXPECT_EQ(store.read(id, 6), "world");
  EXPECT_EQ(store.read(id, 6, 3), "wor");
  EXPECT_EQ(store.read(id, 100), "");  // past end clamps
  EXPECT_EQ(store.size(id), 11u);
  EXPECT_EQ(store.logical_size(id), 11u);  // defaults to the stored size
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

// Regression pin for the locking contract documented in warabi.hpp: every
// public call serializes on the store's single internal mutex, so while one
// thread creates and erases regions, a read on another returns a region's
// whole payload or throws std::out_of_range once it is erased — never a
// partial or torn one. Any change to the locking scheme (sharding the mutex,
// lock-free reads) must keep this hammer green under TSan.
TEST(Warabi, BlobStoreLockingContract) {
  BlobStore store;
  constexpr RegionId kRegions = 400;
  // Region `id` holds a run of one letter whose length depends on `id`, so
  // a partial read shows up as a wrong length and a torn one as a stray
  // byte.
  const auto payload = [](RegionId id) {
    return std::string(static_cast<std::size_t>(id % 61 + 1) * 16,
                       static_cast<char>('a' + id % 26));
  };

  std::atomic<RegionId> created{0};
  std::thread writer([&] {
    for (RegionId i = 1; i <= kRegions; ++i) {
      const RegionId id = store.create_sealed(payload(i));
      EXPECT_EQ(id, i);  // ids count from 1 in creation order
      created.store(id);
      if (id > 2) store.erase(id - 2);  // two regions stay live
    }
  });

  std::uint64_t whole = 0;
  bool torn = false;
  RegionId last = 0;
  do {
    last = created.load();
    for (RegionId id = last > 4 ? last - 4 : 1; id <= last; ++id) {
      try {
        torn = torn || store.read(id) != payload(id);
        ++whole;
      } catch (const std::out_of_range&) {
        // Erased by the writer: the other allowed outcome.
      }
    }
    // The final pass starts after region kRegions exists, so it reads the
    // two regions the writer never erases, however the threads interleave.
  } while (last < kRegions);
  writer.join();

  EXPECT_FALSE(torn);
  EXPECT_GT(whole, 0u);
  EXPECT_EQ(store.read(kRegions), payload(kRegions));
  EXPECT_EQ(store.read(kRegions - 1), payload(kRegions - 1));
  EXPECT_THROW((void)store.read(kRegions - 2), std::out_of_range);
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

}  // namespace
}  // namespace recup::mochi
