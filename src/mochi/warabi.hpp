// Warabi-analog: a thread-safe blob (raw region) store. Mofka stores event
// data payloads here (paper §III-B: "Warabi to store raw (blob) data"), and
// recup::datastore backs its per-worker object-store shards with one
// BlobStore each. A region is written once, at creation, and is immutable
// from then on; partial reads are supported so consumers can fetch only the
// byte ranges their data selector requests. Nothing evicts: a region lives
// until its owner erases it.
//
// Locking contract
// ----------------
// Every public operation acquires the store's single internal mutex for its
// whole duration, so each call is atomic with respect to every other call.
// Concurrent creates, erases and reads therefore need no external lock: a
// read returns a region's whole requested range, or throws
// std::out_of_range once the region has been erased. What the contract does
// not give is multi-call atomicity: an `exists()` followed by a `read()` may
// observe an erase in between.
//
// test_mochi's `BlobStoreLockingContract` regression test pins this down
// with a concurrent create/erase/read hammer; changing the locking scheme
// (e.g. sharding the mutex or dropping it for reads) must keep that test
// green under TSan.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace recup::mochi {

using RegionId = std::uint64_t;

class BlobStore {
 public:
  explicit BlobStore(std::string name = "warabi") : name_(std::move(name)) {}

  /// Creates a region holding `data`. `logical_size` is the size the region
  /// reports from logical_size(); 0 means data.size(). The datastore uses
  /// this to represent multi-hundred-MB task results with a bounded
  /// physical stand-in.
  RegionId create_sealed(std::string data, std::uint64_t logical_size = 0);

  /// Reads [offset, offset+length); clamps to the region size.
  [[nodiscard]] std::string read(RegionId id, std::uint64_t offset = 0,
                                 std::uint64_t length = UINT64_MAX) const;
  [[nodiscard]] std::uint64_t size(RegionId id) const;
  /// Logical byte size; == size() unless overridden at create_sealed.
  [[nodiscard]] std::uint64_t logical_size(RegionId id) const;
  bool erase(RegionId id);
  [[nodiscard]] bool exists(RegionId id) const;

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  struct Region {
    std::string data;
    std::uint64_t logical = 0;
  };

  const Region& region_or_throw(RegionId id) const;

  std::string name_;
  mutable std::mutex mutex_;
  std::unordered_map<RegionId, Region> regions_;
  RegionId next_id_ = 1;
};

}  // namespace recup::mochi
