// recup::datastore — the out-of-band data plane.
//
// A DataStore is a set of per-worker object-store shards, each backed by one
// recup::mochi::BlobStore (warabi). Task results of kInlineThreshold bytes
// or more are *published* into the executing worker's shard and travel the
// control plane as a compact Proxy handle; consumers *fetch* the bytes
// peer-to-peer (over the same simulated network links the inline path used)
// and every fetch is validated against the proxy's size and content
// fingerprint before being installed — a truncated or corrupted transfer is
// rejected, never handed to a task. A Cluster builds a DataStore only when
// ClusterConfig::enable_datastore is set (the default).
//
// Proxy lifecycle (DESIGN.md §10):
//   publish  — the result is stored in the producer's shard; that shard is
//              the owner and the proxy names its region. Re-publishing a
//              key (recompute, steal landing elsewhere) drops every old
//              copy and makes the new producer the owner.
//   fetch    — a consumer pulls the payload via the binary fetch frames
//              (datastore/wire.hpp), validates it and installs a replica in
//              its own shard. Transport-level faults
//              (chaos::sites::kDatastoreFetch) are retried at the wire
//              layer — at most kMaxFetchRetries retries, zero simulated
//              time, modelling link-level retransmission below the
//              application.
//   drop     — drop_replica frees one non-owner copy (the scheduler's
//              missing-dependency path); a later fetch from it is kMissing.
//   repin    — when the owner shard dies (kill_shard), ownership moves to
//              the lowest-id surviving replica.
//   recompute— when no copy survives, the entry vanishes; the scheduler's
//              existing lost-key recovery re-runs the producer and the
//              fresh publish re-creates the entry.
// Nothing evicts: a copy lives until release, a re-publish, drop_replica or
// the death of its shard.
//
// Simulation note: payload *timing* is carried by the network model (the
// worker still issues the same network transfer the inline path would), so
// a fault-free run with the datastore enabled is byte-identical to the
// inline path in every figure view. The store holds a bounded canonical
// physical payload per result (canonical_payload) and records the result's
// logical size beside it, so multi-GiB workloads don't allocate real GiBs.
//
// Thread-safety: every public operation locks the store's mutex;
// per-shard BlobStores add their own internal locking (warabi contract).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "chaos/fault.hpp"
#include "datastore/proxy.hpp"
#include "datastore/wire.hpp"
#include "mochi/warabi.hpp"

namespace recup::datastore {

/// Results of at least this many bytes go out-of-band (4 KiB: below it a
/// proxy costs more than it saves).
inline constexpr std::uint64_t kInlineThreshold = 4096;
/// Wire-level retries per fetch: transport faults injected at
/// chaos::sites::kDatastoreFetch are absorbed for up to this many retries
/// after the first attempt.
inline constexpr std::uint32_t kMaxFetchRetries = 8;

struct DataStoreStats {
  std::uint64_t publishes = 0;
  std::uint64_t republishes = 0;         ///< key re-published (recompute/steal)
  std::uint64_t ownership_transfers = 0; ///< owner shard changed
  std::uint64_t repins = 0;              ///< owner died, replica promoted
  std::uint64_t lost_entries = 0;        ///< no copy survived (recompute due)
  std::uint64_t oob_results = 0;
  std::uint64_t inline_results = 0;
  std::uint64_t oob_bytes = 0;           ///< logical bytes gone out-of-band
  std::uint64_t inline_bytes = 0;        ///< logical bytes kept inline
  std::uint64_t proxy_wire_bytes = 0;    ///< encoded proxies on the control plane
  std::uint64_t fetches = 0;             ///< successful fetch round-trips
  std::uint64_t fetch_retries = 0;       ///< wire-level attempts that faulted
  std::uint64_t fetch_failures = 0;      ///< fetches lost after all retries
  std::uint64_t validation_failures = 0; ///< size/fingerprint mismatches caught
  std::uint64_t replicas_added = 0;
  std::uint64_t replica_drops = 0;
  std::uint64_t fetch_wire_bytes = 0;    ///< request+response frame bytes
};

class DataStore {
 public:
  explicit DataStore(chaos::FaultInjector* injector = nullptr)
      : injector_(injector) {}

  /// Registers the shard co-located with worker `shard` on `node`. Must be
  /// called before any publish/fetch touching it.
  void add_shard(ShardId shard, std::uint32_t node);
  /// Test access to a shard's backing BlobStore.
  [[nodiscard]] mochi::BlobStore& shard_store(ShardId shard);

  /// True when a result of `bytes` takes the out-of-band path.
  [[nodiscard]] static bool oob(std::uint64_t bytes) {
    return bytes >= kInlineThreshold;
  }

  /// Publishes a result into `shard`, which becomes the owner.
  /// Re-publishing an existing key drops stale copies first and counts as
  /// an ownership transfer when the owner changes.
  Proxy publish(const std::string& key, ShardId shard, std::uint64_t bytes);
  /// Accounting for results that stayed inline (below the threshold) so
  /// oob_bytes_ratio is computable.
  void note_inline(std::uint64_t bytes);

  /// The current proxy for `key`, or nullopt when no copy exists (lost or
  /// never published) — the scheduler then falls back to inline/recompute.
  [[nodiscard]] std::optional<Proxy> proxy_for(const std::string& key) const;
  /// Shards currently holding a copy (owner first).
  [[nodiscard]] std::vector<ShardId> replicas(const std::string& key) const;

  /// Peer fetch: `requester` pulls `key` from `source` through the binary
  /// fetch frames, validates size + fingerprint, and on success installs a
  /// replica in its own shard (idempotent if already present).
  /// kMissing: `source` no longer holds the bytes (dead shard or dropped
  /// replica) — retrying the same source is pointless; pick another replica
  /// or recompute. kUnavailable: every attempt was lost, truncated or
  /// failed validation, or the requester died. A mismatching payload is
  /// retried like a lost frame and is never installed, so a fetch never
  /// hands out truncated data.
  FetchStatus fetch(const std::string& key, ShardId source, ShardId requester);

  /// Drops one shard's non-owner copy; owner copies are managed by
  /// kill_shard/release.
  void drop_replica(const std::string& key, ShardId shard);
  /// Frees every copy of `key` (scheduler release path).
  void release(const std::string& key);
  /// Worker death: the shard's copies are gone. Entries it owned move to
  /// the lowest-id surviving replica; entries with no survivor are erased
  /// (proxy_for -> nullopt) so the recovery path recomputes them.
  void kill_shard(ShardId shard);

  /// Deterministic bounded physical stand-in for a `bytes`-sized result of
  /// `key`; its logical size stays `bytes`.
  [[nodiscard]] static std::string canonical_payload(const std::string& key,
                                                     std::uint64_t bytes);
  /// Fingerprint of canonical_payload(key, bytes).
  [[nodiscard]] static std::uint64_t fingerprint_of(const std::string& key,
                                                    std::uint64_t bytes);

  [[nodiscard]] DataStoreStats stats() const;

 private:
  struct Shard {
    std::uint32_t node = 0;
    bool alive = true;
    std::unique_ptr<mochi::BlobStore> store;
  };

  struct Entry {
    std::uint64_t size = 0;
    std::uint64_t fingerprint = 0;
    ShardId owner = 0;
    std::map<ShardId, mochi::RegionId> regions;  ///< every shard with a copy
  };

  Shard& shard_or_throw(ShardId shard);
  const Shard& shard_or_throw(ShardId shard) const;
  /// Serves one fetch request against the source shard (the "server" side
  /// of the wire round-trip). Returns an encoded response frame.
  std::string serve_fetch_locked(const FetchRequest& request);
  void erase_copies_locked(Entry& entry);

  chaos::FaultInjector* injector_ = nullptr;
  mutable std::mutex mutex_;
  std::map<ShardId, Shard> shards_;
  std::map<std::string, Entry> entries_;
  DataStoreStats stats_;
};

}  // namespace recup::datastore
