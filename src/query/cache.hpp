// Result cache: one LRU over executed query results, under one mutex,
// keyed by (canonical query fingerprint, snapshot cache key). Keys derive
// from the Snapshot handle the query executed under — ingestion installs a
// new catalog version with a new key, so a result computed against an
// older snapshot can never be returned for a newer store state; stale
// entries simply stop being referenced and age out of the LRU. Eviction is
// by least-recently-used entry until the cache is back under its byte
// budget.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "analysis/dataframe.hpp"
#include "query/catalog.hpp"

namespace recup::query {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;  ///< current resident entries
  std::uint64_t bytes = 0;    ///< current resident payload bytes
};

/// Approximate in-memory footprint of a frame (column payloads only), used
/// to charge entries against the cache byte budget.
std::size_t approx_frame_bytes(const analysis::DataFrame& frame);

class ResultCache {
 public:
  struct Config {
    std::size_t byte_budget = 64u << 20;
  };

  ResultCache();  // default Config
  explicit ResultCache(Config config);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Cached frame for (fingerprint, snapshot), or nullptr. A hit refreshes
  /// the entry's LRU position.
  [[nodiscard]] std::shared_ptr<const analysis::DataFrame> get(
      const std::string& fingerprint, const StoreCatalog::Snapshot& snapshot);

  /// Inserts (replacing any entry with the same key), then evicts LRU
  /// entries until the cache is within budget. An entry larger than the
  /// whole budget is not cached at all.
  void put(const std::string& fingerprint,
           const StoreCatalog::Snapshot& snapshot,
           std::shared_ptr<const analysis::DataFrame> frame);

  [[nodiscard]] CacheStats stats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const analysis::DataFrame> frame;
    std::size_t bytes = 0;
  };

  static std::string make_key(const std::string& fingerprint,
                              const StoreCatalog::Snapshot& snapshot);

  const std::size_t budget_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::size_t bytes_ = 0;
  CacheStats stats_;
};

}  // namespace recup::query
