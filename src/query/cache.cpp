#include "query/cache.hpp"

#include <utility>

namespace recup::query {

std::size_t approx_frame_bytes(const analysis::DataFrame& frame) {
  std::size_t bytes = 0;
  for (std::size_t c = 0; c < frame.width(); ++c) {
    const analysis::Column& col = frame.col(c);
    switch (col.type()) {
      case analysis::ColumnType::kInt64:
        bytes += col.size() * sizeof(std::int64_t);
        break;
      case analysis::ColumnType::kDouble:
        bytes += col.size() * sizeof(double);
        break;
      case analysis::ColumnType::kString:
        // Dictionary-encoded: 4-byte codes per row plus the distinct
        // values (the dictionary may be shared; charge it to each holder).
        bytes += col.size() * sizeof(std::uint32_t);
        bytes += col.dict().size() * sizeof(std::string);
        for (const std::string& s : col.dict()) bytes += s.capacity();
        break;
    }
  }
  return bytes;
}

ResultCache::ResultCache() : ResultCache(Config{}) {}

ResultCache::ResultCache(Config config) : budget_(config.byte_budget) {}

std::string ResultCache::make_key(const std::string& fingerprint,
                                  const StoreCatalog::Snapshot& snapshot) {
  return fingerprint + "@" + snapshot.cache_key();
}

std::shared_ptr<const analysis::DataFrame> ResultCache::get(
    const std::string& fingerprint, const StoreCatalog::Snapshot& snapshot) {
  const std::string key = make_key(fingerprint, snapshot);
  std::lock_guard lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->frame;
}

void ResultCache::put(const std::string& fingerprint,
                      const StoreCatalog::Snapshot& snapshot,
                      std::shared_ptr<const analysis::DataFrame> frame) {
  if (frame == nullptr) return;
  const std::string key = make_key(fingerprint, snapshot);
  const std::size_t bytes = approx_frame_bytes(*frame);
  std::lock_guard lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  if (bytes > budget_) return;  // would evict the whole cache
  lru_.push_front(Entry{key, std::move(frame), bytes});
  index_[key] = lru_.begin();
  bytes_ += bytes;
  ++stats_.insertions;
  while (bytes_ > budget_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

CacheStats ResultCache::stats() const {
  std::lock_guard lock(mutex_);
  CacheStats out = stats_;
  out.entries = lru_.size();
  out.bytes = bytes_;
  return out;
}

}  // namespace recup::query
