#include "datastore/store.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"

namespace recup::datastore {

namespace {

/// Physical payload cap: big logical results are represented by a bounded
/// stand-in whose region records the logical size.
constexpr std::uint64_t kMaxPhysicalBytes = 240;

}  // namespace

void DataStore::add_shard(ShardId shard, std::uint32_t node) {
  std::lock_guard lock(mutex_);
  Shard sh;
  sh.node = node;
  sh.store = std::make_unique<mochi::BlobStore>("datastore-shard-" +
                                                std::to_string(shard));
  shards_[shard] = std::move(sh);
}

mochi::BlobStore& DataStore::shard_store(ShardId shard) {
  std::lock_guard lock(mutex_);
  return *shard_or_throw(shard).store;
}

DataStore::Shard& DataStore::shard_or_throw(ShardId shard) {
  const auto it = shards_.find(shard);
  if (it == shards_.end()) {
    throw std::out_of_range("datastore: unknown shard " +
                            std::to_string(shard));
  }
  return it->second;
}

const DataStore::Shard& DataStore::shard_or_throw(ShardId shard) const {
  const auto it = shards_.find(shard);
  if (it == shards_.end()) {
    throw std::out_of_range("datastore: unknown shard " +
                            std::to_string(shard));
  }
  return it->second;
}

std::string DataStore::canonical_payload(const std::string& key,
                                         std::uint64_t bytes) {
  std::string payload = key;
  payload.push_back('|');
  std::uint64_t state = fnv1a64(key) ^ bytes;
  const auto body = static_cast<std::size_t>(
      std::min<std::uint64_t>(bytes, kMaxPhysicalBytes));
  payload.reserve(payload.size() + body);
  for (std::size_t i = 0; i < body; ++i) {
    payload.push_back(static_cast<char>('a' + splitmix64(state) % 26));
  }
  return payload;
}

std::uint64_t DataStore::fingerprint_of(const std::string& key,
                                        std::uint64_t bytes) {
  return fnv1a64(canonical_payload(key, bytes));
}

Proxy DataStore::publish(const std::string& key, ShardId shard,
                         std::uint64_t bytes) {
  std::lock_guard lock(mutex_);
  if (!oob(bytes)) {
    stats_.inline_results += 1;
    stats_.inline_bytes += bytes;
    return {};
  }
  Shard& sh = shard_or_throw(shard);
  if (!sh.alive) return {};  // publish from a dead worker is a lost message

  const auto existing = entries_.find(key);
  if (existing != entries_.end()) {
    // Recompute or a steal landing elsewhere: stale copies are dropped and
    // the new producer becomes the owner.
    stats_.republishes += 1;
    if (existing->second.owner != shard) stats_.ownership_transfers += 1;
    erase_copies_locked(existing->second);
    entries_.erase(existing);
  }

  std::string payload = canonical_payload(key, bytes);
  const std::uint64_t fingerprint = fnv1a64(payload);
  const mochi::RegionId region =
      sh.store->create_sealed(std::move(payload), bytes);

  Entry entry;
  entry.size = bytes;
  entry.fingerprint = fingerprint;
  entry.owner = shard;
  entry.regions.emplace(shard, region);
  entries_.emplace(key, std::move(entry));

  Proxy proxy;
  proxy.shard = shard;
  proxy.node = sh.node;
  proxy.region = region;
  proxy.size = bytes;
  proxy.fingerprint = fingerprint;

  stats_.publishes += 1;
  stats_.oob_results += 1;
  stats_.oob_bytes += bytes;
  stats_.proxy_wire_bytes += encode_proxy(proxy).size();
  return proxy;
}

void DataStore::note_inline(std::uint64_t bytes) {
  std::lock_guard lock(mutex_);
  stats_.inline_results += 1;
  stats_.inline_bytes += bytes;
}

std::optional<Proxy> DataStore::proxy_for(const std::string& key) const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  const Entry& entry = it->second;
  const auto region = entry.regions.find(entry.owner);
  if (region == entry.regions.end()) return std::nullopt;
  Proxy proxy;
  proxy.shard = entry.owner;
  proxy.node = shard_or_throw(entry.owner).node;
  proxy.region = region->second;
  proxy.size = entry.size;
  proxy.fingerprint = entry.fingerprint;
  return proxy;
}

std::vector<ShardId> DataStore::replicas(const std::string& key) const {
  std::lock_guard lock(mutex_);
  std::vector<ShardId> out;
  const auto it = entries_.find(key);
  if (it == entries_.end()) return out;
  out.push_back(it->second.owner);
  for (const auto& [shard, region] : it->second.regions) {
    if (shard != it->second.owner) out.push_back(shard);
  }
  return out;
}

std::string DataStore::serve_fetch_locked(const FetchRequest& request) {
  FetchResponse response;
  const auto sh = shards_.find(request.source);
  if (sh == shards_.end() || !sh->second.alive ||
      !sh->second.store->exists(request.region)) {
    response.status = FetchStatus::kMissing;
    return encode_fetch_response(response);
  }
  response.payload =
      sh->second.store->read(request.region, request.offset, request.length);
  response.logical_size = sh->second.store->logical_size(request.region);
  response.fingerprint = fnv1a64(response.payload);
  response.status = FetchStatus::kOk;
  return encode_fetch_response(response);
}

FetchStatus DataStore::fetch(const std::string& key, ShardId source,
                             ShardId requester) {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return FetchStatus::kMissing;
  Entry& entry = it->second;
  if (entry.regions.count(requester)) return FetchStatus::kOk;  // idempotent

  const auto src = entry.regions.find(source);
  const auto sh = shards_.find(source);
  if (src == entry.regions.end() || sh == shards_.end() ||
      !sh->second.alive || !sh->second.store->exists(src->second)) {
    // The source no longer holds the bytes (dead shard, or its region was
    // erased behind the registration): drop the stale registration so
    // nobody tries this source again.
    if (src != entry.regions.end()) {
      entry.regions.erase(src);
      stats_.replica_drops += 1;
    }
    return FetchStatus::kMissing;
  }

  FetchRequest request;
  request.key = key;
  request.source = source;
  request.region = src->second;

  for (std::uint32_t attempt = 0; attempt <= kMaxFetchRetries; ++attempt) {
    bool lose_frame = false;
    bool truncate_frame = false;
    if (injector_ != nullptr) {
      const chaos::FaultDecision decision =
          injector_->decide(chaos::sites::kDatastoreFetch, source);
      switch (decision.action) {
        case chaos::FaultAction::kNone:
        case chaos::FaultAction::kDelay:      // latency is the network's job
        case chaos::FaultAction::kDuplicate:  // install is idempotent
          break;
        case chaos::FaultAction::kReorder:
          truncate_frame = true;  // delivered, but cut short in transit
          break;
        default:
          lose_frame = true;  // drop / transient / outage / crash: frame lost
          break;
      }
    }
    if (lose_frame) {
      stats_.fetch_retries += 1;
      continue;
    }

    const std::string request_frame = encode_fetch_request(request);
    std::size_t pos = 0;
    std::string response_frame =
        serve_fetch_locked(decode_fetch_request(request_frame, pos));
    stats_.fetch_wire_bytes += request_frame.size() + response_frame.size();
    if (truncate_frame && !response_frame.empty()) {
      response_frame.pop_back();
    }

    FetchResponse response;
    try {
      std::size_t rpos = 0;
      response = decode_fetch_response(response_frame, rpos);
    } catch (const wire::WireError&) {
      // Truncated in transit; validation refuses to install it.
      stats_.validation_failures += 1;
      stats_.fetch_retries += 1;
      continue;
    }
    if (response.status == FetchStatus::kMissing) return FetchStatus::kMissing;
    if (response.status != FetchStatus::kOk ||
        response.logical_size != entry.size ||
        response.fingerprint != entry.fingerprint ||
        fnv1a64(response.payload) != entry.fingerprint) {
      stats_.validation_failures += 1;
      stats_.fetch_retries += 1;
      continue;
    }

    Shard& dst = shard_or_throw(requester);
    if (!dst.alive) return FetchStatus::kUnavailable;
    const mochi::RegionId replica =
        dst.store->create_sealed(std::move(response.payload), entry.size);
    entry.regions.emplace(requester, replica);
    stats_.fetches += 1;
    stats_.replicas_added += 1;
    return FetchStatus::kOk;
  }
  stats_.fetch_failures += 1;
  return FetchStatus::kUnavailable;
}

void DataStore::drop_replica(const std::string& key, ShardId shard) {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return;
  Entry& entry = it->second;
  if (shard == entry.owner) return;  // owner copies go through kill/release
  const auto region = entry.regions.find(shard);
  if (region == entry.regions.end()) return;
  const auto sh = shards_.find(shard);
  if (sh != shards_.end() && sh->second.alive) {
    sh->second.store->erase(region->second);
  }
  entry.regions.erase(region);
  stats_.replica_drops += 1;
}

void DataStore::release(const std::string& key) {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return;
  erase_copies_locked(it->second);
  entries_.erase(it);
}

void DataStore::erase_copies_locked(Entry& entry) {
  for (const auto& [shard, region] : entry.regions) {
    const auto sh = shards_.find(shard);
    if (sh != shards_.end() && sh->second.alive) {
      sh->second.store->erase(region);
    }
  }
  entry.regions.clear();
}

void DataStore::kill_shard(ShardId shard) {
  std::lock_guard lock(mutex_);
  const auto sh = shards_.find(shard);
  if (sh == shards_.end() || !sh->second.alive) return;
  sh->second.alive = false;

  std::vector<std::string> lost;
  for (auto& [key, entry] : entries_) {
    entry.regions.erase(shard);
    if (entry.owner != shard) continue;
    if (entry.regions.empty()) {
      lost.push_back(key);
      continue;
    }
    // The lowest-id surviving replica becomes the owner.
    entry.owner = entry.regions.begin()->first;
    stats_.repins += 1;
    stats_.ownership_transfers += 1;
  }
  for (const std::string& key : lost) {
    entries_.erase(key);
    stats_.lost_entries += 1;
  }
}

DataStoreStats DataStore::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace recup::datastore
