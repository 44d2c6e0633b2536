#include "mochi/warabi.hpp"

#include <algorithm>
#include <stdexcept>

namespace recup::mochi {

RegionId BlobStore::create_sealed(std::string data,
                                  std::uint64_t logical_size) {
  std::lock_guard lock(mutex_);
  const RegionId id = next_id_++;
  Region region;
  region.logical = logical_size != 0 ? logical_size : data.size();
  region.data = std::move(data);
  regions_.emplace(id, std::move(region));
  return id;
}

const BlobStore::Region& BlobStore::region_or_throw(RegionId id) const {
  const auto it = regions_.find(id);
  if (it == regions_.end()) {
    throw std::out_of_range("warabi: unknown region " + std::to_string(id));
  }
  return it->second;
}

std::string BlobStore::read(RegionId id, std::uint64_t offset,
                            std::uint64_t length) const {
  std::lock_guard lock(mutex_);
  const Region& region = region_or_throw(id);
  if (offset >= region.data.size()) return {};
  const std::uint64_t avail = region.data.size() - offset;
  return region.data.substr(offset, std::min(length, avail));
}

std::uint64_t BlobStore::size(RegionId id) const {
  std::lock_guard lock(mutex_);
  return region_or_throw(id).data.size();
}

std::uint64_t BlobStore::logical_size(RegionId id) const {
  std::lock_guard lock(mutex_);
  return region_or_throw(id).logical;
}

bool BlobStore::erase(RegionId id) {
  std::lock_guard lock(mutex_);
  return regions_.erase(id) != 0;
}

bool BlobStore::exists(RegionId id) const {
  std::lock_guard lock(mutex_);
  return regions_.count(id) != 0;
}

}  // namespace recup::mochi
