#include "mochi/yokan.hpp"

namespace recup::mochi {

void KeyValueStore::put(const std::string& key, std::string value) {
  std::lock_guard lock(mutex_);
  data_[key] = std::move(value);
}

std::optional<std::string> KeyValueStore::get(const std::string& key) const {
  std::lock_guard lock(mutex_);
  const auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

bool KeyValueStore::erase(const std::string& key) {
  std::lock_guard lock(mutex_);
  return data_.erase(key) != 0;
}

std::vector<std::string> KeyValueStore::list_keys(
    const std::string& prefix) const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  for (auto it = data_.lower_bound(prefix); it != data_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

}  // namespace recup::mochi
