#include "mochi/yokan.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace recup::mochi {

void KeyValueStore::put(const std::string& key, std::string value) {
  std::lock_guard lock(mutex_);
  ++stats_.puts;
  data_[key] = std::move(value);
}

bool KeyValueStore::put_if_absent(const std::string& key, std::string value) {
  std::lock_guard lock(mutex_);
  ++stats_.puts;
  return data_.emplace(key, std::move(value)).second;
}

std::optional<std::string> KeyValueStore::get(const std::string& key) const {
  std::lock_guard lock(mutex_);
  ++stats_.gets;
  const auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

bool KeyValueStore::exists(const std::string& key) const {
  std::lock_guard lock(mutex_);
  ++stats_.gets;
  return data_.count(key) != 0;
}

bool KeyValueStore::erase(const std::string& key) {
  std::lock_guard lock(mutex_);
  ++stats_.erases;
  return data_.erase(key) != 0;
}

std::int64_t KeyValueStore::increment(const std::string& key,
                                      std::int64_t delta) {
  std::lock_guard lock(mutex_);
  ++stats_.puts;
  std::int64_t current = 0;
  const auto it = data_.find(key);
  if (it != data_.end()) {
    const auto& s = it->second;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(),
                                           current);
    if (ec != std::errc() || ptr != s.data() + s.size()) {
      throw std::runtime_error("yokan: key '" + key + "' is not an integer");
    }
  }
  current += delta;
  data_[key] = std::to_string(current);
  return current;
}

std::vector<std::string> KeyValueStore::list_keys(const std::string& prefix,
                                                  std::size_t limit) const {
  std::lock_guard lock(mutex_);
  ++stats_.lists;
  std::vector<std::string> out;
  for (auto it = data_.lower_bound(prefix); it != data_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
    if (limit != 0 && out.size() >= limit) break;
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> KeyValueStore::list_keyvals(
    const std::string& prefix, std::size_t limit) const {
  std::lock_guard lock(mutex_);
  ++stats_.lists;
  std::vector<std::pair<std::string, std::string>> out;
  for (auto it = data_.lower_bound(prefix); it != data_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.emplace_back(it->first, it->second);
    if (limit != 0 && out.size() >= limit) break;
  }
  return out;
}

std::size_t KeyValueStore::size() const {
  std::lock_guard lock(mutex_);
  return data_.size();
}

YokanStats KeyValueStore::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace recup::mochi
