// Yokan-analog: a thread-safe ordered key/value store with prefix listing.
// Mofka stores event metadata and consumer-group offsets here (paper §III-B:
// "Yokan to store key/value data"); the broker's WAL makes it durable. The
// interface is the broker's: put, get, erase and an ordered prefix listing,
// each atomic under the store's one mutex.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace recup::mochi {

class KeyValueStore {
 public:
  explicit KeyValueStore(std::string name = "yokan") : name_(std::move(name)) {}

  void put(const std::string& key, std::string value);
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  bool erase(const std::string& key);

  /// Keys with the given prefix, in lexicographic order.
  [[nodiscard]] std::vector<std::string> list_keys(
      const std::string& prefix) const;

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
  mutable std::mutex mutex_;
  std::map<std::string, std::string> data_;
};

}  // namespace recup::mochi
