// Yokan-analog: a thread-safe ordered key/value store with prefix iteration.
// Mofka stores event metadata and topic bookkeeping here (paper §III-B:
// "Yokan to store key/value data"); the broker's WAL makes it durable.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace recup::mochi {

struct YokanStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t erases = 0;
  std::uint64_t lists = 0;
};

class KeyValueStore {
 public:
  explicit KeyValueStore(std::string name = "yokan") : name_(std::move(name)) {}

  void put(const std::string& key, std::string value);
  /// Stores only when the key is absent; returns whether it stored.
  bool put_if_absent(const std::string& key, std::string value);
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] bool exists(const std::string& key) const;
  bool erase(const std::string& key);
  /// Atomically adds `delta` to an integer-valued key (missing treated as 0)
  /// and returns the new value.
  std::int64_t increment(const std::string& key, std::int64_t delta = 1);

  /// Keys with the given prefix, in lexicographic order, up to `limit`
  /// (0 = unlimited).
  [[nodiscard]] std::vector<std::string> list_keys(
      const std::string& prefix, std::size_t limit = 0) const;
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> list_keyvals(
      const std::string& prefix, std::size_t limit = 0) const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] YokanStats stats() const;

 private:
  std::string name_;
  mutable std::mutex mutex_;
  std::map<std::string, std::string> data_;
  mutable YokanStats stats_;
};

}  // namespace recup::mochi
