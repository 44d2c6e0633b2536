// QueryClient: the typed client handle of the query service. Wraps
// QueryServer::submit with client-side parsing of query text, transient
// retries, and decoding of the result frame. Thread-safe: many threads may
// share one client.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "query/ir.hpp"
#include "query/server.hpp"

namespace recup::query {

class QueryClient {
 public:
  struct Config {
    /// Re-submissions after a response marked transient (overload, server
    /// restarting). 0 keeps the original fail-fast behaviour. Each attempt
    /// re-resolves the server, so a restarting QueryServer is not
    /// client-visible.
    std::size_t max_retries = 0;
  };

  /// Resolves the server anew on every attempt — the handle a real client
  /// would get from service discovery, where a restart changes the
  /// endpoint behind a stable name.
  using ServerResolver = std::function<QueryServer&()>;

  explicit QueryClient(QueryServer& server);  // default Config
  QueryClient(ServerResolver resolver, Config config);

  /// Executes a query given as IR or as JSON text. Text is parsed here, so
  /// malformed text throws QueryError without a server round trip.
  QueryResponse query(const Query& query);
  QueryResponse query(const std::string& query_text);

  /// Plans without executing; the response carries the explain text.
  QueryResponse explain(const Query& query);

  /// Transient-error retries performed so far (across all calls).
  [[nodiscard]] std::uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

 private:
  QueryResponse roundtrip(const Query& query, bool explain);

  ServerResolver resolver_;
  Config config_;
  std::atomic<std::uint64_t> retries_{0};
};

}  // namespace recup::query
