// QueryClient: the typed client handle of the query service. Wraps request
// framing, response decoding, and a client-side wait deadline around
// QueryServer::submit. Thread-safe: many threads may share one client (each
// call frames its own request with a fresh id).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "analysis/dataframe.hpp"
#include "json/json.hpp"
#include "query/catalog.hpp"
#include "query/ir.hpp"
#include "query/server.hpp"

namespace recup::query {

/// Decoded response. `frame` is populated on successful execution;
/// `explain` on successful explain; `error` when ok is false.
struct QueryResponse {
  bool ok = false;
  std::string error;
  Epoch epoch = 0;          ///< store epoch the response was computed at
  bool cached = false;
  double elapsed_ms = 0.0;  ///< server-side handling time
  analysis::DataFrame frame;
  std::string explain;
  json::Value raw;          ///< the full framed response document
};

class QueryClient {
 public:
  struct Config {
    /// Client-side bound on the whole round trip; <= 0 waits forever. Also
    /// forwarded as the request's "timeout_ms" so the server can drop the
    /// request if it expires while queued.
    double timeout_ms = 0.0;
    /// Re-submissions after a response marked "transient" (overload, server
    /// restarting). 0 keeps the original fail-fast behaviour. Each attempt
    /// frames a fresh request id and re-resolves the server, so a
    /// restarting QueryServer is not client-visible.
    std::size_t max_retries = 0;
    std::chrono::microseconds backoff_base{200};
    std::chrono::microseconds backoff_max{5000};
  };

  /// Resolves the server anew on every attempt — the handle a real client
  /// would get from service discovery, where a restart changes the
  /// endpoint behind a stable name.
  using ServerResolver = std::function<QueryServer&()>;

  explicit QueryClient(QueryServer& server);  // default Config
  QueryClient(QueryServer& server, Config config);
  QueryClient(ServerResolver resolver, Config config);

  /// Executes a query given as parsed JSON, IR, or JSON text.
  QueryResponse query(const json::Value& query_doc);
  QueryResponse query(const Query& query);
  QueryResponse query(const std::string& query_text);

  /// Plans without executing; the response carries the explain text.
  QueryResponse explain(const json::Value& query_doc);
  QueryResponse explain(const Query& query);

  /// Transient-error retries performed so far (across all calls).
  [[nodiscard]] std::uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

 private:
  QueryResponse roundtrip(json::Value query_doc, bool explain);
  QueryResponse attempt(const json::Value& query_doc, bool explain);

  ServerResolver resolver_;
  Config config_;
  std::atomic<std::int64_t> next_id_{1};
  std::atomic<std::uint64_t> retries_{0};
};

}  // namespace recup::query
