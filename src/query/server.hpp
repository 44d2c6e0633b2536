// QueryServer: the multi-client provenance query service, in the style of
// the recup::mochi services — in-process transport, a real worker thread
// pool, a bounded request queue with backpressure (a full queue rejects the
// request immediately with an overload error instead of blocking the
// client), per-request deadlines, and graceful shutdown that drains every
// queued request before the workers exit.
//
// Requests and responses are typed structs: a QueryRequest carries the
// parsed Query IR, and a successful QueryResponse carries the result as the
// columnar binary frame of query/wire.hpp. Every response — success or
// failure — is tagged with the store epoch it was computed at, so clients
// can reason about which ingestion state they observed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/dataframe.hpp"
#include "common/queue.hpp"
#include "query/cache.hpp"
#include "query/catalog.hpp"
#include "query/ir.hpp"

namespace recup::query {

struct ServerConfig {
  std::size_t workers = 4;
  std::size_t queue_capacity = 64;
  ResultCache::Config cache;
};

struct QueryRequest {
  Query query;
  bool explain = false;  ///< plan only; the response carries the explain text
  /// A request still queued this many milliseconds after submit is answered
  /// with a timeout error instead of being executed. A value that is not
  /// positive, not finite, or reaches past the clock's range sets no
  /// deadline.
  double timeout_ms = 0.0;
};

/// `result_bin` (the columnar binary frame) is set on successful execution,
/// `explain` on successful explain, `error` when ok is false. QueryClient
/// decodes `result_bin` into `frame`.
struct QueryResponse {
  bool ok = false;
  std::string error;
  bool transient = false;   ///< retryable: overload or shutdown
  Epoch epoch = 0;          ///< store epoch the response was computed at
  bool cached = false;
  double elapsed_ms = 0.0;  ///< server-side handling time
  std::string result_bin;
  std::string explain;
  analysis::DataFrame frame;
};

struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_overload = 0;   ///< backpressure rejections
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t completed = 0;           ///< executed successfully
  std::uint64_t failed = 0;              ///< invalid query / execution error
  std::uint64_t timed_out = 0;           ///< deadline passed while queued
  std::uint64_t queue_depth = 0;         ///< requests waiting right now
  CacheStats cache;
};

class QueryServer {
 public:
  explicit QueryServer(StoreCatalog& catalog, ServerConfig config = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Backpressure and shutdown resolve the future immediately with a
  /// transient error response — submit never blocks on a full queue.
  std::future<QueryResponse> submit(QueryRequest request);

  /// Closes the queue, lets the workers drain every queued request, and
  /// joins them. Idempotent; the destructor calls it.
  void shutdown();

  [[nodiscard]] bool running() const { return running_.load(); }
  [[nodiscard]] ServerStats stats() const;

 private:
  struct Pending {
    QueryRequest request;
    std::promise<QueryResponse> promise;
    std::optional<std::chrono::steady_clock::time_point> deadline;
  };

  void worker_loop();
  QueryResponse handle(const QueryRequest& request);
  QueryResponse error_response(std::string what, bool transient = false) const;

  StoreCatalog& catalog_;
  ResultCache cache_;
  BoundedQueue<Pending> queue_;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{true};

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_overload_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> timed_out_{0};
};

}  // namespace recup::query
