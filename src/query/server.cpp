#include "query/server.hpp"

#include <utility>

#include "query/plan.hpp"
#include "query/wire.hpp"

namespace recup::query {

namespace {

using Clock = std::chrono::steady_clock;

/// `timeout_ms` from now, or no deadline: NaN and non-positive timeouts
/// fail the first test, +inf and any timeout reaching the clock's last tick
/// the second, so the addition below cannot overflow.
std::optional<Clock::time_point> deadline_after(double timeout_ms) {
  const std::chrono::duration<double, std::nano> timeout =
      std::chrono::duration<double, std::milli>(timeout_ms);
  const Clock::time_point now = Clock::now();
  if (!(timeout.count() > 0.0) || !(timeout < Clock::time_point::max() - now)) {
    return std::nullopt;
  }
  return now + std::chrono::duration_cast<Clock::duration>(timeout);
}

std::future<QueryResponse> ready(QueryResponse response) {
  std::promise<QueryResponse> promise;
  promise.set_value(std::move(response));
  return promise.get_future();
}

}  // namespace

QueryServer::QueryServer(StoreCatalog& catalog, ServerConfig config)
    : catalog_(catalog),
      cache_(config.cache),
      queue_(config.queue_capacity == 0 ? 1 : config.queue_capacity) {
  const std::size_t n = config.workers == 0 ? 1 : config.workers;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

QueryServer::~QueryServer() { shutdown(); }

void QueryServer::shutdown() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  queue_.close();  // workers drain the remaining requests, then exit
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

QueryResponse QueryServer::error_response(std::string what,
                                          bool transient) const {
  QueryResponse response;
  response.error = std::move(what);
  response.transient = transient;
  response.epoch = catalog_.snapshot().epoch();
  return response;
}

std::future<QueryResponse> QueryServer::submit(QueryRequest request) {
  if (!running_.load()) {
    rejected_shutdown_.fetch_add(1);
    return ready(error_response("server is shut down", /*transient=*/true));
  }
  Pending item;
  item.deadline = deadline_after(request.timeout_ms);
  item.request = std::move(request);
  std::future<QueryResponse> future = item.promise.get_future();
  if (queue_.try_push(std::move(item))) {
    accepted_.fetch_add(1);
    return future;
  }
  if (running_.load()) {
    rejected_overload_.fetch_add(1);
    return ready(error_response(
        "server overloaded: request queue full (backpressure)",
        /*transient=*/true));
  }
  rejected_shutdown_.fetch_add(1);
  return ready(error_response("server is shut down", /*transient=*/true));
}

void QueryServer::worker_loop() {
  while (auto item = queue_.pop()) {
    if (item->deadline && Clock::now() > *item->deadline) {
      timed_out_.fetch_add(1);
      item->promise.set_value(error_response("deadline exceeded while queued"));
      continue;
    }
    item->promise.set_value(handle(item->request));
  }
}

QueryResponse QueryServer::handle(const QueryRequest& request) {
  const auto started = Clock::now();
  QueryResponse response;
  try {
    if (request.explain) {
      const StoreCatalog::Snapshot snapshot = catalog_.snapshot();
      response.explain = plan_query(request.query, snapshot).to_string();
      response.epoch = snapshot.epoch();
    } else {
      const ExecutionResult result =
          execute_query(request.query, catalog_, &cache_);
      response.epoch = result.epoch;
      response.cached = result.cached;
      response.result_bin = frame_to_binary(*result.frame);
    }
    response.ok = true;
    completed_.fetch_add(1);
  } catch (const std::exception& e) {
    failed_.fetch_add(1);
    response = error_response(e.what());
  }
  const std::chrono::duration<double, std::milli> elapsed =
      Clock::now() - started;
  response.elapsed_ms = elapsed.count();
  return response;
}

ServerStats QueryServer::stats() const {
  ServerStats out;
  out.accepted = accepted_.load();
  out.rejected_overload = rejected_overload_.load();
  out.rejected_shutdown = rejected_shutdown_.load();
  out.completed = completed_.load();
  out.failed = failed_.load();
  out.timed_out = timed_out_.load();
  out.queue_depth = queue_.size();
  out.cache = cache_.stats();
  return out;
}

}  // namespace recup::query
