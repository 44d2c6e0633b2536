#include "query/server.hpp"

#include <utility>

#include "query/ir.hpp"
#include "query/plan.hpp"
#include "query/wire.hpp"

namespace recup::query {

namespace {

/// Copies the request id (if any) into a response under construction.
void echo_id(const json::Value& doc, json::Object& response) {
  if (doc.is_object() && doc.contains("id")) response["id"] = doc.at("id");
}

}  // namespace

QueryServer::QueryServer(StoreCatalog& catalog, ServerConfig config)
    : catalog_(catalog),
      config_(config),
      cache_(config.cache),
      queue_(config.queue_capacity == 0 ? 1 : config.queue_capacity) {
  const std::size_t n = config_.workers == 0 ? 1 : config_.workers;
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

json::Value QueryServer::error_response(const json::Value& doc,
                                        const std::string& what,
                                        bool transient) {
  json::Object response;
  echo_id(doc, response);
  response["ok"] = false;
  response["error"] = what;
  if (transient) response["transient"] = true;
  response["epoch"] = catalog_.snapshot().epoch();
  return response;
}

std::future<json::Value> QueryServer::submit(json::Value request) {
  Request item;
  item.doc = std::move(request);
  std::future<json::Value> future = item.promise.get_future();

  double timeout_ms = config_.default_timeout_ms;
  if (item.doc.is_object() && item.doc.contains("timeout_ms")) {
    const json::Value& t = item.doc.at("timeout_ms");
    if (t.is_number()) timeout_ms = t.as_double();
  }
  if (timeout_ms > 0.0) {
    item.deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double, std::milli>(timeout_ms));
  }

  if (!running_.load()) {
    rejected_shutdown_.fetch_add(1);
    item.promise.set_value(
        error_response(item.doc, "server is shut down", /*transient=*/true));
    return future;
  }
  json::Value doc_copy = item.doc;  // try_push consumes the request
  if (!queue_.try_push(std::move(item))) {
    if (running_.load()) {
      rejected_overload_.fetch_add(1);
      std::promise<json::Value> rejected;
      future = rejected.get_future();
      rejected.set_value(error_response(
          doc_copy, "server overloaded: request queue full (backpressure)",
          /*transient=*/true));
    } else {
      rejected_shutdown_.fetch_add(1);
      std::promise<json::Value> rejected;
      future = rejected.get_future();
      rejected.set_value(
          error_response(doc_copy, "server is shut down", /*transient=*/true));
    }
    return future;
  }
  accepted_.fetch_add(1);
  return future;
}

void QueryServer::worker_loop() {
  while (auto item = queue_.pop()) {
    if (item->deadline &&
        std::chrono::steady_clock::now() > *item->deadline) {
      timed_out_.fetch_add(1);
      item->promise.set_value(error_response(
          item->doc, "deadline exceeded while queued"));
      continue;
    }
    item->promise.set_value(handle(item->doc));
  }
}

json::Value QueryServer::handle(const json::Value& doc) {
  const auto started = std::chrono::steady_clock::now();
  json::Object response;
  echo_id(doc, response);
  try {
    if (!doc.is_object() || !doc.contains("query")) {
      throw QueryError("request must be an object with a \"query\" field");
    }
    const Query query = parse_query(doc.at("query"));
    const bool explain = doc.get_bool("explain", false);
    if (explain) {
      const StoreCatalog::Snapshot snapshot = catalog_.snapshot();
      const Plan plan = plan_query(query, snapshot);
      response["ok"] = true;
      response["epoch"] = snapshot.epoch();
      response["cached"] = false;
      response["explain"] = plan.to_string();
    } else {
      const ExecutionResult result =
          execute_query(query, catalog_, &cache_);
      response["ok"] = true;
      response["epoch"] = result.epoch;
      response["cached"] = result.cached;
      response["result_bin"] = frame_to_binary(*result.frame);
    }
    completed_.fetch_add(1);
  } catch (const std::exception& e) {
    failed_.fetch_add(1);
    response["ok"] = false;
    response["error"] = std::string(e.what());
    response["epoch"] = catalog_.snapshot().epoch();
  }
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - started;
  response["elapsed_ms"] = elapsed.count();
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
