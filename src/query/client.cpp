#include "query/client.hpp"

#include <chrono>
#include <future>
#include <thread>
#include <utility>

#include "mofka/producer.hpp"
#include "query/ir.hpp"
#include "query/wire.hpp"

namespace recup::query {

QueryClient::QueryClient(QueryServer& server)
    : QueryClient(server, Config{}) {}

QueryClient::QueryClient(QueryServer& server, Config config)
    : resolver_([&server]() -> QueryServer& { return server; }),
      config_(config) {}

QueryClient::QueryClient(ServerResolver resolver, Config config)
    : resolver_(std::move(resolver)), config_(config) {}

QueryResponse QueryClient::query(const json::Value& query_doc) {
  return roundtrip(query_doc, /*explain=*/false);
}

QueryResponse QueryClient::query(const Query& q) {
  return roundtrip(to_json(q), /*explain=*/false);
}

QueryResponse QueryClient::query(const std::string& query_text) {
  // Parse client-side so malformed text fails fast with a QueryError
  // instead of a server round trip.
  return roundtrip(to_json(parse_query(query_text)), /*explain=*/false);
}

QueryResponse QueryClient::explain(const json::Value& query_doc) {
  return roundtrip(query_doc, /*explain=*/true);
}

QueryResponse QueryClient::explain(const Query& q) {
  return roundtrip(to_json(q), /*explain=*/true);
}

QueryResponse QueryClient::roundtrip(json::Value query_doc, bool explain) {
  QueryResponse out = attempt(query_doc, explain);
  // Bounded re-submission on responses the server marked retryable
  // (overload backpressure, a restart window). Each attempt re-resolves the
  // server and frames a fresh id, so the retry is a new request, not a
  // duplicate of a possibly half-handled one.
  for (std::size_t retry = 0;
       retry < config_.max_retries && !out.ok &&
       out.raw.get_bool("transient", false);
       ++retry) {
    std::this_thread::sleep_for(mofka::retry_backoff(
        retry, config_.backoff_base, config_.backoff_max));
    retries_.fetch_add(1, std::memory_order_relaxed);
    out = attempt(query_doc, explain);
  }
  return out;
}

QueryResponse QueryClient::attempt(const json::Value& query_doc,
                                   bool explain) {
  json::Object request;
  request["id"] = next_id_.fetch_add(1);
  request["query"] = query_doc;
  if (explain) request["explain"] = true;
  if (config_.timeout_ms > 0.0) request["timeout_ms"] = config_.timeout_ms;

  std::future<json::Value> future = resolver_().submit(std::move(request));
  QueryResponse out;
  if (config_.timeout_ms > 0.0) {
    const auto status = future.wait_for(
        std::chrono::duration<double, std::milli>(config_.timeout_ms));
    if (status != std::future_status::ready) {
      out.ok = false;
      out.error = "client deadline exceeded waiting for response";
      out.epoch = 0;
      return out;
    }
  }
  out.raw = future.get();
  out.ok = out.raw.get_bool("ok", false);
  out.error = out.raw.get_string("error", "");
  out.epoch = static_cast<Epoch>(out.raw.get_int("epoch", 0));
  out.cached = out.raw.get_bool("cached", false);
  out.elapsed_ms = out.raw.get_double("elapsed_ms", 0.0);
  out.explain = out.raw.get_string("explain", "");
  if (out.ok && out.raw.contains("result_bin")) {
    out.frame = frame_from_binary(out.raw.at("result_bin").as_string());
  }
  return out;
}

}  // namespace recup::query
