#include "query/client.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "mofka/producer.hpp"
#include "query/wire.hpp"

namespace recup::query {

QueryClient::QueryClient(QueryServer& server)
    : QueryClient([&server]() -> QueryServer& { return server; }, Config{}) {}

QueryClient::QueryClient(ServerResolver resolver, Config config)
    : resolver_(std::move(resolver)), config_(config) {}

QueryResponse QueryClient::query(const Query& q) {
  return roundtrip(q, /*explain=*/false);
}

QueryResponse QueryClient::query(const std::string& query_text) {
  return roundtrip(parse_query(query_text), /*explain=*/false);
}

QueryResponse QueryClient::explain(const Query& q) {
  return roundtrip(q, /*explain=*/true);
}

QueryResponse QueryClient::roundtrip(const Query& query, bool explain) {
  const auto attempt = [&] {
    return resolver_().submit(QueryRequest{query, explain}).get();
  };
  QueryResponse out = attempt();
  // Bounded re-submission on responses the server marked retryable
  // (overload backpressure, a restart window). Each attempt re-resolves the
  // server, so the retry is a new request, not a duplicate of a possibly
  // half-handled one.
  for (std::size_t retry = 0;
       retry < config_.max_retries && !out.ok && out.transient; ++retry) {
    std::this_thread::sleep_for(mofka::retry_backoff(
        retry, std::chrono::microseconds{200},
        std::chrono::microseconds{5000}));
    retries_.fetch_add(1, std::memory_order_relaxed);
    out = attempt();
  }
  if (out.ok && !explain) out.frame = frame_from_binary(out.result_bin);
  return out;
}

}  // namespace recup::query
