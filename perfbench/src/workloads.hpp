// The three benchmark workloads. Each fills the report with its end-to-end
// metrics (tracing off) or its per-layer metrics (tracing on), and counts
// every operation and output check.
#pragma once

#include <mutex>
#include <vector>

#include "common.hpp"
#include "query/client.hpp"
#include "query/server.hpp"

namespace perfbench {

/// XGBOOST runs with capture on, polled while they execute, published into
/// a durable segment catalog that a monitor client queries throughout.
void run_online_capture(const Options& options, Tracer& tracer,
                        Report& report);

/// Closed-loop analysis sessions of seeded paper-shaped queries against a
/// prebuilt durable catalog.
void run_query_mix(const Options& options, Tracer& tracer, Report& report);

/// Zero-work task waves through a durable scheduler, no plugins.
void run_scheduler_waves(const Options& options, Tracer& tracer,
                         Report& report);

/// Round-trip and server-side latencies of query-service clients.
class LatencyLog {
 public:
  void add(double round_trip_ms, double server_ms) {
    std::lock_guard lock(mutex_);
    round_trip_ms_.push_back(round_trip_ms);
    server_ms_.push_back(server_ms);
  }
  /// Sets query.samples/p50_ms/tail_ms/tail_pct/server_ms_p50/queue_ms_*.
  void report(Report& report) const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> round_trip_ms_;
  std::vector<double> server_ms_;
};

/// Adds a server's counters to the query.* metrics.
void add_server_stats(Report& report, const recup::query::ServerStats& stats);

/// Records every unit's wall time on the detail line and, in traced runs,
/// trace.overhead_pct from the traced and untraced units' medians.
void report_unit_samples(Report& report, const SplitSamples& samples);

}  // namespace perfbench
