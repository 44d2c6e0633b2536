// perfbench: the provenance pipeline's benchmark program. Runs one workload
// and prints, on stdout:
//   fingerprint {...}   host/build fingerprint of this result
//   detail {...}        figures that are not gated (spans, ratios)
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The last line carries the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). Usually launched through run.py, which builds it.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--units N] [--size full|tiny] [--trace-out F]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "json/json.hpp"
#include "workloads.hpp"

namespace perfbench {

void LatencyLog::report(Report& report) const {
  std::lock_guard lock(mutex_);
  std::vector<double> queue_ms;
  queue_ms.reserve(round_trip_ms_.size());
  for (std::size_t i = 0; i < round_trip_ms_.size(); ++i) {
    queue_ms.push_back(round_trip_ms_[i] - server_ms_[i]);
  }
  const double tail = tail_percentile(round_trip_ms_.size());
  report.set("query.samples", static_cast<double>(round_trip_ms_.size()));
  report.set("query.p50_ms", median(round_trip_ms_));
  report.set("query.tail_pct", tail);
  report.set("query.tail_ms", quantile(round_trip_ms_, tail / 100.0));
  report.set("query.server_ms_p50", median(server_ms_));
  report.set("query.queue_ms_p50", median(queue_ms));
  report.set("query.queue_ms_tail", quantile(queue_ms, tail / 100.0));
}

void add_server_stats(Report& report, const recup::query::ServerStats& stats) {
  report.add("query.cache_hits", static_cast<double>(stats.cache.hits));
  report.add("query.cache_lookups",
             static_cast<double>(stats.cache.hits + stats.cache.misses));
  report.add("query.rejected_overload",
             static_cast<double>(stats.rejected_overload));
  report.add("query.timed_out", static_cast<double>(stats.timed_out));
  report.add("query.failed", static_cast<double>(stats.failed));
}

void report_unit_samples(Report& report, const SplitSamples& samples) {
  std::string all;
  for (const double v : samples.all()) {
    if (!all.empty()) all += ' ';
    all += std::to_string(v);
  }
  report.label("unit_s_samples", all);
  if (samples.traced.empty() || samples.untraced.empty()) return;
  report.set("trace.overhead_pct",
             (median(samples.traced) / median(samples.untraced) - 1.0) * 100.0);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload online_capture|query_mix|"
               "scheduler_waves --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--units N] [--size full|tiny] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--units") {
      options.units = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") usage("bad --size");
      options.size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.work_dir.empty()) usage("--work-dir is required");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Tracer tracer;
  Report report;
  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);
  int status = 0;
  try {
    if (options.workload == "online_capture") {
      run_online_capture(options, tracer, report);
    } else if (options.workload == "query_mix") {
      run_query_mix(options, tracer, report);
    } else if (options.workload == "scheduler_waves") {
      run_scheduler_waves(options, tracer, report);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    status = 1;
  }
  std::filesystem::remove_all(options.work_dir);
  if (status != 0) return status;

  report.set("peak_rss_mb", peak_rss_mb());
  report.set("bench.failed_frac",
             report.attempted() == 0
                 ? 0.0
                 : static_cast<double>(report.failed()) /
                       static_cast<double>(report.attempted()));
  const double lookups = report.get("query.cache_lookups");
  report.set("query.cache_hit_ratio",
             lookups > 0 ? report.get("query.cache_hits") / lookups : 0.0);

  recup::json::Object detail;
  detail["workload"] = options.workload;
  detail["seed"] = static_cast<std::int64_t>(options.seed);
  detail["traced"] = options.trace;
  for (const auto& [name, value] : report.labels()) detail[name] = value;
  if (options.trace) {
    detail["spans"] = recup::json::parse(tracer.totals_json());
    if (!options.trace_out.empty()) tracer.write_json(options.trace_out);
  }
  std::printf("fingerprint %s\n", fingerprint_json().c_str());
  std::printf("detail %s\n",
              recup::json::Value(std::move(detail)).dump().c_str());
  std::printf("%s\n", report.result_json(options.trace).c_str());
  return 0;
}
