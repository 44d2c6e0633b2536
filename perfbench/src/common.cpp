#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "json/json.hpp"

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  Rng rng(seed * 0x100000001b3ULL ^ tag);
  rng.next();
  return rng.next();
}

// --- Tracer -----------------------------------------------------------------

namespace {
thread_local std::vector<std::int64_t> open_spans;
}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

double Tracer::now() const { return seconds_since(origin_); }

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::int64_t parent)
    : tracer_(tracer) {
  if (tracer_->enabled()) id_ = tracer_->open(name, parent);
}

Tracer::Scope::~Scope() {
  if (id_ >= 0) tracer_->close(id_);
}

std::int64_t Tracer::open(const char* name, std::int64_t parent) {
  if (parent == kInnermost) {
    parent = open_spans.empty() ? -1 : open_spans.back();
  }
  std::int64_t id = 0;
  {
    std::lock_guard lock(mutex_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{name, now(), 0.0, parent});
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id) {
  const double end = now();
  {
    std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = end;
  }
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
}

std::vector<double> Tracer::sum_per_root(const std::string& root,
                                         const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::map<std::int64_t, double> sums;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0 && spans_[i].name == root) {
      sums[static_cast<std::int64_t>(i)] = 0.0;
    }
  }
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    std::int64_t top = s.parent;
    while (top >= 0 && spans_[static_cast<std::size_t>(top)].parent >= 0) {
      top = spans_[static_cast<std::size_t>(top)].parent;
    }
    const auto it = sums.find(top);
    if (it != sums.end()) it->second += s.end - s.start;
  }
  std::vector<double> out;
  out.reserve(sums.size());
  for (const auto& [id, sum] : sums) out.push_back(sum);
  return out;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

std::map<std::string, Tracer::NameTotals> Tracer::totals() const {
  std::lock_guard lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the span.
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = -1.0;
    for (const auto& [a0, b0] : kids) {
      const double a = std::max(a0, s.start);
      const double b = std::min(b0, s.end);
      if (b <= a) continue;
      if (a > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    NameTotals& t = out[s.name];
    ++t.count;
    t.total_s += s.end - s.start;
    t.self_s += (s.end - s.start) - covered;
  }
  return out;
}

namespace {

recup::json::Value totals_value(
    const std::map<std::string, Tracer::NameTotals>& totals) {
  recup::json::Object by_name;
  for (const auto& [name, t] : totals) {
    recup::json::Object o;
    o["count"] = static_cast<std::int64_t>(t.count);
    o["total_s"] = t.total_s;
    o["self_s"] = t.self_s;
    by_name[name] = recup::json::Value(std::move(o));
  }
  return recup::json::Value(std::move(by_name));
}

}  // namespace

std::string Tracer::totals_json() const {
  return totals_value(totals()).dump();
}

void Tracer::write_json(const std::string& path) const {
  recup::json::Array spans;
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      recup::json::Object o;
      o["id"] = static_cast<std::int64_t>(i);
      o["name"] = spans_[i].name;
      o["start_s"] = spans_[i].start;
      o["end_s"] = spans_[i].end;
      o["parent"] = spans_[i].parent;
      spans.push_back(recup::json::Value(std::move(o)));
    }
  }
  recup::json::Object doc;
  doc["spans"] = recup::json::Value(std::move(spans));
  doc["totals"] = totals_value(totals());
  std::ofstream out(path);
  out << recup::json::Value(std::move(doc)).dump() << "\n";
}

// --- Unit loop --------------------------------------------------------------

namespace {
/// Stops a run that is far slower than its nominal rate, so it still ends
/// inside the harness's per-run limit.
constexpr double kLoopCapSeconds = 120.0;
/// calibration_s() on the reference box (4-core Xeon at 2.1 GHz, quiet).
constexpr double kReferenceProbeSeconds = 0.018;
constexpr int kProbeRepeats = 3;
}  // namespace

double calibration_s() {
  const auto t0 = Clock::now();
  Rng rng(42);
  std::vector<std::uint64_t> values(1 << 17);
  for (auto& v : values) v = rng.next();
  std::sort(values.begin(), values.end());
  std::unordered_map<std::uint64_t, std::uint32_t> counts;
  for (std::size_t i = 0; i < values.size(); i += 2) ++counts[values[i] >> 24];
  if (counts.empty()) std::abort();  // keeps the work observable
  return seconds_since(t0);
}

UnitLoop::UnitLoop(const Options& options, Tracer& tracer,
                   double units_per_second, std::size_t min_units)
    : tracer_(tracer),
      trace_mode_(options.trace),
      count_(options.units > 0
                 ? options.units
                 : std::max(min_units,
                            static_cast<std::size_t>(std::lround(
                                options.seconds * units_per_second)))),
      start_(Clock::now()) {
  probe();
}

void UnitLoop::probe() {
  std::vector<double> times;
  for (int k = 0; k < kProbeRepeats; ++k) times.push_back(calibration_s());
  probes_.push_back(median(times));
  last_probe_ = Clock::now();
}

bool UnitLoop::next() {
  tracer_.set_enabled(false);
  if (started_) ++index_;
  started_ = true;
  bool more = index_ < count_;
  if (more && index_ > 0 && seconds_since(start_) > kLoopCapSeconds) {
    truncated_ = true;
    more = false;
    std::fprintf(stderr,
                 "perfbench: stopped after %zu of %zu units at the %.0f s "
                 "cap\n",
                 index_, count_, kLoopCapSeconds);
  }
  if (!more || seconds_since(last_probe_) > 0.5) probe();
  traced_ = more && trace_mode_ && index_ % 2 == 0;
  tracer_.set_enabled(traced_);
  return more;
}

double UnitLoop::scaled(double wall_s) const {
  return wall_s * kReferenceProbeSeconds / median(probes_);
}

void UnitLoop::describe(Report& report) const {
  std::string probes;
  for (const double v : probes_) {
    if (!probes.empty()) probes += ' ';
    probes += std::to_string(v);
  }
  report.label("host_probe_s", probes);
  report.label("host_scale", std::to_string(scaled(1.0)));
  if (truncated_) report.label("truncated", "yes");
}

std::vector<double> SplitSamples::all() const {
  std::vector<double> out = traced;
  out.insert(out.end(), untraced.begin(), untraced.end());
  return out;
}

// --- Metrics ----------------------------------------------------------------

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"unit_s", "s"},
      {"peak_rss_mb", "MB"},
      {"store_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"bench.units", "count"},
      {"bench.failed_frac", "ratio"},
      {"dtr.run_s", "s"},
      {"dtr.run_nocapture_s", "s"},
      {"dtr.nodurable_run_s", "s"},
      {"dtr.wave_s_p50", "s"},
      {"dtr.transitions", "count"},
      {"dtr.journal_frames", "count"},
      {"dtr.journal_records", "count"},
      {"mofka.events", "count"},
      {"mofka.batches", "count"},
      {"mofka.bytes_wire", "B"},
      {"mofka.wal_mb", "MB"},
      {"ingest.poll_s", "s"},
      {"ingest.polls", "count"},
      {"ingest.events_consumed", "count"},
      {"ingest.backlog_events", "count"},
      {"ingest.publish_s", "s"},
      {"ingest.visible_s", "s"},
      {"catalog.add_run_s", "s"},
      {"segstore.cold_open_s", "s"},
      {"segstore.compact_s", "s"},
      {"segstore.segments", "count"},
      {"segstore.mb", "MB"},
      {"segstore.frame_decode_ms.tasks", "ms"},
      {"segstore.frame_decode_ms.transitions", "ms"},
      {"segstore.frame_decode_ms.io_segments", "ms"},
      {"segstore.frame_decode_ms.comms", "ms"},
      {"segstore.frame_decode_ms.warnings", "ms"},
      {"segstore.frame_decode_ms.steals", "ms"},
      {"segstore.frame_decode_ms.task_io", "ms"},
      {"query.exec_ms.prefix_breakdown", "ms"},
      {"query.exec_ms.run_totals", "ms"},
      {"query.exec_ms.transition_states", "ms"},
      {"query.exec_ms.task_io_hotfiles", "ms"},
      {"query.exec_ms.slow_tasks", "ms"},
      {"query.exec_ms.comm_scatter", "ms"},
      {"query.exec_ms.warnings_by_worker", "ms"},
      {"query.exec_ms.io_asof", "ms"},
      {"query.plan_ms", "ms"},
      {"query.samples", "count"},
      {"query.p50_ms", "ms"},
      {"query.tail_ms", "ms"},
      {"query.tail_pct", "%"},
      {"query.qps", "1/s"},
      {"query.server_ms_p50", "ms"},
      {"query.queue_ms_p50", "ms"},
      {"query.queue_ms_tail", "ms"},
      {"query.cache_hits", "count"},
      {"query.cache_lookups", "count"},
      {"query.cache_hit_ratio", "ratio"},
      {"query.zone_pruned", "count"},
      {"query.runs_planned", "count"},
      {"query.rejected_overload", "count"},
      {"query.timed_out", "count"},
      {"query.failed", "count"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::attempt(bool ok, const std::string& what) {
  std::lock_guard lock(mutex_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (!what.empty()) std::fprintf(stderr, "perfbench: failed: %s\n", what.c_str());
  }
}

void Report::check(bool ok, const std::string& what) {
  attempt(ok, ok ? "" : "check " + what);
  if (!ok) {
    std::lock_guard lock(mutex_);
    ++mismatches_;
  }
}

std::string Report::result_json(bool traced) const {
  recup::json::Object metrics;
  for (const MetricDef& def :
       traced ? per_layer_metrics() : end_to_end_metrics()) {
    recup::json::Object m;
    m["value"] = get(def.name);
    m["unit"] = def.unit;
    metrics[def.name] = recup::json::Value(std::move(m));
  }
  recup::json::Object doc;
  doc["correct"] = correct();
  doc["attempted"] = static_cast<std::int64_t>(attempted_);
  doc["failed"] = static_cast<std::int64_t>(failed_);
  doc["metrics"] = recup::json::Value(std::move(metrics));
  return recup::json::Value(std::move(doc)).dump();
}

// --- Statistics -------------------------------------------------------------

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double tail_percentile(std::size_t samples) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 0.0;
}

// --- Host probes ------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return 0;
  std::uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        const auto first = model.find_first_not_of(' ');
        return first == std::string::npos ? "" : model.substr(first);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string fingerprint_json() {
  recup::json::Object o;
  o["nproc"] = static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  o["cpu_model"] = cpu_model();
#if defined(__clang__)
  o["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  o["compiler"] = std::string("gcc ") + __VERSION__;
#else
  o["compiler"] = "unknown";
#endif
  o["build_type"] = PERFBENCH_BUILD_TYPE;
  const char* threads = std::getenv("RECUP_THREADS");
  o["recup_threads"] = threads == nullptr ? "unset" : threads;
  return recup::json::Value(std::move(o)).dump();
}

}  // namespace perfbench
