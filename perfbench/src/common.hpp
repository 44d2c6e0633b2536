// Shared pieces of the pipeline benchmark: options, the in-memory span
// tracer, the metric report, small statistics helpers, and host probes
// (peak RSS, bytes on disk, the host/build fingerprint).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

enum class Size { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// 0: untraced runs measure until `seconds` pass, traced runs execute the
  /// workload's fixed unit count. > 0: execute exactly this many units.
  std::size_t units = 0;
  Size size = Size::kFull;
  /// Scratch root for every durable directory; removed at exit.
  std::string work_dir;
  /// Where a traced run writes its spans (empty: not written).
  std::string trace_out;
};

/// Deterministic 64-bit generator (splitmix64). Used instead of the
/// standard distributions so a seed draws the same inputs everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::size_t below(std::size_t n) { return next() % n; }
  bool chance(double p) {
    return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  std::uint64_t state_;
};

/// Mixes a seed with a stream tag so each input draw has its own stream.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

// --- Tracing ----------------------------------------------------------------

/// In-memory spans recorded from the benchmark's own code around calls into
/// each layer: name, start, end (seconds since the tracer was created) and
/// the span that caused it. Nothing is recorded while disabled, so the
/// untraced runs pay one atomic load per call site.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::int64_t parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Span id for explicit cross-thread parenting (-1 when disabled).
    [[nodiscard]] std::int64_t id() const { return id_; }

   private:
    Tracer* tracer_;
    std::int64_t id_ = -1;
  };

  Tracer();

  void set_enabled(bool on) { enabled_.store(on); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }

  /// Opens a span whose parent is the innermost open span of this thread.
  Scope span(const char* name) { return Scope(this, name, kInnermost); }
  /// Opens a span under an explicit parent (spans on helper threads).
  Scope span(const char* name, std::int64_t parent) {
    return Scope(this, name, parent);
  }

  /// Per root span named `root`, the summed duration of its descendants
  /// named `name` (roots without any such descendant contribute 0).
  [[nodiscard]] std::vector<double> sum_per_root(const std::string& root,
                                                 const std::string& name) const;
  /// Every duration of spans named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Total and self seconds per span name. Self time is a span's duration
  /// minus the part of it that its child spans cover.
  struct NameTotals {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::map<std::string, NameTotals> totals() const;

  /// Per-name totals as a JSON object text.
  [[nodiscard]] std::string totals_json() const;
  /// Writes every span plus the per-name totals as JSON.
  void write_json(const std::string& path) const;

 private:
  static constexpr std::int64_t kInnermost = -2;
  friend class Scope;
  std::int64_t open(const char* name, std::int64_t parent);
  void close(std::int64_t id);
  [[nodiscard]] double now() const;

  Clock::time_point origin_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

class Report;

/// Decides how many units of work a run executes and which are traced. The
/// count is fixed by --units, or else by --seconds times the workload's
/// nominal rate, so a faster build executes the same work in less time and
/// every counter repeats exactly for a seed. Traced runs trace every other
/// unit, so the untraced ones give the tracing overhead.
///
/// The loop also probes the host's speed (calibration_s) when it starts and
/// at least every half second between units. On a shared host the speed of
/// the whole machine drifts by tens of percent over minutes; scaled()
/// converts a wall time to seconds at the reference speed, which removes
/// that drift from the gated times.
class UnitLoop {
 public:
  UnitLoop(const Options& options, Tracer& tracer, double units_per_second,
           std::size_t min_units);
  /// True when another unit should run; enables tracing for it.
  bool next();
  [[nodiscard]] std::size_t index() const { return index_; }
  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool traced() const { return traced_; }
  /// `wall_s` at the reference host speed: wall_s x reference probe time /
  /// this run's median probe time.
  [[nodiscard]] double scaled(double wall_s) const;
  /// Records the probe times and the scale factor on the detail line.
  void describe(Report& report) const;

 private:
  void probe();

  Tracer& tracer_;
  bool trace_mode_;
  std::size_t count_;
  Clock::time_point start_;
  std::size_t index_ = 0;
  bool started_ = false;
  bool traced_ = false;
  bool truncated_ = false;
  Clock::time_point last_probe_{};
  std::vector<double> probes_;
};

/// A fixed single-threaded CPU and memory workload of the benchmark's own
/// (sort, then hash-map build); its wall time tracks the host's speed.
double calibration_s();

/// Per-unit samples, split into the traced units and the untraced ones.
struct SplitSamples {
  std::vector<double> traced;
  std::vector<double> untraced;
  void add(bool traced_unit, double v) {
    (traced_unit ? traced : untraced).push_back(v);
  }
  [[nodiscard]] std::vector<double> all() const;
};

// --- Metrics ----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload prints with tracing off.
const std::vector<MetricDef>& end_to_end_metrics();
/// The per-layer metrics every workload prints with tracing on. A layer the
/// workload bypasses reads 0.
const std::vector<MetricDef>& per_layer_metrics();

class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  void add(const std::string& name, double value) { values_[name] += value; }
  [[nodiscard]] double get(const std::string& name) const;

  /// One operation attempted; `ok` false counts it as failed.
  void attempt(bool ok, const std::string& what = "");
  /// An output check; a mismatch fails the operation and the run.
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return mismatches_ == 0; }

  /// Text printed on the `detail` line (not gated), such as the digest of
  /// the query sequence a seed drew.
  void label(const std::string& name, std::string value) {
    labels_[name] = std::move(value);
  }
  [[nodiscard]] const std::map<std::string, std::string>& labels() const {
    return labels_;
  }

  /// The result line: the metric set of the mode, each with its unit.
  [[nodiscard]] std::string result_json(bool traced) const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> labels_;
  std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t mismatches_ = 0;
};

// --- Statistics -------------------------------------------------------------

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
/// The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples
/// beyond it (0 when even p50 has fewer).
double tail_percentile(std::size_t samples);

// --- Host probes ------------------------------------------------------------

double peak_rss_mb();
/// Bytes of every regular file under `dir` (0 when it does not exist).
std::uint64_t dir_bytes(const std::string& dir);
/// nproc, CPU model, compiler, build type and RECUP_THREADS as a JSON
/// object. Results whose fingerprints differ are not comparable.
std::string fingerprint_json();

}  // namespace perfbench
