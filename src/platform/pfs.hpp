// Lustre-like parallel file system model.
//
// Files are striped round-robin across object storage targets (OSTs) starting
// at a per-file deterministic offset (hash of the path). An I/O operation
// touches the OSTs owning its stripes; each OST is a capacity-limited
// resource, so concurrent operations queue. Per-op cost = metadata latency +
// stripe bytes / OST bandwidth with log-normal jitter, plus occasional
// straggler events — the heavy-tailed I/O behaviour the paper identifies as
// "a prominent source of performance variability at scale".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace recup::platform {

struct PfsConfig {
  std::size_t ost_count = 16;
  std::uint64_t stripe_size = 1ULL << 20;  ///< 1 MiB
  std::size_t stripe_count = 4;            ///< stripes per file layout
  double ost_bandwidth = 1.8e9;            ///< bytes/s per OST
  Duration metadata_latency = 4e-4;        ///< open/stat/seek overhead per op
  double read_jitter_sigma = 0.35;
  double write_jitter_sigma = 0.45;
  /// Probability that an op hits a transiently slow OST.
  double straggler_probability = 0.015;
  /// Multiplier applied to a straggler op's service time.
  double straggler_factor = 8.0;
  /// Concurrent requests an OST serves before queueing.
  std::size_t ost_capacity = 4;
};

struct IoResult {
  TimePoint start = 0.0;  ///< service start (after any OST queueing)
  TimePoint end = 0.0;
  bool straggler = false;
};

class Pfs {
 public:
  Pfs(sim::Engine& engine, PfsConfig config, RngStream rng);

  /// Submits a read/write of [offset, offset+length) on `path`.
  void io(const std::string& path, std::uint64_t offset, std::uint64_t length,
          bool is_write, std::function<void(const IoResult&)> on_complete);

  /// Metadata-only operation (open/stat).
  void metadata_op(std::function<void(const IoResult&)> on_complete);

  [[nodiscard]] const PfsConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t straggler_ops() const { return stragglers_; }
  /// Queueing pressure observed so far, summed over OSTs.
  [[nodiscard]] Duration total_queue_delay() const;

 private:
  /// OSTs owning the stripes of [offset, offset+length) for this file.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::uint64_t>>
  stripe_spans(const std::string& path, std::uint64_t offset,
               std::uint64_t length) const;

  sim::Engine& engine_;
  PfsConfig config_;
  RngStream rng_;
  std::vector<std::unique_ptr<sim::Resource>> osts_;
  std::uint64_t stragglers_ = 0;
};

}  // namespace recup::platform
