// Online Darshan-to-Mofka bridge — the paper's stated future work: "We will
// shift to capturing Darshan records and pushing them to Mofka at runtime to
// have a fully online system."
//
// The bridge runs on the virtual clock: every `interval` it snapshots each
// worker's Darshan runtime and pushes *changed* POSIX records (cumulative
// counters) and *new* DXT segments to the `darshan_records` topic. A
// consumer can reassemble LogFiles identical in content to the post-hoc
// collection path, or process them in situ while the workflow runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "darshan/log_format.hpp"
#include "dtr/worker.hpp"
#include "mofka/broker.hpp"
#include "mofka/consumer.hpp"
#include "mofka/producer.hpp"
#include "sim/engine.hpp"

namespace recup::dtr {

struct DarshanBridgeConfig {
  Duration interval = 1.0;  ///< snapshot period on the virtual clock
  /// Batching within one snapshot: each snapshot ends with a flush.
  mofka::ProducerConfig producer{/*batch_size=*/64};
};

class DarshanMofkaBridge {
 public:
  static constexpr const char* kTopic = "darshan_records";

  DarshanMofkaBridge(sim::Engine& engine, mofka::Broker& broker,
                     std::vector<Worker*> workers,
                     DarshanBridgeConfig config = {});

  /// Starts the periodic snapshot loop; stops when `stop()` is called.
  void start();
  /// Pushes a final snapshot and stops the loop.
  void stop();

  [[nodiscard]] std::uint64_t events_pushed() const { return pushed_; }
  [[nodiscard]] std::uint64_t snapshots_taken() const { return snapshots_; }

 private:
  void snapshot();
  void tick();

  sim::Engine& engine_;
  std::vector<Worker*> workers_;
  DarshanBridgeConfig config_;
  mofka::Producer producer_;
  // Last pushed cumulative op count per (worker, file): detects changes.
  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> posix_seen_;
  // Segments already pushed per (worker, file).
  std::map<std::pair<std::uint32_t, std::string>, std::size_t> dxt_seen_;
  std::uint64_t pushed_ = 0;
  std::uint64_t snapshots_ = 0;
  bool running_ = false;
};

/// Consumer side: reassembles one LogFile per worker process from the
/// streamed records; content matches the post-hoc collection path.
/// Resumes from the group's committed offsets and commits what it read.
std::vector<darshan::LogFile> read_darshan_topic(
    mofka::Broker& broker, const std::string& consumer_group = "perfrecup");

/// Same reassembly from every event left in `consumer` (subscribed to
/// DarshanMofkaBridge::kTopic), without committing: the caller commits once
/// the logs are durable elsewhere.
std::vector<darshan::LogFile> read_darshan_topic(mofka::Consumer& consumer);

}  // namespace recup::dtr
