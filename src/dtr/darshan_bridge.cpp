#include "dtr/darshan_bridge.hpp"

#include <algorithm>

#include "dtr/schema.hpp"

namespace recup::dtr {
namespace {

mofka::Broker& ensure_topic(mofka::Broker& broker, const char* topic) {
  if (!broker.topic_exists(topic)) broker.create_topic(topic);
  return broker;
}

}  // namespace

DarshanMofkaBridge::DarshanMofkaBridge(sim::Engine& engine,
                                       mofka::Broker& broker,
                                       std::vector<Worker*> workers,
                                       DarshanBridgeConfig config)
    : engine_(engine),
      workers_(std::move(workers)),
      config_(config),
      producer_(ensure_topic(broker, kTopic), kTopic, config.producer) {}

void DarshanMofkaBridge::start() {
  if (running_) return;
  running_ = true;
  tick();
}

void DarshanMofkaBridge::tick() {
  if (!running_) return;
  engine_.schedule_after(config_.interval, [this] {
    if (!running_) return;
    snapshot();
    tick();
  });
}

void DarshanMofkaBridge::snapshot() {
  ++snapshots_;
  for (Worker* worker : workers_) {
    const auto& rt = worker->darshan();
    for (const auto& rec : rt.posix_records()) {
      const auto key = std::make_pair(worker->id(), rec.file_path);
      const std::uint64_t ops = rec.opens + rec.reads + rec.writes;
      auto it = posix_seen_.find(key);
      if (it != posix_seen_.end() && it->second == ops) continue;
      posix_seen_[key] = ops;
      producer_.push_wire(to_wire(rec));
      ++pushed_;
    }
    for (const auto& rec : rt.dxt_records()) {
      const auto key = std::make_pair(worker->id(), rec.file_path);
      std::size_t& seen = dxt_seen_[key];
      if (seen < rec.segments.size()) {
        DxtSegmentEvent event{rec.file_path, rec.process_id, rec.hostname, {}};
        for (std::size_t s = seen; s < rec.segments.size(); ++s) {
          event.segment = rec.segments[s];
          producer_.push_wire(to_wire(event));
          ++pushed_;
        }
      }
      seen = rec.segments.size();
    }
  }
  producer_.flush();
}

void DarshanMofkaBridge::stop() {
  if (!running_) return;
  snapshot();  // final delta
  running_ = false;
}

std::vector<darshan::LogFile> read_darshan_topic(
    mofka::Broker& broker, const std::string& consumer_group) {
  mofka::Consumer consumer(broker, DarshanMofkaBridge::kTopic,
                           consumer_group);
  std::vector<darshan::LogFile> logs = read_darshan_topic(consumer);
  consumer.commit();
  return logs;
}

std::vector<darshan::LogFile> read_darshan_topic(mofka::Consumer& consumer) {
  // process -> file -> latest cumulative posix record / appended segments.
  std::map<darshan::ProcessId, std::map<std::string, darshan::PosixRecord>>
      posix;
  std::map<darshan::ProcessId, std::map<std::string, darshan::DxtRecord>>
      dxt;
  // pull_all_wire() drains past transient injected pull faults; a bare
  // pull loop would stop at the first hidden event.
  for (const mofka::WireEvent& event : consumer.pull_all_wire()) {
    if (kind_of(event.metadata) == "posix") {
      auto rec = from_wire<darshan::PosixRecord>(event.metadata);
      const darshan::ProcessId process = rec.process_id;
      const std::string file = rec.file_path;
      posix[process][file] = std::move(rec);
    } else {
      auto streamed = from_wire<DxtSegmentEvent>(event.metadata);
      darshan::DxtRecord& rec =
          dxt[streamed.process_id][streamed.file_path];
      if (rec.file_path.empty()) {
        rec.file_path = std::move(streamed.file_path);
        rec.process_id = streamed.process_id;
        rec.hostname = std::move(streamed.hostname);
      }
      rec.segments.push_back(streamed.segment);
    }
  }

  std::map<darshan::ProcessId, darshan::LogFile> logs;
  for (auto& [process, files] : posix) {
    for (auto& [file, rec] : files) {
      logs[process].posix.push_back(std::move(rec));
    }
  }
  for (auto& [process, files] : dxt) {
    for (auto& [file, rec] : files) {
      // Streamed segments arrive in push order; restore time order.
      std::sort(rec.segments.begin(), rec.segments.end(),
                [](const darshan::DxtSegment& a,
                   const darshan::DxtSegment& b) { return a.start < b.start; });
      logs[process].dxt.push_back(std::move(rec));
    }
  }
  std::vector<darshan::LogFile> out;
  out.reserve(logs.size());
  for (auto& [process, log] : logs) out.push_back(std::move(log));
  return out;
}

}  // namespace recup::dtr
