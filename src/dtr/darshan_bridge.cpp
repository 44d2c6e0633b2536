#include "dtr/darshan_bridge.hpp"

#include <algorithm>

namespace recup::dtr {
namespace {

json::Value posix_to_json(const darshan::PosixRecord& rec) {
  json::Object o;
  o["kind"] = "posix";
  o["file"] = rec.file_path;
  o["process"] = static_cast<std::int64_t>(rec.process_id);
  o["hostname"] = rec.hostname;
  o["opens"] = rec.opens;
  o["reads"] = rec.reads;
  o["writes"] = rec.writes;
  o["bytes_read"] = rec.bytes_read;
  o["bytes_written"] = rec.bytes_written;
  o["max_byte_read"] = rec.max_byte_read;
  o["max_byte_written"] = rec.max_byte_written;
  o["read_time"] = rec.read_time;
  o["write_time"] = rec.write_time;
  o["meta_time"] = rec.meta_time;
  return json::Value(std::move(o));
}

darshan::PosixRecord posix_from_json(const json::Value& v) {
  darshan::PosixRecord rec;
  rec.file_path = v.at("file").as_string();
  rec.process_id =
      static_cast<darshan::ProcessId>(v.at("process").as_int());
  rec.hostname = v.at("hostname").as_string();
  rec.opens = static_cast<std::uint64_t>(v.at("opens").as_int());
  rec.reads = static_cast<std::uint64_t>(v.at("reads").as_int());
  rec.writes = static_cast<std::uint64_t>(v.at("writes").as_int());
  rec.bytes_read = static_cast<std::uint64_t>(v.at("bytes_read").as_int());
  rec.bytes_written =
      static_cast<std::uint64_t>(v.at("bytes_written").as_int());
  rec.max_byte_read =
      static_cast<std::uint64_t>(v.at("max_byte_read").as_int());
  rec.max_byte_written =
      static_cast<std::uint64_t>(v.at("max_byte_written").as_int());
  rec.read_time = v.at("read_time").as_double();
  rec.write_time = v.at("write_time").as_double();
  rec.meta_time = v.at("meta_time").as_double();
  return rec;
}

json::Value segment_to_json(const darshan::DxtRecord& rec,
                            const darshan::DxtSegment& seg) {
  json::Object o;
  o["kind"] = "dxt";
  o["file"] = rec.file_path;
  o["process"] = static_cast<std::int64_t>(rec.process_id);
  o["hostname"] = rec.hostname;
  o["op"] = seg.op == darshan::IoOp::kRead ? "read" : "write";
  o["offset"] = seg.offset;
  o["length"] = seg.length;
  o["start"] = seg.start;
  o["end"] = seg.end;
  o["thread_id"] = seg.thread_id;
  return json::Value(std::move(o));
}

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
      producer_.push(posix_to_json(rec));
      ++pushed_;
    }
    for (const auto& rec : rt.dxt_records()) {
      const auto key = std::make_pair(worker->id(), rec.file_path);
      std::size_t& seen = dxt_seen_[key];
      for (std::size_t s = seen; s < rec.segments.size(); ++s) {
        producer_.push(segment_to_json(rec, rec.segments[s]));
        ++pushed_;
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
  // pull_all() drains past transient injected pull faults; a bare pull()
  // loop would stop at the first hidden event.
  for (auto& event : consumer.pull_all()) {
    const json::Value& m = event.metadata;
    const auto process =
        static_cast<darshan::ProcessId>(m.at("process").as_int());
    const std::string& file = m.at("file").as_string();
    if (m.at("kind").as_string() == "posix") {
      posix[process][file] = posix_from_json(m);
    } else {
      darshan::DxtRecord& rec = dxt[process][file];
      if (rec.file_path.empty()) {
        rec.file_path = file;
        rec.process_id = process;
        rec.hostname = m.at("hostname").as_string();
      }
      darshan::DxtSegment seg;
      seg.op = m.at("op").as_string() == "read" ? darshan::IoOp::kRead
                                                : darshan::IoOp::kWrite;
      seg.offset = static_cast<std::uint64_t>(m.at("offset").as_int());
      seg.length = static_cast<std::uint64_t>(m.at("length").as_int());
      seg.start = m.at("start").as_double();
      seg.end = m.at("end").as_double();
      seg.thread_id =
          static_cast<std::uint64_t>(m.at("thread_id").as_int());
      rec.segments.push_back(seg);
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
