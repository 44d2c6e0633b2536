#include "query/ingest.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "dtr/darshan_bridge.hpp"
#include "dtr/schema.hpp"
#include "wire/codec.hpp"

namespace recup::query {

namespace {

constexpr std::array<const char*, 5> kTopics = {
    "wms_transitions", "wms_tasks", "wms_comms", "wms_warnings",
    "wms_cluster"};

/// Reads a consumed record from its metadata bytes and appends it with its
/// canonical key. The key is built here, on the tailing thread, so publish
/// only compares strings.
template <typename Keyed>
void keep(std::vector<Keyed>& pending, std::string_view metadata) {
  auto record = dtr::from_wire<decltype(Keyed::record)>(metadata);
  std::string key;
  dtr::to_json_text(record, key);
  pending.push_back(Keyed{std::move(key), std::move(record)});
}

/// Puts records in canonical order: ascending byte order of their compact
/// JSON. Arrival order over the Mofka transport is an artifact of flush
/// timing, partition round-robin, and retry displacement under injected
/// faults; canonical ordering makes published runs — and therefore every
/// PERFRECUP view — byte-identical for the same logical record set
/// regardless of transport interleaving.
template <typename Keyed>
auto canonical(std::vector<Keyed>& pending) {
  std::sort(pending.begin(), pending.end(),
            [](const Keyed& a, const Keyed& b) { return a.key < b.key; });
  std::vector<decltype(Keyed::record)> records;
  records.reserve(pending.size());
  for (Keyed& k : pending) records.push_back(std::move(k.record));
  return records;
}

/// One topic's per-partition positions in a cursor-WAL record; empty when
/// the record does not name the topic. A negative position is corruption:
/// wrapped into an EventId it would seek past every event of the partition.
std::vector<mofka::EventId> logged_positions(const json::Value& cursors,
                                             const char* topic) {
  std::vector<mofka::EventId> out;
  if (!cursors.is_object() || !cursors.contains(topic)) return out;
  for (const json::Value& position : cursors.at(topic).as_array()) {
    const std::int64_t value = position.as_int();
    if (value < 0) {
      throw wal::WalError("ingest cursor: negative position " +
                          std::to_string(value) + " for " + topic +
                          " partition " + std::to_string(out.size()));
    }
    out.push_back(static_cast<mofka::EventId>(value));
  }
  return out;
}

std::vector<mofka::EventId> positions(const mofka::Consumer& consumer) {
  std::vector<mofka::EventId> out;
  for (mofka::PartitionIndex p = 0; p < consumer.partitions(); ++p) {
    out.push_back(consumer.position(p));
  }
  return out;
}

json::Array positions_json(const std::vector<mofka::EventId>& offsets) {
  json::Array out;
  for (const mofka::EventId position : offsets) {
    out.emplace_back(static_cast<std::int64_t>(position));
  }
  return out;
}

/// Seeks each partition to max(broker-committed offset, logged position).
void seek_to_cursors(mofka::Broker& broker, mofka::Consumer& consumer,
                     const std::vector<mofka::EventId>& logged) {
  for (mofka::PartitionIndex p = 0; p < consumer.partitions(); ++p) {
    mofka::EventId target =
        broker.committed_offset(consumer.topic(), consumer.group(), p);
    if (p < logged.size()) target = std::max(target, logged[p]);
    consumer.seek(p, target);
  }
}

}  // namespace

LiveIngestor::LiveIngestor(mofka::Broker& broker, StoreCatalog& catalog,
                           std::string consumer_group,
                           std::string durable_dir)
    : broker_(broker),
      catalog_(catalog),
      group_(std::move(consumer_group)),
      transitions_(broker, "wms_transitions", group_),
      tasks_(broker, "wms_tasks", group_),
      comms_(broker, "wms_comms", group_),
      warnings_(broker, "wms_warnings", group_),
      cluster_(broker, "wms_cluster", group_) {
  if (!durable_dir.empty()) {
    cursor_wal_ = std::make_unique<wal::WalWriter>(durable_dir);
    std::lock_guard lock(mutex_);
    restore_cursors_locked();
  }
}

LiveIngestor::~LiveIngestor() { stop(); }

std::array<mofka::Consumer*, 5> LiveIngestor::consumers_locked() {
  return {&transitions_, &tasks_, &comms_, &warnings_, &cluster_};
}

void LiveIngestor::restore_cursors_locked() {
  // Only the last cursor record matters: it names the positions as of the
  // most recent successful publish.
  json::Value cursors;
  if (cursor_wal_) {
    wal::WalWriter::replay(cursor_wal_->dir(),
                           [&cursors](std::string_view payload) {
                             cursors = wire::decode_value(payload);
                           });
  }
  const auto consumers = consumers_locked();
  for (std::size_t i = 0; i < consumers.size(); ++i) {
    seek_to_cursors(broker_, *consumers[i],
                    logged_positions(cursors, kTopics[i]));
  }
  darshan_cursor_ =
      logged_positions(cursors, dtr::DarshanMofkaBridge::kTopic);
}

void LiveIngestor::log_cursors_locked() {
  if (!cursor_wal_) return;
  json::Object o;
  const auto consumers = consumers_locked();
  for (std::size_t i = 0; i < consumers.size(); ++i) {
    o[kTopics[i]] = positions_json(positions(*consumers[i]));
  }
  if (!darshan_cursor_.empty()) {
    o[dtr::DarshanMofkaBridge::kTopic] = positions_json(darshan_cursor_);
  }
  cursor_wal_->append(wire::encode_value(json::Value(std::move(o))));
  cursor_wal_->flush();
}

void LiveIngestor::crash_restore_locked() {
  // A process crash loses everything consumed-but-unpublished; the
  // restarted ingestor re-tails from the durable cursors, so the eventual
  // published run contains the same record set.
  ++recoveries_;
  pending_ = PendingRun{};
  pending_count_ = 0;
  restore_cursors_locked();
}

std::uint64_t LiveIngestor::recoveries() const {
  std::lock_guard lock(mutex_);
  return recoveries_;
}

std::size_t LiveIngestor::poll() {
  std::lock_guard lock(mutex_);
  if (injector_) {
    const auto fault = injector_->decide(chaos::sites::kIngestorProcess);
    if (fault.action == chaos::FaultAction::kProcessCrashRestart) {
      crash_restore_locked();
      return 0;
    }
  }
  return poll_locked();
}

std::size_t LiveIngestor::poll_locked() {
  std::size_t consumed = 0;
  while (auto event = transitions_.pull_wire()) {
    keep(pending_.transitions, event->metadata);
    ++consumed;
  }
  while (auto event = tasks_.pull_wire()) {
    keep(pending_.tasks, event->metadata);
    ++consumed;
  }
  while (auto event = comms_.pull_wire()) {
    keep(pending_.comms, event->metadata);
    ++consumed;
  }
  while (auto event = warnings_.pull_wire()) {
    keep(pending_.warnings, event->metadata);
    ++consumed;
  }
  while (auto event = cluster_.pull_wire()) {
    if (dtr::kind_of(event->metadata) == "steal") {
      keep(pending_.steals, event->metadata);
    }
    ++consumed;
  }
  pending_count_ += consumed;
  stats_.events_consumed += consumed;
  stats_.polls += 1;
  return consumed;
}

Epoch LiveIngestor::publish(dtr::RunMetadata meta) {
  dtr::RunData run;
  PendingRun pending;
  // A fresh consumer per publish reads the Darshan topic from its cursor to
  // the end, as the post-hoc reader does, so the fold order is unchanged.
  std::optional<mofka::Consumer> darshan;
  {
    std::lock_guard lock(mutex_);
    if (injector_) {
      const auto fault = injector_->decide(chaos::sites::kIngestorProcess);
      if (fault.action == chaos::FaultAction::kProcessCrashRestart) {
        // Crash at publish entry: drop the pending run and re-tail below —
        // the drain loop re-pulls everything, so the published run is the
        // same one the fault-free process would have produced.
        crash_restore_locked();
      }
    }
    // Drain fully: a single pass can return early when injected pull
    // faults transiently hide events, so loop until every consumer has
    // caught up with its partitions.
    do {
      poll_locked();
    } while (!(transitions_.drained() && tasks_.drained() &&
               comms_.drained() && warnings_.drained() &&
               cluster_.drained()));
    if (broker_.topic_exists(dtr::DarshanMofkaBridge::kTopic)) {
      darshan.emplace(broker_, dtr::DarshanMofkaBridge::kTopic, group_);
      seek_to_cursors(broker_, *darshan, darshan_cursor_);
      run.darshan_logs = dtr::read_darshan_topic(*darshan);
    }
    pending = std::exchange(pending_, PendingRun{});
    pending_count_ = 0;
  }
  run.meta = std::move(meta);
  run.transitions = canonical(pending.transitions);
  run.tasks = canonical(pending.tasks);
  run.comms = canonical(pending.comms);
  run.warnings = canonical(pending.warnings);
  run.steals = canonical(pending.steals);
  const bool added = catalog_.add_run(std::move(run));
  {
    // Commit cursors only after the run is in the catalog. A crash in
    // either window is safe: before add_run, a restarted ingestor re-tails
    // from the old cursors and publishes the same run; after add_run but
    // before commit, the re-published duplicate run id is ignored by the
    // idempotent catalog. Exactly-once effects either way.
    std::lock_guard lock(mutex_);
    transitions_.commit();
    tasks_.commit();
    comms_.commit();
    warnings_.commit();
    cluster_.commit();
    if (darshan) {
      darshan->commit();
      darshan_cursor_ = positions(*darshan);
    }
    log_cursors_locked();
    if (added) stats_.runs_published += 1;
  }
  return catalog_.snapshot().epoch();
}

void LiveIngestor::start(std::chrono::milliseconds interval) {
  {
    std::lock_guard lock(tail_mutex_);
    if (tail_running_) return;
    tail_running_ = true;
  }
  tail_thread_ = std::thread([this, interval] {
    std::unique_lock lock(tail_mutex_);
    while (tail_running_) {
      lock.unlock();
      poll();
      lock.lock();
      tail_cv_.wait_for(lock, interval, [this] { return !tail_running_; });
    }
  });
}

void LiveIngestor::stop() {
  {
    std::lock_guard lock(tail_mutex_);
    if (!tail_running_) return;
    tail_running_ = false;
  }
  tail_cv_.notify_all();
  if (tail_thread_.joinable()) tail_thread_.join();
}

IngestStats LiveIngestor::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::size_t LiveIngestor::pending_events() const {
  std::lock_guard lock(mutex_);
  return pending_count_;
}

}  // namespace recup::query
