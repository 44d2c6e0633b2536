#include "mofka/broker.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <thread>

namespace recup::mofka {

namespace {

// WAL record framing: a type byte ('T'opic / 'B'atch / 'C'ommit) followed by
// length-prefixed fields. Binary rather than JSON because event data
// payloads are arbitrary bytes.

void put_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xFF);
  buf[1] = static_cast<char>((v >> 8) & 0xFF);
  buf[2] = static_cast<char>((v >> 16) & 0xFF);
  buf[3] = static_cast<char>((v >> 24) & 0xFF);
  out.append(buf, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

/// Bounds-checked sequential reader over one WAL record.
struct RecordReader {
  std::string_view data;
  std::size_t pos = 0;

  std::uint32_t u32() {
    if (pos + 4 > data.size()) throw MofkaError("mofka: truncated WAL record");
    const auto* p = reinterpret_cast<const unsigned char*>(data.data() + pos);
    pos += 4;
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    return lo | static_cast<std::uint64_t>(u32()) << 32;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (pos + n > data.size()) throw MofkaError("mofka: truncated WAL record");
    std::string out(data.substr(pos, n));
    pos += n;
    return out;
  }
};

/// Throws MofkaError if a topic or consumer-group name holds a '/', the
/// separator of the group-offset keys: topic "a/b" with group "c" and topic
/// "a" with group "b/c" would share one.
void check_name(const char* kind, const std::string& name) {
  if (name.find('/') != std::string::npos) {
    throw MofkaError(std::string("mofka: ") + kind + " name '" + name +
                     "' contains '/'");
  }
}

/// The metadata-store key of a consumer group's committed offset.
std::string group_key(const std::string& topic, const std::string& group,
                      std::uint32_t partition) {
  check_name("topic", topic);
  check_name("consumer group", group);
  return "g/" + topic + "/" + group + "/" + std::to_string(partition);
}

}  // namespace

Broker::Broker(mochi::KeyValueStore& metadata_store,
               mochi::BlobStore& data_store, std::string wal_dir)
    : metadata_store_(metadata_store),
      data_store_(data_store),
      wal_dir_(std::move(wal_dir)) {
  if (wal_dir_.empty()) return;
  wal_ = std::make_unique<wal::WalWriter>(wal_dir_);
  std::lock_guard lock(mutex_);
  replay_wal_locked();
}

void Broker::replay_wal_locked() {
  wal::WalWriter::replay(wal_dir_,
                         [this](std::string_view record) {
                           wal_apply(record);
                         });
}

void Broker::wal_apply(std::string_view record) {
  if (record.empty()) throw MofkaError("mofka: empty WAL record");
  RecordReader reader{record, 1};
  switch (record[0]) {
    case 'T': {
      const std::string name = reader.str();
      const auto partitions = static_cast<PartitionIndex>(reader.u32());
      apply_create_topic(name, partitions);
      break;
    }
    case 'B': {
      const std::string topic = reader.str();
      const auto partition = static_cast<PartitionIndex>(reader.u32());
      const std::uint32_t count = reader.u32();
      // Each event takes at least its two 4-byte length prefixes.
      if (count > (record.size() - reader.pos) / 8) {
        throw MofkaError("mofka: WAL batch count exceeds its record");
      }
      std::vector<std::pair<std::string, std::string>> events;
      events.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        std::string metadata = reader.str();
        std::string data = reader.str();
        events.emplace_back(std::move(metadata), std::move(data));
      }
      apply_append(topic, partition, events);
      break;
    }
    case 'C': {
      const std::string topic = reader.str();
      const std::string group = reader.str();
      const auto partition = reader.u32();
      const EventId next = reader.u64();
      metadata_store_.put(group_key(topic, group, partition),
                          std::to_string(next));
      break;
    }
    default:
      throw MofkaError("mofka: unknown WAL record type");
  }
}

void Broker::apply_create_topic(const std::string& name,
                                PartitionIndex partitions) {
  if (partitions == 0) {
    throw MofkaError("mofka: WAL topic '" + name + "' has no partition");
  }
  check_name("WAL topic", name);
  if (topics_.count(name) != 0) {
    throw MofkaError("mofka: WAL creates topic '" + name + "' twice");
  }
  Topic topic;
  topic.partitions = partitions;
  topic.next_offset.assign(partitions, 0);
  topic.data_regions.assign(partitions, {});
  topic.producers.resize(partitions);
  topics_.emplace(name, std::move(topic));
}

void Broker::apply_append(
    const std::string& topic, PartitionIndex partition,
    const std::vector<std::pair<std::string, std::string>>& events) {
  const auto it = topics_.find(topic);
  if (it == topics_.end()) throw MofkaError("mofka: WAL batch for unknown topic");
  Topic& t = it->second;
  if (partition >= t.partitions) {
    throw MofkaError("mofka: WAL batch for a partition out of range");
  }
  for (const auto& [serialized, data] : events) {
    ProducerSeqState* pstate = nullptr;
    std::uint64_t seq = 0;
    // Checks the logged bytes as the frame transcode checked them live.
    if (const auto stamps = read_stamps(serialized)) {
      seq = stamps->seq;
      pstate = &t.producers[partition][stamps->pid];
      // The WAL holds only post-dedup appends, so this re-seeds the
      // tracker; a producer retrying across the restart is then absorbed
      // exactly as it would have been by the original process.
      pstate->tracker.accept(seq);
    }
    const EventId offset = t.next_offset[partition]++;
    metadata_store_.put(meta_key(topic, partition, offset), serialized);
    t.data_regions[partition].push_back(data_store_.create_sealed(data));
    t.stats.events += 1;
    t.stats.bytes_metadata += serialized.size();
    t.stats.bytes_data += data.size();
    if (pstate != nullptr) {
      pstate->offsets.emplace(seq, offset);
      if (pstate->offsets.size() > kSeqOffsetWindow) {
        pstate->offsets.erase(pstate->offsets.begin());
      }
    }
  }
  t.stats.batches += 1;
}

void Broker::crash_and_recover() {
  std::lock_guard lock(mutex_);
  ++recoveries_;
  // The crash: all in-memory state and the broker-owned store entries of
  // this "process" are gone.
  for (auto& [name, topic] : topics_) {
    for (auto& regions : topic.data_regions) {
      for (const mochi::RegionId region : regions) data_store_.erase(region);
    }
  }
  for (const std::string& key : metadata_store_.list_keys("t/")) {
    metadata_store_.erase(key);
  }
  for (const std::string& key : metadata_store_.list_keys("g/")) {
    metadata_store_.erase(key);
  }
  topics_.clear();
  {
    // Producer wire sessions die with the process; a producer whose
    // session outlived the restart gets WireSessionError on its next
    // frame and re-encodes self-contained.
    std::lock_guard sessions_lock(sessions_mutex_);
    sessions_.clear();
  }
  if (wal_ == nullptr) return;  // non-durable: the data is simply lost
  // The restart: rebuild everything from the log.
  wal_->flush();
  replay_wal_locked();
}

std::uint64_t Broker::recoveries() const {
  std::lock_guard lock(mutex_);
  return recoveries_;
}

std::uint64_t Broker::wal_bytes() const {
  return wal_ == nullptr ? 0 : wal_->bytes_appended();
}

void Broker::create_topic(const std::string& name, PartitionIndex partitions) {
  if (partitions == 0) {
    throw MofkaError("mofka: topic needs >= 1 partition");
  }
  check_name("topic", name);
  std::lock_guard lock(mutex_);
  if (topics_.count(name) != 0) {
    throw MofkaError("mofka: topic '" + name + "' already exists");
  }
  Topic topic;
  topic.partitions = partitions;
  topic.next_offset.assign(partitions, 0);
  topic.data_regions.assign(partitions, {});
  topic.producers.resize(partitions);
  if (wal_) {
    std::string record(1, 'T');
    put_str(record, name);
    put_u32(record, partitions);
    wal_->append(record);
  }
  topics_.emplace(name, std::move(topic));
}

bool Broker::topic_exists(const std::string& name) const {
  std::lock_guard lock(mutex_);
  return topics_.count(name) != 0;
}

std::vector<std::string> Broker::topic_names() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [name, topic] : topics_) out.push_back(name);
  return out;
}

PartitionIndex Broker::partition_count(const std::string& topic) const {
  std::lock_guard lock(mutex_);
  const auto it = topics_.find(topic);
  if (it == topics_.end()) throw MofkaError("mofka: unknown topic " + topic);
  return it->second.partitions;
}

TopicStats Broker::topic_stats(const std::string& topic) const {
  std::lock_guard lock(mutex_);
  const auto it = topics_.find(topic);
  if (it == topics_.end()) throw MofkaError("mofka: unknown topic " + topic);
  return it->second.stats;
}

void Broker::set_fault_injector(
    std::shared_ptr<chaos::FaultInjector> injector) {
  std::lock_guard lock(mutex_);
  injector_ = std::move(injector);
}

std::shared_ptr<chaos::FaultInjector> Broker::fault_injector() const {
  std::lock_guard lock(mutex_);
  return injector_;
}

std::string Broker::meta_key(const std::string& topic,
                             PartitionIndex partition, EventId offset) {
  // Zero-padded offsets keep lexicographic order == numeric order, so prefix
  // scans over yokan return events in append order.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/%08u/%020" PRIu64, partition, offset);
  return "t/" + topic + buf;
}

AppendResult Broker::append_batch(const std::string& topic,
                                  PartitionIndex partition,
                                  const std::vector<EventBytes>& events) {
  if (events.empty()) throw MofkaError("mofka: empty batch");
  std::shared_ptr<chaos::FaultInjector> injector;
  {
    std::lock_guard lock(mutex_);
    const auto it = topics_.find(topic);
    if (it == topics_.end()) throw MofkaError("mofka: unknown topic " + topic);
    if (partition >= it->second.partitions) {
      throw MofkaError("mofka: partition out of range");
    }
    injector = injector_;
  }

  // Fault injection point: "drop"-like actions lose the request before it
  // takes effect; "duplicate" appends but loses the ack, so the retried
  // batch exercises sequence dedup. The process site crashes and restarts
  // the whole broker before this batch lands; the producer sees a
  // transient fault, retries, and recovered dedup state makes the retry
  // exactly-once (or observably lossy when the broker is not durable).
  chaos::FaultDecision fault;
  if (injector) {
    const chaos::FaultDecision process =
        injector->decide(chaos::sites::kBrokerProcess);
    if (process.action == chaos::FaultAction::kProcessCrashRestart) {
      crash_and_recover();
      throw chaos::TransientFault("mofka: broker process restarted");
    }
    fault = injector->decide(chaos::sites::kMofkaPush, partition);
  }
  if (fault.action == chaos::FaultAction::kDelay) {
    std::this_thread::sleep_for(fault.delay);
  }
  switch (fault.action) {
    case chaos::FaultAction::kDrop:
      throw chaos::TransientFault("mofka: injected push drop");
    case chaos::FaultAction::kReorder:
      // Lost-then-retried: the retry displaces this batch's arrival order
      // relative to other partitions/producers.
      throw chaos::TransientFault("mofka: injected push reorder");
    case chaos::FaultAction::kTransientError:
      throw chaos::TransientFault("mofka: injected transient push error");
    case chaos::FaultAction::kPartitionUnavailable:
      throw chaos::TransientFault("mofka: injected partition outage");
    default:
      break;
  }

  AppendResult result;
  result.offsets.reserve(events.size());
  {
    std::lock_guard lock(mutex_);
    Topic& t = topics_.at(topic);
    // Write-ahead record for the events this batch actually appends
    // (duplicates excluded); logged under the same lock that assigns
    // offsets, so WAL order == offset order and an acked append is always
    // in the log before the ack can return.
    std::string wal_record;
    std::uint32_t wal_events = 0;
    for (const auto& [serialized, data] : events) {
      // Sequence dedup for producer-stamped events.
      ProducerSeqState* pstate = nullptr;
      std::uint64_t seq = 0;
      if (const auto stamps = read_stamps(serialized)) {
        seq = stamps->seq;
        pstate = &t.producers[partition][stamps->pid];
        if (!pstate->tracker.accept(seq)) {
          ++result.duplicates;
          ++t.stats.duplicates_absorbed;
          const auto original = pstate->offsets.find(seq);
          result.offsets.push_back(original != pstate->offsets.end()
                                       ? original->second
                                       : kUnknownOffset);
          continue;
        }
      }
      const EventId offset = t.next_offset[partition]++;
      // Metadata in yokan, payload in warabi, linked by region id order.
      metadata_store_.put(meta_key(topic, partition, offset), serialized);
      t.data_regions[partition].push_back(data_store_.create_sealed(data));
      t.stats.events += 1;
      t.stats.bytes_metadata += serialized.size();
      t.stats.bytes_data += data.size();
      if (pstate != nullptr) {
        pstate->offsets.emplace(seq, offset);
        if (pstate->offsets.size() > kSeqOffsetWindow) {
          pstate->offsets.erase(pstate->offsets.begin());
        }
      }
      if (wal_) {
        put_str(wal_record, serialized);
        put_str(wal_record, data);
        ++wal_events;
      }
      result.offsets.push_back(offset);
    }
    t.stats.batches += 1;
    if (wal_ && wal_events > 0) {
      std::string framed(1, 'B');
      put_str(framed, topic);
      put_u32(framed, partition);
      put_u32(framed, wal_events);
      framed += wal_record;
      wal_->append(framed);
    }
  }
  if (fault.action == chaos::FaultAction::kDuplicate) {
    // The append landed but the ack is lost; the producer will retry the
    // identical batch and dedup will absorb it.
    throw chaos::TransientFault("mofka: injected ack loss after append");
  }
  return result;
}

AppendResult Broker::append_frame(const std::string& topic,
                                  PartitionIndex partition,
                                  std::uint64_t session,
                                  std::string_view frame) {
  std::vector<EventBytes> events;
  {
    // Decode before fault injection so a frame whose ack is lost still
    // teaches the session dictionary: the retried identical bytes then
    // decode cleanly (str-defs carry explicit ids and re-apply
    // idempotently) and sequence dedup absorbs the events.
    std::lock_guard lock(sessions_mutex_);
    wire::StreamDecoder& decoder = sessions_[session];
    try {
      events = decode_event_frame(decoder, frame);
    } catch (const wire::WireError& e) {
      // A ref into state this broker lacks, or a malformed frame: either
      // way the session is unusable. Drop it so the producer's re-encoded
      // batch starts from a fresh dictionary.
      sessions_.erase(session);
      throw WireSessionError(std::string("mofka: wire session reset: ") +
                             e.what());
    }
  }
  {
    std::lock_guard lock(mutex_);
    const auto it = topics_.find(topic);
    if (it != topics_.end()) it->second.stats.bytes_wire += frame.size();
  }
  // sessions_mutex_ is released before append_batch: the injected
  // kBrokerProcess crash path re-acquires it in crash_and_recover.
  return append_batch(topic, partition, events);
}

PartitionIndex Broker::select_partition(const std::string& topic) {
  std::lock_guard lock(mutex_);
  const auto it = topics_.find(topic);
  if (it == topics_.end()) throw MofkaError("mofka: unknown topic " + topic);
  Topic& t = it->second;
  const PartitionIndex chosen = t.round_robin_next;
  t.round_robin_next =
      static_cast<PartitionIndex>((t.round_robin_next + 1) % t.partitions);
  return chosen;
}

EventId Broker::partition_size(const std::string& topic,
                               PartitionIndex partition) const {
  std::lock_guard lock(mutex_);
  const auto it = topics_.find(topic);
  if (it == topics_.end()) throw MofkaError("mofka: unknown topic " + topic);
  if (partition >= it->second.partitions) {
    throw MofkaError("mofka: partition out of range");
  }
  return it->second.next_offset[partition];
}

std::optional<WireEvent> Broker::fetch_wire(
    const std::string& topic, PartitionIndex partition, EventId offset,
    const std::function<DataSelection(const json::Value&)>& selection) const {
  mochi::RegionId region = 0;
  {
    std::lock_guard lock(mutex_);
    const auto it = topics_.find(topic);
    if (it == topics_.end()) throw MofkaError("mofka: unknown topic " + topic);
    if (partition >= it->second.partitions) {
      throw MofkaError("mofka: partition out of range");
    }
    if (offset >= it->second.next_offset[partition]) return std::nullopt;
    region = it->second.data_regions[partition][offset];
  }
  auto serialized = metadata_store_.get(meta_key(topic, partition, offset));
  if (!serialized) {
    throw MofkaError("mofka: metadata missing for committed event");
  }
  WireEvent event;
  event.topic = topic;
  event.partition = partition;
  event.id = offset;
  event.metadata = std::move(*serialized);
  DataSelection sel;
  if (selection) sel = selection(wire::decode_value(event.metadata));
  if (sel.fetch) {
    event.data = data_store_.read(region, sel.offset, sel.length);
  }
  return event;
}

std::optional<Event> Broker::fetch(
    const std::string& topic, PartitionIndex partition, EventId offset,
    const std::function<DataSelection(const json::Value&)>& selection) const {
  auto event = fetch_wire(topic, partition, offset, selection);
  if (!event) return std::nullopt;
  return decode_event(std::move(*event));
}

Event decode_event(WireEvent event) {
  return Event{std::move(event.topic), event.partition, event.id,
               wire::decode_value(event.metadata), std::move(event.data)};
}

void Broker::commit_offset(const std::string& topic, const std::string& group,
                           PartitionIndex partition, EventId next_offset) {
  metadata_store_.put(group_key(topic, group, partition),
                      std::to_string(next_offset));
  if (wal_) {
    std::string record(1, 'C');
    put_str(record, topic);
    put_str(record, group);
    put_u32(record, partition);
    put_u64(record, next_offset);
    wal_->append(record);
  }
}

EventId Broker::committed_offset(const std::string& topic,
                                 const std::string& group,
                                 PartitionIndex partition) const {
  const auto value = metadata_store_.get(group_key(topic, group, partition));
  if (!value) return 0;
  return static_cast<EventId>(std::stoull(*value));
}

}  // namespace recup::mofka
