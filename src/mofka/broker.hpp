// Mofka broker: topics, partitions, and their storage.
//
// Event metadata lives in a Yokan KV store (key "t/<topic>/<part>/<offset>"),
// data payloads in a Warabi blob store — the same decomposition the paper
// describes. The broker is fully thread-safe: producers on several threads
// append while consumers pull concurrently.
//
// Metadata stays bytes inside the broker: a frame's events are transcoded to
// canonical self-contained wire bytes as they enter (which also validates
// them), then stored, logged, replayed and served as those bytes, with
// partitions assigned round-robin. A json::Value is built only for a
// consumer's data selector, and by fetch() for callers that want the tree.
//
// Delivery semantics: append_frame acts as the broker-side ack. Producers
// stamp events with per-producer sequence numbers ("_pid"/"_seq" metadata
// fields); the broker tracks them per (topic, partition, producer) and
// absorbs re-sent events, returning the offset of the original append. This
// turns producer retry (at-least-once) into exactly-once storage.
//
// An optional chaos::FaultInjector is consulted on every push; injected
// faults surface as chaos::TransientFault, which callers may retry.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "chaos/fault.hpp"
#include "common/wal.hpp"
#include "json/json.hpp"
#include "mochi/warabi.hpp"
#include "mochi/yokan.hpp"
#include "mofka/event.hpp"
#include "mofka/sequence.hpp"
#include "mofka/wire.hpp"
#include "wire/codec.hpp"

namespace recup::mofka {

class MofkaError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A binary frame referenced dictionary state this broker does not have —
/// typically the producer's session outlived a broker restart that wiped
/// the per-session decoder. Not retryable with the same bytes: the
/// producer must reset its encoder session and re-encode the batch
/// self-contained.
class WireSessionError : public MofkaError {
 public:
  using MofkaError::MofkaError;
};

/// Offset reported for a duplicate whose original offset has been pruned
/// from the (bounded) sequence window.
inline constexpr EventId kUnknownOffset = ~static_cast<EventId>(0);

/// Sequence window retained per (topic, partition, producer) for
/// duplicate-offset resolution; dedup itself is window-free. The producer
/// checks at compile time that its in-flight bound stays below it.
inline constexpr std::size_t kSeqOffsetWindow = 4096;

struct TopicStats {
  std::uint64_t events = 0;
  std::uint64_t batches = 0;
  std::uint64_t bytes_metadata = 0;
  std::uint64_t bytes_data = 0;
  /// Frame bytes received through append_frame. Comparing against the
  /// events' JSON text sizes measures the wire savings of the tagged
  /// encoding plus session interning.
  std::uint64_t bytes_wire = 0;
  /// Re-sent events absorbed by sequence dedup (retries whose original
  /// append succeeded but whose ack was lost).
  std::uint64_t duplicates_absorbed = 0;
};

/// The broker's ack for one batch: per-event offsets in input order.
/// Duplicates get the offset of their original append (or kUnknownOffset if
/// it aged out of the sequence window).
struct AppendResult {
  std::vector<EventId> offsets;
  std::uint64_t duplicates = 0;
};

class Broker {
 public:
  /// With a non-empty `wal_dir` the broker is durable: every topic
  /// creation, accepted append (post-dedup), and consumer-group offset
  /// commit is framed into a WAL there before the ack returns, and any
  /// existing WAL is replayed into the stores before serving (a broker
  /// "rebuilt from disk") with identical offsets, sequence-dedup state and
  /// committed offsets. An empty `wal_dir` keeps everything in memory.
  Broker(mochi::KeyValueStore& metadata_store, mochi::BlobStore& data_store,
         std::string wal_dir = {});

  /// Throws MofkaError for an existing topic, no partition, or a name with
  /// a '/' (see commit_offset).
  void create_topic(const std::string& name, PartitionIndex partitions = 1);
  [[nodiscard]] bool topic_exists(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> topic_names() const;
  [[nodiscard]] PartitionIndex partition_count(const std::string& topic) const;
  [[nodiscard]] TopicStats topic_stats(const std::string& topic) const;

  /// Installs (or clears) the fault injector consulted at the
  /// chaos::sites::kMofkaPush site. Consumers read it back via
  /// fault_injector() so one call wires the whole transport.
  void set_fault_injector(std::shared_ptr<chaos::FaultInjector> injector);
  [[nodiscard]] std::shared_ptr<chaos::FaultInjector> fault_injector() const;

  /// The push path: appends a batch encoded by mofka::encode_event_frame
  /// (from self-contained metadata bytes) under the producer's wire
  /// session to one partition atomically and acks with per-event offsets.
  /// Frames of one session must arrive in encode order (the producer
  /// serializes same-partition flushes); retrying a frame's identical bytes
  /// is safe because dictionary definitions apply idempotently. Decoding
  /// happens before fault injection, so a frame whose ack is lost still
  /// teaches the session dictionary and the retry resolves its refs. Throws
  /// WireSessionError when the frame is malformed or references session
  /// state this broker lacks (restart wiped it) — reset the encoder session
  /// and re-encode, don't retry the same bytes. Events carrying
  /// "_pid"/"_seq" are deduplicated against the per-producer sequence
  /// window. Throws chaos::TransientFault for injected retryable faults
  /// (the batch may or may not have landed — exactly the ambiguity real
  /// producers face; retry and let dedup sort it out).
  AppendResult append_frame(const std::string& topic,
                            PartitionIndex partition, std::uint64_t session,
                            std::string_view frame);

  /// Chooses the partition for a topic's next event: round-robin.
  [[nodiscard]] PartitionIndex select_partition(const std::string& topic);

  /// Number of events currently in a partition.
  [[nodiscard]] EventId partition_size(const std::string& topic,
                                       PartitionIndex partition) const;

  /// Fetches one event as stored; `selection(metadata)` controls data
  /// fetching, and only a set `selection` gets the metadata decoded.
  [[nodiscard]] std::optional<WireEvent> fetch_wire(
      const std::string& topic, PartitionIndex partition, EventId offset,
      const std::function<DataSelection(const json::Value&)>& selection =
          nullptr) const;
  /// fetch_wire with the metadata decoded into a tree.
  [[nodiscard]] std::optional<Event> fetch(
      const std::string& topic, PartitionIndex partition, EventId offset,
      const std::function<DataSelection(const json::Value&)>& selection =
          nullptr) const;

  /// Consumer-group committed offsets, persisted in the metadata store
  /// under "g/<topic>/<group>/<partition>". Both throw MofkaError for a
  /// '/' in the topic or group name, which would let two (topic, group)
  /// pairs share a key.
  void commit_offset(const std::string& topic, const std::string& group,
                     PartitionIndex partition, EventId next_offset);
  [[nodiscard]] EventId committed_offset(const std::string& topic,
                                         const std::string& group,
                                         PartitionIndex partition) const;

  /// Simulates a broker process crash + restart in place: wipes all
  /// in-memory topic state and the broker-owned KV/blob entries, then
  /// replays the WAL. Without durability this is total data loss —
  /// deliberately observable, so lossy configurations fail oracles.
  void crash_and_recover();
  [[nodiscard]] bool durable() const { return wal_ != nullptr; }
  [[nodiscard]] std::uint64_t recoveries() const;
  /// WAL bytes appended so far (0 when not durable).
  [[nodiscard]] std::uint64_t wal_bytes() const;

 private:
  struct ProducerSeqState {
    SequenceTracker tracker;
    std::map<std::uint64_t, EventId> offsets;  // seq -> original offset
  };

  struct Topic {
    PartitionIndex partitions = 0;
    std::vector<EventId> next_offset;          // per partition
    std::vector<std::vector<mochi::RegionId>> data_regions;  // per partition
    /// Per partition: producer id -> sequence state.
    std::vector<std::map<std::uint64_t, ProducerSeqState>> producers;
    PartitionIndex round_robin_next = 0;
    TopicStats stats;
  };

  [[nodiscard]] static std::string meta_key(const std::string& topic,
                                            PartitionIndex partition,
                                            EventId offset);

  /// append_frame after decoding: fault injection, dedup, the WAL record
  /// and the store writes.
  AppendResult append_batch(const std::string& topic,
                            PartitionIndex partition,
                            const std::vector<EventBytes>& events);

  // WAL record appliers (lock held, no re-logging). The WAL holds only
  // post-dedup appends, so replay re-inserts unconditionally and re-seeds
  // the sequence trackers from the "_pid"/"_seq" stamps in the metadata.
  // A record is trusted no further than a live call: replay applies the
  // live paths' checks (partition counts and indexes, one self-contained
  // metadata value per event) and throws MofkaError or wire::WireError.
  void wal_apply(std::string_view record);
  void apply_create_topic(const std::string& name, PartitionIndex partitions);
  void apply_append(const std::string& topic, PartitionIndex partition,
                    const std::vector<std::pair<std::string, std::string>>&
                        events);
  void replay_wal_locked();

  mochi::KeyValueStore& metadata_store_;
  mochi::BlobStore& data_store_;
  std::string wal_dir_;
  std::unique_ptr<wal::WalWriter> wal_;
  mutable std::mutex mutex_;
  std::map<std::string, Topic> topics_;
  /// Per-producer-session stream decoders for append_frame. Guarded by
  /// its own mutex (frames decode before the broker lock is taken);
  /// wiped by crash_and_recover, which is what surfaces WireSessionError
  /// to producers whose sessions outlived the restart.
  std::map<std::uint64_t, wire::StreamDecoder> sessions_;
  mutable std::mutex sessions_mutex_;
  std::shared_ptr<chaos::FaultInjector> injector_;
  std::uint64_t recoveries_ = 0;
};

/// The event with its metadata decoded into a tree.
[[nodiscard]] Event decode_event(WireEvent event);

}  // namespace recup::mofka
