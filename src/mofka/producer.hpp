// Mofka producer: nonblocking push with batching (paper §III-B: "optimizes
// transfers using a nonblocking API, background network and processing
// threads, batching strategies").
//
// push() buffers the event and returns a future resolved with the event's
// partition offset once its batch commits. Metadata is kept as
// self-contained wire bytes from push to frame: push_wire takes them as a
// typed writer produced them (dtr::to_wire), and push(json::Value) encodes
// the tree once and takes the same path. A partition's batch flushes on the
// pushing thread when it reaches `batch_size` events, when the in-flight
// bound forces it, on flush() and in the destructor. There is no
// wall-clock flusher: the runtime runs on a virtual clock, and a timer
// thread would make what a run captures depend on host scheduling.
//
// Delivery: every pushed object is stamped with this producer's id and a
// per-partition sequence number ("_pid"/"_seq", written into its bytes at
// their key-order positions); retryable append failures
// (chaos::TransientFault) are retried with exponential backoff up to
// `max_retries`, and the broker's sequence dedup makes the retries
// idempotent. The in-flight buffer (buffered + unacked events) is bounded
// by kMaxInFlight: reaching it forces a synchronous flush on the pushing
// thread. flush() is a barrier: when it returns, every previously pushed
// event has been acked or failed — including batches that other threads
// were flushing when flush() was called.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mofka/broker.hpp"

namespace recup::mofka {

struct ProducerConfig {
  std::size_t batch_size = 64;
  /// Retries per batch on chaos::TransientFault; 0 disables retrying
  /// (at-most-once — a deliberately lossy mode for testing the oracle).
  std::size_t max_retries = 8;
};

/// Bound on buffered + unacked events before push() forces a flush.
inline constexpr std::size_t kMaxInFlight = 1024;
static_assert(kSeqOffsetWindow > kMaxInFlight,
              "a retried event's original offset must still be in the "
              "broker's window, or its ack reads kUnknownOffset");
/// Clamped-exponential backoff between a batch's append retries.
inline constexpr std::chrono::microseconds kRetryBackoffBase{50};
inline constexpr std::chrono::microseconds kRetryBackoffMax{2000};

/// Backoff before retry `attempt` (0-based): min(base * 2^attempt, max).
/// Reused outside the producer (e.g. the query client) so every transient
/// retry in the system shares one clamped-exponential policy.
std::chrono::microseconds retry_backoff(std::size_t attempt,
                                        std::chrono::microseconds base,
                                        std::chrono::microseconds max);

struct ProducerStats {
  std::uint64_t pushed = 0;
  std::uint64_t batches_flushed = 0;
  std::uint64_t size_triggered_flushes = 0;
  /// Flushes forced by the kMaxInFlight bound.
  std::uint64_t backpressure_flushes = 0;
  /// Batch append retries after transient faults.
  std::uint64_t retries = 0;
  /// Events whose retried append was absorbed by broker dedup (ack lost).
  std::uint64_t duplicates_acked = 0;
  /// Events failed permanently (retry budget exhausted or fatal error).
  std::uint64_t events_failed = 0;
};

class Producer {
 public:
  Producer(Broker& broker, std::string topic, ProducerConfig config = {});
  /// Flushes every buffered event.
  ~Producer();

  Producer(const Producer&) = delete;
  Producer& operator=(const Producer&) = delete;

  /// Buffers an event; nonblocking except for the internal lock, unless a
  /// full batch or the in-flight bound makes this call flush.
  std::future<EventId> push(json::Value metadata, std::string data = {});
  /// push() for metadata already in self-contained wire bytes
  /// (wire::encode_value's format). Throws wire::WireError unless they hold
  /// exactly one value.
  std::future<EventId> push_wire(std::string metadata, std::string data = {});

  /// Flushes all pending batches and waits for flushes in flight on other
  /// threads: a full delivery barrier.
  void flush();

  [[nodiscard]] ProducerStats stats() const;
  [[nodiscard]] const std::string& topic() const { return topic_; }
  /// Process-unique producer id stamped into event metadata as "_pid".
  [[nodiscard]] std::uint64_t producer_id() const { return pid_; }

 private:
  struct PendingEvent {
    EventBytes event;  ///< stamped metadata bytes, data
    std::promise<EventId> promise;
  };

  /// One wire session per partition: batches travel as frames
  /// (Broker::append_frame) from one interning encoder. The mutex is held
  /// across encode + every retry of a frame, so the session's frames reach
  /// the broker in encode order (a codec requirement) and a retry re-sends
  /// the identical bytes (which the broker decodes idempotently).
  struct WireSession {
    std::mutex mutex;
    wire::StreamEncoder encoder;
  };

  /// Flushes one partition's pending events. Caller must NOT hold the lock
  /// and must have incremented flushing_ when extracting the batch.
  void flush_partition(PartitionIndex partition,
                       std::vector<PendingEvent> batch);

  Broker& broker_;
  std::string topic_;
  ProducerConfig config_;
  std::uint64_t pid_;
  mutable std::mutex mutex_;
  std::condition_variable flush_done_;
  std::vector<std::vector<PendingEvent>> pending_;  // per partition
  std::vector<std::uint64_t> next_seq_;             // per partition
  std::vector<std::unique_ptr<WireSession>> wire_;  // per partition
  std::size_t inflight_ = 0;   ///< buffered + unacked events
  std::size_t flushing_ = 0;   ///< batches currently being appended
  ProducerStats stats_;
};

}  // namespace recup::mofka
