#include "mofka/producer.hpp"

#include <atomic>
#include <thread>

namespace recup::mofka {

namespace {
std::atomic<std::uint64_t> g_next_pid{1};
}  // namespace

std::chrono::microseconds retry_backoff(std::size_t attempt,
                                        std::chrono::microseconds base,
                                        std::chrono::microseconds max) {
  const std::uint64_t shift = attempt < 16 ? attempt : 16;
  const auto backoff = std::chrono::microseconds(base.count() << shift);
  return backoff < max ? backoff : max;
}

Producer::Producer(Broker& broker, std::string topic, ProducerConfig config)
    : broker_(broker),
      topic_(std::move(topic)),
      config_(config),
      pid_(g_next_pid.fetch_add(1, std::memory_order_relaxed)) {
  if (config_.batch_size == 0) {
    throw MofkaError("mofka: producer batch_size must be >= 1");
  }
  const PartitionIndex parts = broker_.partition_count(topic_);
  pending_.resize(parts);
  next_seq_.assign(parts, 0);
  wire_.reserve(parts);
  for (PartitionIndex p = 0; p < parts; ++p) {
    wire_.push_back(std::make_unique<WireSession>());
  }
}

Producer::~Producer() { flush(); }

std::future<EventId> Producer::push(json::Value metadata, std::string data) {
  return push_wire(wire::encode_value(metadata), std::move(data));
}

std::future<EventId> Producer::push_wire(std::string metadata,
                                         std::string data) {
  const PartitionIndex partition = broker_.select_partition(topic_);
  PendingEvent event;
  std::future<EventId> future = event.promise.get_future();

  std::vector<PendingEvent> ready;
  {
    std::lock_guard lock(mutex_);
    // Sequence stamping makes retried appends idempotent at the broker.
    // It also checks the bytes, so a malformed event fails its own push
    // rather than the batch it would have joined.
    if (stamp_metadata(metadata, Stamps{pid_, next_seq_[partition]})) {
      ++next_seq_[partition];
    }
    event.event = {std::move(metadata), std::move(data)};
    ++stats_.pushed;
    ++inflight_;
    auto& queue = pending_[partition];
    queue.push_back(std::move(event));
    if (queue.size() >= config_.batch_size) {
      ready = std::move(queue);
      queue.clear();
      ++stats_.size_triggered_flushes;
      ++flushing_;
    } else if (inflight_ >= kMaxInFlight) {
      // In-flight bound reached: flush this partition synchronously rather
      // than letting the buffer grow without limit.
      ready = std::move(queue);
      queue.clear();
      ++stats_.backpressure_flushes;
      ++flushing_;
    }
  }
  if (!ready.empty()) flush_partition(partition, std::move(ready));
  return future;
}

void Producer::flush() {
  for (PartitionIndex p = 0; p < pending_.size(); ++p) {
    std::vector<PendingEvent> batch;
    {
      std::lock_guard lock(mutex_);
      if (pending_[p].empty()) continue;
      batch = std::move(pending_[p]);
      pending_[p].clear();
      ++flushing_;
    }
    flush_partition(p, std::move(batch));
  }
  // Wait out flushes in flight on other threads (size or backpressure
  // triggers of concurrent pushers): when flush() returns, everything pushed
  // before it has been acked or failed.
  std::unique_lock lock(mutex_);
  flush_done_.wait(lock, [this] { return flushing_ == 0; });
}

void Producer::flush_partition(PartitionIndex partition,
                               std::vector<PendingEvent> batch) {
  std::vector<EventBytes> events;
  events.reserve(batch.size());
  for (auto& e : batch) events.push_back(std::move(e.event));
  // Encode under the partition's wire lock and keep holding it through
  // every retry, so this session's frames reach the broker in encode order
  // and a retry re-sends the identical bytes.
  const std::lock_guard wire_lock(wire_[partition]->mutex);
  std::string frame = encode_event_frame(wire_[partition]->encoder, events);
  const std::uint64_t wire_session =
      (pid_ << 32) ^ static_cast<std::uint64_t>(partition);
  std::size_t attempt = 0;
  for (;;) {
    try {
      const AppendResult ack =
          broker_.append_frame(topic_, partition, wire_session, frame);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].promise.set_value(ack.offsets[i]);
      }
      std::lock_guard lock(mutex_);
      ++stats_.batches_flushed;
      stats_.retries += attempt;
      stats_.duplicates_acked += ack.duplicates;
      break;
    } catch (const WireSessionError&) {
      // A broker restart wiped the decoder session; the frame's refs are
      // meaningless there now. Re-encode self-contained under a fresh
      // encoder (the broker dropped its half when it threw).
      if (attempt >= config_.max_retries) {
        for (auto& e : batch) {
          e.promise.set_exception(std::current_exception());
        }
        std::lock_guard lock(mutex_);
        stats_.retries += attempt;
        stats_.events_failed += batch.size();
        break;
      }
      wire_[partition]->encoder = wire::StreamEncoder();
      frame = encode_event_frame(wire_[partition]->encoder, events);
      ++attempt;
    } catch (const chaos::TransientFault&) {
      if (attempt >= config_.max_retries) {
        for (auto& e : batch) {
          e.promise.set_exception(std::current_exception());
        }
        std::lock_guard lock(mutex_);
        stats_.retries += attempt;
        stats_.events_failed += batch.size();
        break;
      }
      std::this_thread::sleep_for(
          retry_backoff(attempt, kRetryBackoffBase, kRetryBackoffMax));
      ++attempt;
    } catch (...) {
      // Non-transient errors (e.g. the topic is unknown) are not retried:
      // retrying cannot make a rejected batch acceptable.
      for (auto& e : batch) {
        e.promise.set_exception(std::current_exception());
      }
      std::lock_guard lock(mutex_);
      stats_.retries += attempt;
      stats_.events_failed += batch.size();
      break;
    }
  }
  std::lock_guard lock(mutex_);
  inflight_ -= batch.size();
  flushing_ -= 1;
  flush_done_.notify_all();
}

ProducerStats Producer::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace recup::mofka
