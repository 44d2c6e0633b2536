// Mofka consumer: pull-based subscription with a data selector (paper
// §III-B). Each pull() fetches the next event from the broker on demand;
// nothing is buffered ahead of the application. The same API serves both
// modes the paper relies on: in situ consumption while the workflow runs,
// and bulk post-hoc reads ("the API for consuming events is identical
// whether consumers process events individually in real time or in bulk at
// the completion of a workflow").
//
// Delivery: the broker's fault injector (chaos::sites::kMofkaConsumerPull)
// can hide a partition's next event for a round (drop, partition outage) or
// delay the pull. The consumer reads by offset, so it sees each stored
// event exactly once per consumer instance, in offset order per partition;
// exactly-once *effects* across consumer restarts come from the ingestor's
// idempotent publish.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mofka/broker.hpp"

namespace recup::mofka {

struct ConsumerConfig {
  /// Optional data selector; nullptr fetches full payloads.
  std::function<DataSelection(const json::Value&)> selector;
};

class Consumer {
 public:
  /// Subscribes `group` to `topic`, resuming from the group's committed
  /// offsets. Throws MofkaError for an unknown topic or a group name with a
  /// '/' (Broker::committed_offset).
  Consumer(Broker& broker, std::string topic, std::string group,
           ConsumerConfig config = {});

  /// Pulls the next event in offset order, round-robining across
  /// partitions; returns nullopt when fully drained (or when every
  /// partition's next event is transiently unavailable). The metadata comes
  /// as the broker stores it: self-contained wire bytes that typed readers
  /// (dtr::from_wire) take records from without a tree.
  std::optional<WireEvent> pull_wire();
  /// pull_wire with the metadata decoded into a tree.
  std::optional<Event> pull();

  /// Pulls every remaining event (bulk post-processing mode).
  std::vector<WireEvent> pull_all_wire();
  std::vector<Event> pull_all();

  /// Persists this consumer's position for its group.
  void commit();

  /// Repositions one partition (crash-recovery cursor restore).
  void seek(PartitionIndex partition, EventId offset);
  /// Next offset to be pulled from a partition.
  [[nodiscard]] EventId position(PartitionIndex partition) const {
    return next_offset_.at(partition);
  }
  [[nodiscard]] PartitionIndex partitions() const {
    return static_cast<PartitionIndex>(next_offset_.size());
  }

  /// True when every partition has been pulled up to the broker's current
  /// end. Distinguishes "genuinely drained" from "pull() returned nullopt
  /// because a fault hid the next event".
  [[nodiscard]] bool drained() const;

  [[nodiscard]] std::uint64_t consumed() const { return consumed_; }
  [[nodiscard]] const std::string& topic() const { return topic_; }
  [[nodiscard]] const std::string& group() const { return group_; }

 private:
  Broker& broker_;
  std::string topic_;
  std::string group_;
  ConsumerConfig config_;
  std::vector<EventId> next_offset_;  // per partition
  PartitionIndex rr_ = 0;
  std::uint64_t consumed_ = 0;
};

}  // namespace recup::mofka
