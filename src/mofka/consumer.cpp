#include "mofka/consumer.hpp"

namespace recup::mofka {

Consumer::Consumer(Broker& broker, std::string topic, std::string group,
                   ConsumerConfig config)
    : broker_(broker),
      topic_(std::move(topic)),
      group_(std::move(group)),
      config_(std::move(config)) {
  const PartitionIndex parts = broker_.partition_count(topic_);
  next_offset_.resize(parts);
  for (PartitionIndex p = 0; p < parts; ++p) {
    next_offset_[p] = broker_.committed_offset(topic_, group_, p);
  }
}

std::optional<WireEvent> Consumer::pull_wire() {
  const auto parts = static_cast<PartitionIndex>(next_offset_.size());
  const auto injector = broker_.fault_injector();
  for (PartitionIndex i = 0; i < parts; ++i) {
    const PartitionIndex p =
        static_cast<PartitionIndex>((rr_ + i) % parts);

    chaos::FaultDecision fault;
    if (injector) {
      fault = injector->decide(chaos::sites::kMofkaConsumerPull, p);
    }
    if (fault.action == chaos::FaultAction::kDelay) {
      std::this_thread::sleep_for(fault.delay);
    }
    if (fault.action == chaos::FaultAction::kDrop ||
        fault.action == chaos::FaultAction::kPartitionUnavailable) {
      // The partition's next event is transiently invisible; a later pull
      // retries it. Callers that need a full drain loop until drained().
      continue;
    }

    auto event =
        broker_.fetch_wire(topic_, p, next_offset_[p], config_.selector);
    if (event) {
      ++next_offset_[p];
      rr_ = static_cast<PartitionIndex>((p + 1) % parts);
      ++consumed_;
      return event;
    }
  }
  return std::nullopt;
}

std::optional<Event> Consumer::pull() {
  auto event = pull_wire();
  if (!event) return std::nullopt;
  return decode_event(std::move(*event));
}

std::vector<WireEvent> Consumer::pull_all_wire() {
  std::vector<WireEvent> out;
  for (;;) {
    if (auto event = pull_wire()) {
      out.push_back(std::move(*event));
      continue;
    }
    // pull() can return nullopt while events remain (injected drop /
    // partition outage); only stop once every partition is truly drained.
    if (drained()) break;
  }
  return out;
}

std::vector<Event> Consumer::pull_all() {
  std::vector<Event> out;
  for (WireEvent& event : pull_all_wire()) {
    out.push_back(decode_event(std::move(event)));
  }
  return out;
}

bool Consumer::drained() const {
  for (PartitionIndex p = 0; p < next_offset_.size(); ++p) {
    if (next_offset_[p] < broker_.partition_size(topic_, p)) return false;
  }
  return true;
}

void Consumer::seek(PartitionIndex partition, EventId offset) {
  next_offset_.at(partition) = offset;
}

void Consumer::commit() {
  for (PartitionIndex p = 0; p < next_offset_.size(); ++p) {
    broker_.commit_offset(topic_, group_, p, next_offset_[p]);
  }
}

}  // namespace recup::mofka
