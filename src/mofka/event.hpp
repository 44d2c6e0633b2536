// Mofka event model (paper §III-B): each event has a raw data payload and a
// JSON metadata part describing it. Events are appended to partitions of a
// topic and identified by their partition-local offset.
#pragma once

#include <cstdint>
#include <string>

#include "json/json.hpp"

namespace recup::mofka {

using EventId = std::uint64_t;
using PartitionIndex = std::uint32_t;

struct Event {
  std::string topic;
  PartitionIndex partition = 0;
  EventId id = 0;  ///< offset within the partition
  json::Value metadata;
  std::string data;
};

/// An event as the broker stores it: the metadata as self-contained wire
/// bytes (wire::decode_value gives Event::metadata's tree). Typed readers
/// take records straight from these bytes.
struct WireEvent {
  std::string topic;
  PartitionIndex partition = 0;
  EventId id = 0;  ///< offset within the partition
  std::string metadata;
  std::string data;
};

/// Chooses which byte range (if any) of an event's data a consumer fetches,
/// based on the metadata — Mofka's "data selector". Returning {0,0} skips
/// the data payload entirely.
struct DataSelection {
  std::uint64_t offset = 0;
  std::uint64_t length = UINT64_MAX;  ///< UINT64_MAX = whole payload
  bool fetch = true;
};

}  // namespace recup::mofka
