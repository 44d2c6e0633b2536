// Unified durability configuration — one knob tree for every component
// that writes durable state.
//
// Before this header each durable component grew its own config struct with
// its own copy of the same knobs (a directory, WAL rotation, a sync
// policy): mofka::BrokerDurability, dtr::SchedulerDurability, the
// LiveIngestor cursor-WAL directory, and segstore::SegmentStoreConfig.
// Wiring a durable cluster meant touching four shapes that disagreed on
// field names and defaults. DurabilityConfig collapses them: one root
// directory, one nested section per component, and per-component overrides
// for anything that legitimately differs. The legacy structs survive as the
// component-facing views — each gains a `from(const DurabilityConfig&)`
// factory in its own header — so component code keeps its narrow interface
// while callers configure one object.
//
// Layout convention: a component lives in `<dir>/<component name>` unless
// its section sets an explicit `dir` override. An empty root with no
// override disables durability for that component (everything in-memory),
// matching the long-standing "empty dir => no WAL" convention.
//
// JSON shape (durability_from_json / to_json):
//
//   {
//     "dir": "/runs/demo",
//     "broker":    {"wal": {"segment_bytes": 4194304, "sync": "on_append"}},
//     "scheduler": {"checkpoint_every": 64, "compact_on_checkpoint": true},
//     "ingest":    {"dir": "/fast-ssd/cursors"},
//     "segstore":  {"compact_min_segments": 4, "mmap_reads": true}
//   }
#pragma once

#include <cstdint>
#include <string>

#include "common/wal.hpp"
#include "json/json.hpp"

namespace recup {

struct DurabilityConfig {
  /// Root directory for all durable state; empty => fully in-memory unless
  /// a component overrides its own dir.
  std::string dir;

  /// Knobs every component shares.
  struct Component {
    /// Explicit directory; empty => `<root dir>/<component name>`.
    std::string dir;
    wal::WalOptions wal;
  };

  struct Broker : Component {};

  struct Scheduler : Component {
    /// Also checkpoint every N journal records (0 = only at graph
    /// completions).
    std::size_t checkpoint_every = 0;
    /// Prefix-compact the journal after each durable checkpoint.
    bool compact_on_checkpoint = false;
  };

  /// LiveIngestor consumer-cursor WAL.
  struct Ingest : Component {};

  struct Segstore : Component {
    /// Compaction trigger: a view is merged when it holds at least this
    /// many segments smaller than `compact_max_bytes`. <= 1 disables.
    std::size_t compact_min_segments = 4;
    std::uint64_t compact_max_bytes = 64ULL << 20;
    /// CRC-checked footer scan of every referenced segment at open.
    bool verify_on_open = true;
    bool mmap_reads = true;
  };

  Broker broker;
  Scheduler scheduler;
  Ingest ingest;
  Segstore segstore;

  [[nodiscard]] bool enabled() const { return !dir.empty(); }

  /// Effective directory for one component: its override, else
  /// `<dir>/<name>`, else empty (component disabled).
  [[nodiscard]] std::string component_dir(const Component& component,
                                          const char* name) const;
  [[nodiscard]] std::string broker_dir() const;
  [[nodiscard]] std::string scheduler_dir() const;
  [[nodiscard]] std::string ingest_dir() const;
  [[nodiscard]] std::string segstore_dir() const;
};

/// Parses the nested JSON shape above. Unknown keys are ignored.
[[nodiscard]] DurabilityConfig durability_from_json(const json::Value& v);

/// Serializes the nested shape; inverse of durability_from_json.
[[nodiscard]] json::Value to_json(const DurabilityConfig& config);

}  // namespace recup
