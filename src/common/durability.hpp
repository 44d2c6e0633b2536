// Unified durability configuration: one root directory for every component
// that writes durable state.
//
// Layout convention: each component lives in `<dir>/<component name>` —
// the Mofka broker WAL in `broker/`, the scheduler journal and
// `checkpoint.bin` in `scheduler/`, the LiveIngestor cursor WAL in
// `ingest/`, the segment store in `segstore/`. An empty root disables
// durability (everything in-memory). Only the scheduler has knobs of its
// own (journal rotation, checkpoint cadence, compaction); the broker,
// ingest and segstore logs run on their defaults. Each component projects
// its slice through a `from(const DurabilityConfig&)` factory or one of
// the `*_dir()` accessors below.
#pragma once

#include <cstddef>
#include <string>

#include "common/wal.hpp"

namespace recup {

struct DurabilityConfig {
  /// Root directory for all durable state; empty => fully in-memory.
  std::string dir;

  /// The scheduler journal's knobs (dtr::SchedulerDurability::from).
  struct Scheduler {
    wal::WalOptions wal;
    /// Also checkpoint every N journal records (0 = only at graph
    /// completions).
    std::size_t checkpoint_every = 0;
    /// Prefix-compact the journal after each durable checkpoint.
    bool compact_on_checkpoint = false;
  };
  Scheduler scheduler;

  /// `<dir>/<component name>`, or empty when `dir` is empty (component
  /// in-memory).
  [[nodiscard]] std::string broker_dir() const;
  [[nodiscard]] std::string scheduler_dir() const;
  [[nodiscard]] std::string ingest_dir() const;
  [[nodiscard]] std::string segstore_dir() const;
};

}  // namespace recup
