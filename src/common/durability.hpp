// Unified durability configuration: one root directory for every component
// that writes durable state.
//
// Layout convention: each component lives in `<dir>/<component name>` —
// the Mofka broker WAL in `broker/`, the scheduler journal and
// `checkpoint.bin` in `scheduler/`, the LiveIngestor cursor WAL in
// `ingest/`, the segment store in `segstore/`. An empty root disables
// durability (everything in-memory). The directory is the only setting:
// every component's log runs the one WAL mode (buffered appends, 4 MiB
// segments, never truncated). Each component projects its slice through a
// `from(const DurabilityConfig&)` factory or one of the `*_dir()` accessors
// below.
#pragma once

#include <string>

namespace recup {

struct DurabilityConfig {
  /// Root directory for all durable state; empty => fully in-memory.
  std::string dir;

  /// `<dir>/<component name>`, or empty when `dir` is empty (component
  /// in-memory).
  [[nodiscard]] std::string broker_dir() const;
  [[nodiscard]] std::string scheduler_dir() const;
  [[nodiscard]] std::string ingest_dir() const;
  [[nodiscard]] std::string segstore_dir() const;
};

}  // namespace recup
