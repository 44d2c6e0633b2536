// Live ingestion: a Mofka consumer that tails the WMS provenance topics
// (and, when present, the streamed Darshan topic) and appends completed
// runs into the shared StoreCatalog. Consumption is incremental — `poll`
// drains whatever events the producers have flushed so far — but
// publication is run-granular: `publish` turns everything consumed since
// the last publish into one RunData and appends it under the catalog's
// writer lock, bumping the epoch. Queries racing with a publish observe
// either the old or the new epoch, never a torn run.
//
// `start`/`stop` run the polling pass on a background thread, which is how
// the service tails topics while a workflow is still producing; `publish`
// stays explicit because only the workflow driver knows when a run is
// complete.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/readers.hpp"
#include "chaos/fault.hpp"
#include "common/wal.hpp"
#include "mofka/broker.hpp"
#include "mofka/consumer.hpp"
#include "query/catalog.hpp"

namespace recup::query {

struct IngestStats {
  std::uint64_t events_consumed = 0;
  std::uint64_t runs_published = 0;
  std::uint64_t polls = 0;
};

class LiveIngestor {
 public:
  /// `durable_dir`, when non-empty, receives a small cursor WAL: every
  /// publish records the consumers' positions after their offsets commit,
  /// and a restarted (or crashed) ingestor seeks each partition to
  /// max(broker-committed, recorded) — resuming exactly where ingestion
  /// stopped even if the broker lost the commit.
  LiveIngestor(mofka::Broker& broker, StoreCatalog& catalog,
               std::string consumer_group = "recup_query_ingest",
               std::string durable_dir = "");
  ~LiveIngestor();

  LiveIngestor(const LiveIngestor&) = delete;
  LiveIngestor& operator=(const LiveIngestor&) = delete;

  /// One tailing pass: drains currently available events from every WMS
  /// topic into the pending run. Returns events consumed. Thread-safe.
  std::size_t poll();

  /// Publishes everything consumed since the last publish as one run
  /// stamped with `meta`, after a final poll so late flushes are included.
  /// Each record vector is put in canonical order (by the polled keys), so
  /// transport interleaving never reaches view bytes. Returns the catalog
  /// epoch after the append.
  Epoch publish(dtr::RunMetadata meta);

  /// Background tailing at the given interval until stop(). Idempotent.
  void start(std::chrono::milliseconds interval = std::chrono::milliseconds(5));
  void stop();

  [[nodiscard]] IngestStats stats() const;
  /// Events consumed but not yet published.
  [[nodiscard]] std::size_t pending_events() const;

  /// Chaos hook: poll()/publish() consult chaos::sites::kIngestorProcess;
  /// an injected process crash drops the pending run and restores cursors
  /// from the WAL + broker commits (the restarted process re-tails).
  void set_fault_injector(std::shared_ptr<chaos::FaultInjector> injector) {
    injector_ = std::move(injector);
  }
  [[nodiscard]] std::uint64_t recoveries() const;

 private:
  /// A consumed record beside its canonical sort key: the record's compact
  /// JSON, written once as it is polled by dtr::to_json_text from the
  /// record's field list, byte for byte what dumping its JSON tree gives.
  template <typename Record>
  struct Keyed {
    std::string key;
    Record record;
  };
  /// Everything consumed since the last publish, in arrival order.
  struct PendingRun {
    std::vector<Keyed<dtr::TransitionRecord>> transitions;
    std::vector<Keyed<dtr::TaskRecord>> tasks;
    std::vector<Keyed<dtr::CommRecord>> comms;
    std::vector<Keyed<dtr::WarningRecord>> warnings;
    std::vector<Keyed<dtr::StealRecord>> steals;
  };

  std::size_t poll_locked();
  /// Simulated process crash: volatile pending state dies, cursors restore.
  void crash_restore_locked();
  /// Seeks every consumer partition to max(broker committed, WAL cursor)
  /// and reloads the Darshan cursor from the WAL.
  void restore_cursors_locked();
  void log_cursors_locked();
  [[nodiscard]] std::array<mofka::Consumer*, 5> consumers_locked();

  mofka::Broker& broker_;
  StoreCatalog& catalog_;
  std::string group_;

  mutable std::mutex mutex_;
  mofka::Consumer transitions_;
  mofka::Consumer tasks_;
  mofka::Consumer comms_;
  mofka::Consumer warnings_;
  mofka::Consumer cluster_;
  PendingRun pending_;
  std::size_t pending_count_ = 0;
  /// Darshan topic position per partition as of the last publish. The topic
  /// is read whole at publish by a fresh consumer seeked to
  /// max(broker committed, this), and the position is committed and logged
  /// only after the run is in the catalog, like the WMS cursors.
  std::vector<mofka::EventId> darshan_cursor_;
  IngestStats stats_;
  std::unique_ptr<wal::WalWriter> cursor_wal_;
  std::shared_ptr<chaos::FaultInjector> injector_;
  std::uint64_t recoveries_ = 0;

  std::thread tail_thread_;
  std::mutex tail_mutex_;
  std::condition_variable tail_cv_;
  bool tail_running_ = false;
};

}  // namespace recup::query
