// StoreCatalog: the shared, live-updating run store behind the query
// service, with two interchangeable backends:
//
//   - *memory* (default): runs live in a map of their raw records and view
//     frames materialize lazily from them — the right tool for tests and
//     short-lived sessions;
//   - *segment* (durable): every published run is flushed through a
//     recup::segstore::SegmentStore as immutable columnar segments, view
//     frames decode from (mmap'ed) segment files, and a cold start
//     recovers the whole catalog from the manifest instead of
//     re-ingesting Mofka topics. A directory is served by the process
//     that writes it; read-only opens are for static inspection.
//
// Reads go through an epoch-pinned Snapshot handle: catalog.snapshot()
// captures an immutable version (copy-on-write run list in memory mode, a
// pinned ManifestVersion in segment mode) and never holds a lock, so
// writers — LiveIngestor publishing, the background compactor merging
// segments — proceed while readers see a frozen store. Result-cache keys
// derive from the snapshot (see ResultCache), which is what makes a cached
// result provably consistent with the store state it was computed at.
//
// Runs are immutable once ingested, so a materialized (view, run) frame
// never invalidates; the snapshot only governs which runs are visible, and
// compaction — which rewrites files, not logical content — invalidates
// nothing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dataframe.hpp"
#include "dtr/recorder.hpp"
#include "prov/store.hpp"
#include "segstore/store.hpp"

namespace recup::query {

using Epoch = std::uint64_t;

enum class ViewId {
  kTasks,
  kTransitions,
  kIoSegments,
  kComms,
  kWarnings,
  kSteals,
  kTaskIo,
};

/// All registered view names, in ViewId order.
const std::vector<std::string>& view_names();
/// Resolves a view name; throws QueryError listing the registered views.
ViewId view_from_name(const std::string& name);
const std::string& view_name(ViewId view);

/// A zero-row frame carrying the view's full schema (including the
/// `workflow` / `run` identifier columns) — plan-time column validation and
/// the result shape when pushdown prunes every run.
analysis::DataFrame empty_view_frame(ViewId view);

class StoreCatalog {
 public:
  /// Memory backend.
  StoreCatalog();
  /// Segment (durable) backend over `config.dir`. Writer mode recovers the
  /// committed state from the manifest (cold start); config.read_only opens
  /// a static snapshot of the directory for inspection.
  explicit StoreCatalog(segstore::SegmentStoreConfig config);
  StoreCatalog(const StoreCatalog&) = delete;
  StoreCatalog& operator=(const StoreCatalog&) = delete;

  /// Writer side: appends a run and bumps the epoch. Idempotent on the run
  /// id: re-publishing an already-stored (workflow, run_index) is ignored —
  /// no epoch bump — and returns false, which is what makes crash-recovery
  /// re-publication exactly-once. Segment backend: the run's view frames
  /// are materialized and flushed through the SegmentStore (its manifest
  /// commit is the durability point); the raw records are not retained.
  bool add_run(dtr::RunData run);

  /// An immutable, epoch-pinned read view of the catalog. Creating one
  /// never blocks writers and holding one never blocks anything: the
  /// snapshot pins a version object (and, in segment mode, the segment
  /// files it references) for its lifetime. Copyable; copies pin the same
  /// version.
  class Snapshot {
   public:
    /// The store state this snapshot observes (0 = empty store). Two
    /// snapshots with equal epochs over one catalog see identical data —
    /// the property result-cache keys are built on.
    [[nodiscard]] Epoch epoch() const { return epoch_; }

    /// Stable cache-key component: results computed under snapshots with
    /// equal keys are interchangeable.
    [[nodiscard]] std::string cache_key() const {
      return std::to_string(epoch_);
    }

    /// Run ids visible in this snapshot, ordered by (workflow, run_index),
    /// optionally pruned to one workflow and/or one run index (the
    /// planner's pushdown path).
    [[nodiscard]] std::vector<prov::RunId> runs(
        const std::optional<std::string>& workflow,
        const std::optional<std::int64_t>& run_index) const;

    /// The view frame of one run (memoized across snapshots; runs are
    /// immutable so entries never invalidate).
    [[nodiscard]] std::shared_ptr<const analysis::DataFrame> frame(
        ViewId view, const prov::RunId& id) const;

    /// Record count of a view in one run without materializing the frame
    /// (planner cost notes; manifest metadata in segment mode).
    [[nodiscard]] std::size_t estimated_rows(ViewId view,
                                             const prov::RunId& id) const;

    /// Per-column zone maps of (view, run) from the segment manifest, or
    /// nullptr when unavailable (memory backend). The planner prunes runs
    /// whose zone maps prove a residual predicate can never match, before
    /// any segment byte is decoded. Valid for this snapshot's lifetime.
    [[nodiscard]] const segstore::ChunkMeta* stats(
        ViewId view, const prov::RunId& id) const;

   private:
    friend class StoreCatalog;
    Snapshot() = default;

    const StoreCatalog* catalog_ = nullptr;
    Epoch epoch_ = 0;
    /// Memory backend: the pinned run list.
    std::shared_ptr<const std::vector<prov::RunId>> mem_runs_;
    /// Segment backend: the pinned manifest version.
    std::shared_ptr<const segstore::ManifestVersion> seg_;
  };

  [[nodiscard]] Snapshot snapshot() const;

  // --- Segment-backend maintenance (no-ops / errors in memory mode) --------
  /// One compaction pass over the segment store (see SegmentStore).
  std::size_t compact();
  /// The underlying segment store (fsck, chaos wiring, GC) — nullptr for
  /// the memory backend.
  [[nodiscard]] segstore::SegmentStore* segment_store() {
    return segstore_.get();
  }

 private:
  struct FrameKey {
    ViewId view;
    prov::RunId id;
    auto operator<=>(const FrameKey&) const = default;
  };

  [[nodiscard]] std::shared_ptr<const analysis::DataFrame> memo_get(
      const FrameKey& key) const;
  std::shared_ptr<const analysis::DataFrame> memo_put(
      const FrameKey& key,
      std::shared_ptr<const analysis::DataFrame> frame) const;

  // --- Memory backend ------------------------------------------------------
  std::map<prov::RunId, dtr::RunData> store_;
  mutable std::mutex store_mutex_;  ///< guards store_ map ops + version swap
  /// Copy-on-write visible-run list; snapshot() pins the current one.
  std::shared_ptr<const std::vector<prov::RunId>> mem_runs_;
  Epoch mem_epoch_ = 0;

  // --- Segment backend -----------------------------------------------------
  std::unique_ptr<segstore::SegmentStore> segstore_;

  // Memoized per-(view, run) frames, shared by all snapshots. Guarded by
  // its own mutex because concurrent readers insert into it.
  mutable std::mutex frames_mutex_;
  mutable std::map<FrameKey, std::shared_ptr<const analysis::DataFrame>>
      frames_;
};

}  // namespace recup::query
