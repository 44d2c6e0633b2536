// SegmentStore — the durable columnar segment store under the query tier's
// StoreCatalog (ROADMAP: "Persistent, sharded provenance store behind the
// query tier").
//
// A store directory holds immutable segment files ("seg-<seq>-<view>.rsg",
// see segment.hpp for the format) plus a manifest WAL subdirectory
// ("manifest/") whose records are the commit points (see manifest.hpp).
// Writers flush one published run at a time — one segment per view, one
// manifest record for the lot — and a compactor merges small segments per
// view without changing logical content. Readers pin a ManifestVersion and
// decode chunks out of mmap'ed segment files; versions are immutable, so
// reads never lock against flushes or compactions.
//
// Crash safety: segment files are fsynced before their manifest record is
// appended+fsynced, so the record is the commit point. A crash before the
// record leaves orphan files; opening a writer garbage-collects any *.rsg
// file no manifest record references. The chaos sites segstore.flush /
// segstore.compact simulate exactly these crashes in-process (see
// fault.hpp); a simulated crash keeps durable state intact by construction
// because the in-memory manifest is only updated after the WAL sync.
//
// A directory is served by the one process that writes it. A read-only
// open (config.read_only, for `recup_segstore ls` / `fsck`) replays the
// manifest WAL in place without mutating it: no orphan GC, commits throw,
// and its version is the static snapshot taken at open.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "chaos/fault.hpp"
#include "common/durability.hpp"
#include "segstore/manifest.hpp"

namespace recup::segstore {

/// Reads go through mmap, falling back to buffered reads when mmap fails
/// (e.g. on filesystems without support). The manifest WAL's commits
/// always fsync.
struct SegmentStoreConfig {
  std::string dir;
  /// Verify every referenced segment's footer CRC at open (the cold-start
  /// "CRC-checked footer scan"). Corruption throws SegstoreError.
  bool verify_on_open = true;
  bool read_only = false;

  /// The segment store's slice of the unified durability config
  /// (common/durability.hpp): `<dir>/segstore` with the defaults above.
  [[nodiscard]] static SegmentStoreConfig from(const DurabilityConfig& d) {
    SegmentStoreConfig c;
    c.dir = d.segstore_dir();
    return c;
  }
};

/// A memory-mapped (or heap-loaded) immutable segment file.
class MappedSegment {
 public:
  ~MappedSegment();
  MappedSegment(const MappedSegment&) = delete;
  MappedSegment& operator=(const MappedSegment&) = delete;

  [[nodiscard]] std::string_view bytes() const {
    return {data_, size_};
  }
  [[nodiscard]] bool mmapped() const { return mmapped_; }

 private:
  friend class SegmentStore;
  MappedSegment() = default;
  const char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mmapped_ = false;
  std::string heap_;  ///< backing storage for the read fallback
};

class SegmentStore {
 public:
  explicit SegmentStore(SegmentStoreConfig config);

  /// Chaos hook for the segstore.flush / segstore.compact sites. Not owned.
  void set_fault_injector(chaos::FaultInjector* injector) {
    injector_ = injector;
  }

  /// The latest committed version; the handle pins every file it
  /// references against garbage collection.
  [[nodiscard]] std::shared_ptr<const ManifestVersion> version() const {
    return manifest_->current();
  }

  /// Flushes one run as one segment per view (frames must outlive the
  /// call). Idempotent: returns false when the run is already committed.
  /// Injected crash faults are absorbed by an internal restore-and-retry
  /// loop; injected transient faults retry bounded times then rethrow.
  bool flush_run(
      const RunKey& run,
      const std::vector<std::pair<std::string, const analysis::DataFrame*>>&
          views);

  /// One compaction pass: per view holding at least 4 segments smaller than
  /// 64 MiB, merges those into one (larger ones are left alone). Returns
  /// the number of merge commits performed.
  std::size_t compact();

  /// Decodes (view, run) from the pinned `version`. Returns nullptr when
  /// the version holds no such chunk.
  [[nodiscard]] std::shared_ptr<const analysis::DataFrame> read_frame(
      const ManifestVersion& version, const std::string& view,
      const RunKey& run) const;

  /// Deletes segment files referenced by no committed manifest version and
  /// pinned by no live version handle. Returns files deleted. Writer only.
  std::size_t collect_garbage();

  struct FsckReport {
    std::size_t segments_checked = 0;
    std::size_t chunks_checked = 0;
    std::uint64_t rows_checked = 0;
    std::vector<std::string> errors;
    [[nodiscard]] bool ok() const { return errors.empty(); }
  };
  /// Full-store verification: every referenced segment is CRC-scanned and
  /// decoded, and the manifest's chunk offsets / row counts / zone maps are
  /// cross-checked against recomputed values from the decoded data.
  [[nodiscard]] FsckReport fsck() const;

  [[nodiscard]] const SegmentStoreConfig& config() const { return config_; }
  /// Simulated crash-restarts absorbed so far (chaos sites).
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }
  [[nodiscard]] std::uint64_t segments_written() const {
    return segments_written_;
  }

 private:
  [[nodiscard]] std::string segment_path(const std::string& file) const;
  /// Writes `bytes` to a fresh segment file and fsyncs it (file + dir).
  void write_segment_file(const std::string& file, std::string_view bytes);
  [[nodiscard]] std::shared_ptr<const MappedSegment> map_segment(
      const std::string& file) const;
  /// Next "seg-%06u-<view>.rsg" name; seq survives restarts via a dir scan.
  [[nodiscard]] std::string next_file_locked(const std::string& view);
  /// Simulated process crash: drop in-flight state, GC orphans, count it.
  void crash_restore();
  std::size_t collect_garbage_locked();
  /// Consults the chaos injector; throws TransientFault / performs
  /// crash_restore per the decision. Returns true when a crash fired.
  bool chaos_point(const char* site);

  SegmentStoreConfig config_;
  std::unique_ptr<Manifest> manifest_;
  chaos::FaultInjector* injector_ = nullptr;

  /// Serializes flush / compact / GC against each other: garbage
  /// collection must never see another writer's written-but-uncommitted
  /// segment files. Readers never take this.
  std::mutex writer_mutex_;
  mutable std::mutex mutex_;  ///< guards seq_ and the map cache
  std::uint64_t seq_ = 0;
  /// Immutable files ⇒ cache by name; entries drop when GC unlinks.
  mutable std::map<std::string, std::shared_ptr<const MappedSegment>> maps_;

  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> segments_written_{0};
};

}  // namespace recup::segstore
