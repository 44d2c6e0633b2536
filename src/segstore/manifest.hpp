// Manifest of the segment store: the WAL-backed commit log that makes a set
// of immutable segment files into a consistent, versioned catalog.
//
// Commit protocol (writer side, executed by SegmentStore):
//   1. write segment file(s) to the store directory, fsync each;
//   2. append ONE manifest record describing all of them, sync the WAL;
//   3. install a new immutable ManifestVersion in memory.
// A crash before (2) leaves orphan files the next open garbage-collects; a
// crash after (2) replays the record and finds the files present — the
// manifest record is the commit point. Records:
//   {"kind":"add",     "workflow":w, "run_index":n, "segments":[...]}
//   {"kind":"compact", "view":v, "replaces":[file...], "segment":{...}}
// encoded with wire::encode_value; a record that is not wire bytes is an
// error.
//
// Readers never lock against writers: ManifestVersion is immutable and held
// by shared_ptr; a query pins the version it started with while commits
// install successors. The manifest keeps a weak registry of handed-out
// versions so garbage collection can tell which replaced/orphaned files are
// still pinned by live readers.
//
// Read-only mode (static inspection) replays the same WAL once without
// opening a writer — WalWriter::replay never mutates the log.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/wal.hpp"
#include "json/json.hpp"
#include "segstore/segment.hpp"

namespace recup::segstore {

/// One immutable view of the committed store. `run_order` is the ordered
/// run index (commit order); `views` maps each view name to its segments in
/// first-committed order, compacted segments splicing in at the position of
/// their first input.
struct ManifestVersion {
  std::uint64_t committed_runs = 0;  ///< == run_order.size(); the epoch
  std::vector<RunKey> run_order;
  std::map<std::string, std::vector<std::shared_ptr<const SegmentInfo>>> views;

  struct Location {
    const SegmentInfo* segment = nullptr;
    const ChunkMeta* chunk = nullptr;
  };
  /// Where (view, run)'s rows live, or nullopt when the run/view is absent.
  [[nodiscard]] std::optional<Location> locate(const std::string& view,
                                               const RunKey& run) const;
  [[nodiscard]] bool has_run(const RunKey& run) const;
  /// Every segment file this version references (relative paths).
  [[nodiscard]] std::set<std::string> files() const;
};

json::Value segment_info_to_json(const SegmentInfo& info);
SegmentInfo segment_info_from_json(const json::Value& v);

class Manifest {
 public:
  /// Opens the manifest WAL under `dir` (created if absent) and replays it.
  /// In read-only mode no WalWriter is constructed — the log is replayed
  /// in place and commits throw.
  Manifest(std::string dir, bool read_only);

  /// The latest committed version. The returned handle pins it: files it
  /// references survive garbage collection until the handle drops.
  [[nodiscard]] std::shared_ptr<const ManifestVersion> current() const;

  /// Commits one run's segments (one per view). Idempotent: returns false
  /// without writing when the run is already committed (flush retry after
  /// a crash that landed past the commit point).
  bool commit_add(const RunKey& run, std::vector<SegmentInfo> segments);

  /// Commits a compaction: `merged` replaces `replaces` (relative file
  /// names) in `view`'s segment list, splicing in at the first input's
  /// position. Throws SegstoreError if any input is not currently live.
  void commit_compact(const std::string& view,
                      const std::vector<std::string>& replaces,
                      SegmentInfo merged);

  /// Files referenced by the current version OR any still-pinned older
  /// version. Garbage collection must keep all of these.
  [[nodiscard]] std::set<std::string> pinned_files() const;

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] bool read_only() const { return writer_ == nullptr; }
  [[nodiscard]] std::uint64_t records() const;

 private:
  /// Applies one record to `state` (replay and commit share this).
  static void apply(ManifestVersion& state, const json::Value& record);
  void install_locked(ManifestVersion next);
  [[nodiscard]] ManifestVersion replay_locked() const;

  std::string dir_;
  std::unique_ptr<wal::WalWriter> writer_;
  mutable std::mutex mutex_;
  std::shared_ptr<const ManifestVersion> current_;
  /// Weak registry of every version handed out; expired entries are pruned
  /// on install. pinned_files() walks the live ones.
  mutable std::vector<std::weak_ptr<const ManifestVersion>> live_;
  std::uint64_t records_ = 0;
};

}  // namespace recup::segstore
