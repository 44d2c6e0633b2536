// Segmented write-ahead log: the durability primitive under the Mofka
// broker, the scheduler checkpoint/journal, and the ingestor cursors.
//
// Records are opaque byte strings framed as [u32 length][u32 crc32][payload]
// and appended to numbered segment files ("wal-00000000.seg", ...) that
// rotate at `segment_bytes`. Recovery replays every record in append order;
// a torn record at the tail of the *last* segment (the signature of a crash
// mid-append) is truncated away, while corruption anywhere else throws —
// silent loss in the middle of the log would be a storage fault, not a
// crash artifact.
//
// The writer is thread-safe (one internal mutex serializes appends) and
// resumable: constructing a WalWriter over a directory with existing
// segments first repairs any torn tail, then continues appending after the
// last valid record.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>

namespace recup::wal {

class WalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE, reflected) over `size` bytes, chainable via `seed`.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0);

/// fsyncs a file or a directory by path (best effort: open or fsync
/// failures are ignored). A directory fsync makes renames and unlinks in it
/// durable.
void fsync_path(const std::string& path);

enum class SyncPolicy {
  kNone,      ///< rely on OS writeback (fastest; loses the tail on power cut)
  /// Every append is fsync-durable before it returns — but concurrent
  /// appenders group-commit: one leader fsyncs for every record written
  /// ahead of it and followers just wait for coverage, so a burst of N
  /// concurrent appends costs far fewer than N fsyncs with the same
  /// guarantee.
  kOnAppend,
};

struct WalOptions {
  std::uint64_t segment_bytes = 4ULL << 20;  ///< rotation threshold
  SyncPolicy sync = SyncPolicy::kNone;
};

struct ReplayStats {
  std::uint64_t records = 0;
  std::uint64_t segments = 0;
  std::uint64_t bytes = 0;  ///< payload bytes delivered
  /// Records removed by prefix compaction before the first replayed one
  /// (from the "wal-compacted" marker): the first replayed record's index
  /// in the *full* log, so compacted_records + records = total appended.
  std::uint64_t compacted_records = 0;
  /// True when a torn record was truncated from the last segment.
  bool truncated_tail = false;
};

class WalWriter {
 public:
  /// Opens (creating directories as needed) the log under `dir`, repairing
  /// a torn tail and positioning after the last valid record.
  explicit WalWriter(std::string dir, WalOptions options = {});
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record; durable per the sync policy when this returns.
  void append(std::string_view payload);

  /// Pushes buffered bytes to the OS (fflush, no fsync).
  void flush();
  /// flush() + fsync of the current segment.
  void sync();

  /// Deletes every segment and starts an empty log (checkpoint compaction:
  /// callers snapshot their state elsewhere first).
  void reset();

  /// Prefix compaction: deletes leading whole segments whose records all
  /// precede `first_needed_record` — an index into the *full* log. A
  /// segment is only deleted when every record in it is redundant; the
  /// active (last) segment is never deleted. Returns the number of records
  /// newly dropped. Crash-safe: a "wal-compacted" marker (atomic rename,
  /// fsynced with its directory before any deletion) records the new
  /// segment boundary and the cumulative dropped-record count, and
  /// replay() skips stale segments below the boundary — so a crash
  /// mid-deletion can never double-count or misalign the surviving suffix.
  std::uint64_t compact(std::uint64_t first_needed_record);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::uint64_t records_appended() const;
  [[nodiscard]] std::uint64_t bytes_appended() const;
  /// fsync calls issued so far. Under kOnAppend with concurrent appenders
  /// this is the group-commit ratio's denominator: records_appended() /
  /// fsyncs_issued() >= 1 measures the batching win.
  [[nodiscard]] std::uint64_t fsyncs_issued() const;

  /// Replays all records under `dir` in append order. Returns stats;
  /// tolerates (and reports) a torn tail in the last segment only. A
  /// missing or empty directory replays zero records.
  static ReplayStats replay(const std::string& dir,
                            const std::function<void(std::string_view)>& fn);

 private:
  void open_segment_locked(std::uint32_t index, std::uint64_t size);
  void rotate_locked();
  /// Blocks until no group-commit leader holds the file outside the lock
  /// (required before closing or swapping file_).
  void wait_no_leader(std::unique_lock<std::mutex>& lock);

  std::string dir_;
  WalOptions options_;
  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::uint32_t segment_index_ = 0;
  std::uint64_t segment_size_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;

  // Group-commit state (guarded by mutex_). The leader fsyncs with the
  // lock released; sync_leader_active_ keeps the file open under it.
  std::condition_variable sync_cv_;
  bool sync_leader_active_ = false;
  std::uint64_t synced_records_ = 0;  ///< records covered by an fsync
  std::uint64_t fsyncs_ = 0;
};

}  // namespace recup::wal
