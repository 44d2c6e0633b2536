// Segmented write-ahead log: the durability primitive under the Mofka
// broker, the scheduler journal, the ingestor cursors and the segstore
// manifest.
//
// Records are opaque byte strings framed as [u32 length][u32 crc32][payload]
// and appended to numbered segment files ("wal-00000000.seg", ...) that
// rotate at kSegmentBytes. Nothing ever deletes a segment, so a log's
// segments are numbered contiguously from 0: a missing one, or a
// "wal-*.seg" name that is not a segment's name, throws. Recovery replays
// every record in append order; a torn record at the tail of the *last*
// segment (the signature of a crash mid-append) is truncated away, while
// corruption anywhere else throws — silent loss in the middle of the log
// would be a storage fault, not a crash artifact.
//
// Appends are buffered and left to OS writeback; sync() makes them
// durable. The writer is thread-safe (one internal mutex serializes
// appends) and resumable: constructing a WalWriter over a directory with
// existing segments first repairs any torn tail, then continues appending
// after the last valid record.
#pragma once

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

/// A segment takes no more appends once it holds this many bytes.
inline constexpr std::uint64_t kSegmentBytes = 4ULL << 20;

/// CRC-32 (IEEE, reflected) over `size` bytes, chainable via `seed`.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0);

/// fsyncs a file or a directory by path (best effort: open or fsync
/// failures are ignored). A directory fsync makes renames and unlinks in it
/// durable.
void fsync_path(const std::string& path);

struct ReplayStats {
  std::uint64_t records = 0;
  std::uint64_t segments = 0;
  std::uint64_t bytes = 0;  ///< payload bytes delivered
  /// True when a torn record was truncated from the last segment.
  bool truncated_tail = false;
};

class WalWriter {
 public:
  /// Opens (creating directories as needed) the log under `dir`, repairing
  /// a torn tail and positioning after the last valid record.
  explicit WalWriter(std::string dir);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record (buffered; see flush() and sync()).
  void append(std::string_view payload);

  /// Pushes buffered bytes to the OS (fflush, no fsync).
  void flush();
  /// flush() + fsync of the current segment.
  void sync();

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::uint64_t records_appended() const;
  [[nodiscard]] std::uint64_t bytes_appended() const;

  /// Replays all records under `dir` in append order. Returns stats;
  /// tolerates (and reports) a torn tail in the last segment only. A
  /// missing or empty directory replays zero records.
  static ReplayStats replay(const std::string& dir,
                            const std::function<void(std::string_view)>& fn);

 private:
  void open_segment_locked(std::uint32_t index, std::uint64_t size);

  std::string dir_;
  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::uint32_t segment_index_ = 0;
  std::uint64_t segment_size_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace recup::wal
