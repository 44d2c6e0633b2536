#include "common/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

namespace recup::wal {

namespace {

namespace fs = std::filesystem;

constexpr const char* kSegmentPrefix = "wal-";
constexpr const char* kSegmentSuffix = ".seg";
constexpr const char* kCompactedMarker = "wal-compacted";
constexpr std::size_t kHeaderBytes = 8;  // u32 length + u32 crc32

/// Compaction watermark: every segment with index < boundary was (or is
/// about to be) deleted; `records` is the cumulative record count those
/// segments held. Written atomically *before* deletion, so stale segments
/// surviving a crash mid-compaction are skipped on replay instead of
/// misaligning the suffix.
struct CompactionMarker {
  std::uint32_t boundary = 0;
  std::uint64_t records = 0;
};

CompactionMarker read_marker(const std::string& dir) {
  CompactionMarker marker;
  std::ifstream in(fs::path(dir) / kCompactedMarker);
  if (in) {
    std::uint32_t boundary = 0;
    std::uint64_t records = 0;
    if (in >> boundary >> records) {
      marker.boundary = boundary;
      marker.records = records;
    }
  }
  return marker;
}

/// Writes the marker durably: the file and its rename are both fsynced
/// (two fsyncs) before this returns, so no deletion can outrun it.
void write_marker(const std::string& dir, const CompactionMarker& marker) {
  const fs::path tmp = fs::path(dir) / (std::string(kCompactedMarker) + ".tmp");
  const fs::path final_path = fs::path(dir) / kCompactedMarker;
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << marker.boundary << ' ' << marker.records << '\n';
    out.close();
    if (!out) throw WalError("wal: cannot write " + tmp.string());
  }
  fsync_path(tmp.string());
  fs::rename(tmp, final_path);
  fsync_path(dir);
}

/// Slice-by-8 tables: kCrcTables[0] is the byte-wise table; entry k of
/// table n is the CRC of byte k followed by n zero bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t n = 1; n < tables.size(); ++n) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[n - 1][i];
      tables[n][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::string segment_name(std::uint32_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08u%s", kSegmentPrefix, index,
                kSegmentSuffix);
  return buf;
}

/// Segment indices present under `dir`, sorted ascending. Non-segment files
/// (e.g. checkpoint.bin living next to a journal) are ignored.
std::vector<std::uint32_t> list_segments(const std::string& dir) {
  std::vector<std::uint32_t> indices;
  if (!fs::exists(dir)) return indices;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kSegmentPrefix, 0) != 0) continue;
    if (name.size() <= std::strlen(kSegmentPrefix) + std::strlen(kSegmentSuffix))
      continue;
    if (name.substr(name.size() - std::strlen(kSegmentSuffix)) !=
        kSegmentSuffix)
      continue;
    indices.push_back(static_cast<std::uint32_t>(
        std::stoul(name.substr(std::strlen(kSegmentPrefix)))));
  }
  std::sort(indices.begin(), indices.end());
  return indices;
}

void encode_u32(char* out, std::uint32_t v) {
  out[0] = static_cast<char>(v & 0xFF);
  out[1] = static_cast<char>((v >> 8) & 0xFF);
  out[2] = static_cast<char>((v >> 16) & 0xFF);
  out[3] = static_cast<char>((v >> 24) & 0xFF);
}

std::uint32_t decode_u32(const unsigned char* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

/// Scans one segment, invoking `fn` per valid record. Returns the byte
/// offset of the first invalid frame (== file size when fully valid). When
/// `last_segment` is false any invalid frame throws.
std::uint64_t scan_segment(const fs::path& path, bool last_segment,
                           const std::function<void(std::string_view)>& fn,
                           ReplayStats* stats) {
  std::FILE* file = std::fopen(path.string().c_str(), "rb");
  if (file == nullptr) throw WalError("wal: cannot open " + path.string());
  std::uint64_t valid_end = 0;
  std::string payload;
  unsigned char header[kHeaderBytes];
  const std::uint64_t file_size = fs::file_size(path);
  for (;;) {
    const std::size_t got = std::fread(header, 1, kHeaderBytes, file);
    if (got == 0) break;  // clean end
    bool torn = got < kHeaderBytes;
    std::uint32_t length = 0;
    std::uint32_t expected_crc = 0;
    if (!torn) {
      length = decode_u32(header);
      expected_crc = decode_u32(header + 4);
      torn = valid_end + kHeaderBytes + length > file_size;
    }
    if (!torn) {
      payload.resize(length);
      if (length > 0 && std::fread(payload.data(), 1, length, file) != length) {
        torn = true;
      } else if (crc32(payload.data(), payload.size()) != expected_crc) {
        torn = true;
      }
    }
    if (torn) {
      std::fclose(file);
      if (!last_segment) {
        throw WalError("wal: corrupt record mid-log in " + path.string());
      }
      if (stats != nullptr) stats->truncated_tail = true;
      return valid_end;
    }
    if (fn) fn(payload);
    if (stats != nullptr) {
      stats->records += 1;
      stats->bytes += payload.size();
    }
    valid_end += kHeaderBytes + length;
  }
  std::fclose(file);
  return valid_end;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto& t = kCrcTables;
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  const auto* bytes = static_cast<const unsigned char*>(data);
  // Eight bytes per step: fold the running CRC into the first four, then
  // look each byte up in the table for its distance from the block's end.
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = crc ^ decode_u32(bytes);
    const std::uint32_t hi = decode_u32(bytes + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = t[0][(crc ^ *bytes) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

WalWriter::WalWriter(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {
  fs::create_directories(dir_);
  const auto segments = list_segments(dir_);
  std::uint32_t index = 0;
  std::uint64_t size = 0;
  if (!segments.empty()) {
    index = segments.back();
    const fs::path last = fs::path(dir_) / segment_name(index);
    // Repair: truncate a torn tail so new appends start on a record
    // boundary. Earlier segments are validated lazily at replay time.
    const std::uint64_t valid = scan_segment(last, /*last_segment=*/true,
                                             nullptr, nullptr);
    if (valid != fs::file_size(last)) fs::resize_file(last, valid);
    size = valid;
  }
  std::lock_guard lock(mutex_);
  open_segment_locked(index, size);
}

WalWriter::~WalWriter() {
  std::unique_lock lock(mutex_);
  wait_no_leader(lock);
  if (file_ != nullptr) std::fclose(file_);
}

void WalWriter::wait_no_leader(std::unique_lock<std::mutex>& lock) {
  while (sync_leader_active_) sync_cv_.wait(lock);
}

void WalWriter::open_segment_locked(std::uint32_t index, std::uint64_t size) {
  if (file_ != nullptr) std::fclose(file_);
  const fs::path path = fs::path(dir_) / segment_name(index);
  file_ = std::fopen(path.string().c_str(), "ab");
  if (file_ == nullptr) throw WalError("wal: cannot open " + path.string());
  segment_index_ = index;
  segment_size_ = size;
}

void WalWriter::rotate_locked() {
  std::fflush(file_);
  if (options_.sync == SyncPolicy::kOnAppend) {
    // Everything appended so far lives in the segment being retired; make
    // it durable before it is closed, since later group-commit fsyncs only
    // cover the new segment.
    ::fsync(::fileno(file_));
    ++fsyncs_;
    synced_records_ = records_;
  }
  open_segment_locked(segment_index_ + 1, 0);
}

void WalWriter::append(std::string_view payload) {
  std::unique_lock lock(mutex_);
  if (segment_size_ >= options_.segment_bytes) {
    wait_no_leader(lock);  // a leader fsyncs file_ with the lock released
    rotate_locked();
  }
  char header[kHeaderBytes];
  encode_u32(header, static_cast<std::uint32_t>(payload.size()));
  encode_u32(header + 4, crc32(payload.data(), payload.size()));
  if (std::fwrite(header, 1, kHeaderBytes, file_) != kHeaderBytes ||
      (!payload.empty() &&
       std::fwrite(payload.data(), 1, payload.size(), file_) !=
           payload.size())) {
    throw WalError("wal: short write to segment in " + dir_);
  }
  segment_size_ += kHeaderBytes + payload.size();
  records_ += 1;
  bytes_ += payload.size();
  if (options_.sync != SyncPolicy::kOnAppend) return;

  // Group commit: my record is number `mine`; return once some fsync has
  // covered it. The first uncovered appender becomes leader and fsyncs for
  // everyone written ahead of it; the rest wait on the covered watermark.
  const std::uint64_t mine = records_;
  for (;;) {
    if (synced_records_ >= mine) return;
    if (!sync_leader_active_) break;
    sync_cv_.wait(lock);
  }
  sync_leader_active_ = true;
  const std::uint64_t cover = records_;
  std::FILE* file = file_;
  lock.unlock();
  // stdio FILE operations are thread-safe, so concurrent followers may
  // keep fwriting while the leader flushes; records past `cover` are not
  // claimed durable.
  std::fflush(file);
  ::fsync(::fileno(file));
  lock.lock();
  ++fsyncs_;
  if (cover > synced_records_) synced_records_ = cover;
  sync_leader_active_ = false;
  sync_cv_.notify_all();
}

void WalWriter::flush() {
  std::lock_guard lock(mutex_);
  if (file_ != nullptr) std::fflush(file_);
}

void WalWriter::sync() {
  std::lock_guard lock(mutex_);
  if (file_ != nullptr) {
    std::fflush(file_);
    ::fsync(::fileno(file_));
    ++fsyncs_;
    synced_records_ = records_;
  }
}

void WalWriter::reset() {
  std::unique_lock lock(mutex_);
  wait_no_leader(lock);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  for (const std::uint32_t index : list_segments(dir_)) {
    fs::remove(fs::path(dir_) / segment_name(index));
  }
  fs::remove(fs::path(dir_) / kCompactedMarker);
  records_ = 0;
  bytes_ = 0;
  synced_records_ = 0;
  open_segment_locked(0, 0);
}

std::uint64_t WalWriter::compact(std::uint64_t first_needed_record) {
  std::unique_lock lock(mutex_);
  wait_no_leader(lock);
  CompactionMarker marker = read_marker(dir_);
  const auto segments = list_segments(dir_);
  std::uint64_t dropped = 0;
  std::uint32_t new_boundary = marker.boundary;
  for (const std::uint32_t index : segments) {
    if (index < marker.boundary) continue;  // stale: re-deleted below
    if (index == segment_index_) break;  // never touch the active segment
    const fs::path path = fs::path(dir_) / segment_name(index);
    ReplayStats stats;
    // Sealed segments must be fully valid; a torn frame here is storage
    // corruption and scan_segment throws rather than letting compaction
    // silently discard records.
    scan_segment(path, /*last_segment=*/false, nullptr, &stats);
    if (marker.records + dropped + stats.records > first_needed_record) break;
    dropped += stats.records;
    new_boundary = index + 1;
  }
  if (new_boundary > marker.boundary) {
    marker.boundary = new_boundary;
    marker.records += dropped;
    write_marker(dir_, marker);  // durable before any segment disappears
    fsyncs_ += 2;
  }
  for (const std::uint32_t index : segments) {
    if (index >= marker.boundary) break;
    fs::remove(fs::path(dir_) / segment_name(index));
  }
  return dropped;
}

std::uint64_t WalWriter::records_appended() const {
  std::lock_guard lock(mutex_);
  return records_;
}

std::uint64_t WalWriter::bytes_appended() const {
  std::lock_guard lock(mutex_);
  return bytes_;
}

std::uint64_t WalWriter::fsyncs_issued() const {
  std::lock_guard lock(mutex_);
  return fsyncs_;
}

ReplayStats WalWriter::replay(
    const std::string& dir,
    const std::function<void(std::string_view)>& fn) {
  ReplayStats stats;
  const CompactionMarker marker = read_marker(dir);
  stats.compacted_records = marker.records;
  const auto segments = list_segments(dir);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (segments[i] < marker.boundary) continue;  // compacted (maybe stale)
    const fs::path path = fs::path(dir) / segment_name(segments[i]);
    scan_segment(path, /*last_segment=*/i + 1 == segments.size(), fn, &stats);
    stats.segments += 1;
  }
  return stats;
}

}  // namespace recup::wal
