#include "common/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <filesystem>
#include <vector>

namespace recup::wal {

namespace {

namespace fs = std::filesystem;

constexpr const char* kSegmentPrefix = "wal-";
constexpr const char* kSegmentSuffix = ".seg";
constexpr std::size_t kHeaderBytes = 8;  // u32 length + u32 crc32

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

/// Number of segments under `dir`: their names must be exactly
/// segment_name(0), segment_name(1), ... with no gap, since nothing deletes
/// a segment. Other files (e.g. checkpoint.bin living next to a journal)
/// are ignored; a "wal-*.seg" name that is not a segment name, or a missing
/// segment, throws.
std::uint32_t segment_count(const std::string& dir) {
  if (!fs::exists(dir)) return 0;
  const std::string_view prefix = kSegmentPrefix;
  const std::string_view suffix = kSegmentSuffix;
  std::vector<std::uint32_t> indices;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < prefix.size() + suffix.size() ||
        !name.starts_with(prefix) || !name.ends_with(suffix)) {
      continue;
    }
    const char* first = name.data() + prefix.size();
    const char* last = name.data() + name.size() - suffix.size();
    std::uint32_t index = 0;
    const auto [end, error] = std::from_chars(first, last, index);
    if (error != std::errc{} || end != last || segment_name(index) != name) {
      throw WalError("wal: foreign segment file " + entry.path().string());
    }
    indices.push_back(index);
  }
  std::sort(indices.begin(), indices.end());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] != i) {
      throw WalError("wal: segment " +
                     segment_name(static_cast<std::uint32_t>(i)) +
                     " is missing from " + dir);
    }
  }
  return static_cast<std::uint32_t>(indices.size());
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

WalWriter::WalWriter(std::string dir) : dir_(std::move(dir)) {
  fs::create_directories(dir_);
  const std::uint32_t segments = segment_count(dir_);
  std::uint32_t index = 0;
  std::uint64_t size = 0;
  if (segments > 0) {
    index = segments - 1;
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
  std::lock_guard lock(mutex_);
  if (file_ != nullptr) std::fclose(file_);
}

void WalWriter::open_segment_locked(std::uint32_t index, std::uint64_t size) {
  if (file_ != nullptr) std::fclose(file_);
  const fs::path path = fs::path(dir_) / segment_name(index);
  file_ = std::fopen(path.string().c_str(), "ab");
  if (file_ == nullptr) throw WalError("wal: cannot open " + path.string());
  segment_index_ = index;
  segment_size_ = size;
}

void WalWriter::append(std::string_view payload) {
  std::lock_guard lock(mutex_);
  if (segment_size_ >= kSegmentBytes) {
    open_segment_locked(segment_index_ + 1, 0);
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
  }
}

std::uint64_t WalWriter::records_appended() const {
  std::lock_guard lock(mutex_);
  return records_;
}

std::uint64_t WalWriter::bytes_appended() const {
  std::lock_guard lock(mutex_);
  return bytes_;
}

ReplayStats WalWriter::replay(
    const std::string& dir,
    const std::function<void(std::string_view)>& fn) {
  ReplayStats stats;
  const std::uint32_t segments = segment_count(dir);
  for (std::uint32_t index = 0; index < segments; ++index) {
    const fs::path path = fs::path(dir) / segment_name(index);
    scan_segment(path, /*last_segment=*/index + 1 == segments, fn, &stats);
    stats.segments += 1;
  }
  return stats;
}

}  // namespace recup::wal
