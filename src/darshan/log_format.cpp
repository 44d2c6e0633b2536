#include "darshan/log_format.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

namespace recup::darshan {
namespace {

constexpr char kMagic[8] = {'R', 'D', 'S', 'H', 'A', 'N', '0', '2'};

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void str(const std::string& s) {
    u64(s.size());
    buf_.append(s);
  }
  void raw(const void* data, std::size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t u32() {
    std::uint32_t v;
    raw(&v, sizeof(v));
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, sizeof(v));
    return v;
  }
  double f64() {
    double v;
    raw(&v, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint64_t size = u64();
    need(size);
    std::string out = bytes_.substr(pos_, size);
    pos_ += size;
    return out;
  }
  void raw(void* out, std::size_t size) {
    need(size);
    std::memcpy(out, bytes_.data() + pos_, size);
    pos_ += size;
  }
  /// A record count, rejected unless the remaining bytes can hold that many
  /// records of at least `min_bytes` each: a corrupt count must not size an
  /// allocation.
  std::uint64_t count(std::size_t min_bytes) {
    const std::uint64_t n = u64();
    if (n > (bytes_.size() - pos_) / min_bytes) {
      throw LogFormatError("darshan log record count exceeds its bytes");
    }
    return n;
  }
  [[nodiscard]] bool done() const { return pos_ == bytes_.size(); }

 private:
  void need(std::uint64_t size) const {
    if (size > bytes_.size() - pos_) {
      throw LogFormatError("darshan log truncated");
    }
  }
  const std::string& bytes_;
  std::size_t pos_ = 0;
};

// Smallest encoded size of each counted element (every string empty), so a
// count can be checked against the bytes left before anything is reserved.
constexpr std::size_t kStrMin = sizeof(std::uint64_t);
constexpr std::size_t kPosixMin =
    2 * kStrMin + sizeof(std::uint32_t) + 7 * sizeof(std::uint64_t) +
    8 * sizeof(double) +
    2 * SizeHistogram::kBucketCount * sizeof(std::uint64_t);
constexpr std::size_t kDxtMin = 2 * kStrMin + sizeof(std::uint32_t) +
                                sizeof(std::uint8_t) +
                                2 * sizeof(std::uint64_t);
constexpr std::size_t kSegmentMin =
    sizeof(std::uint8_t) + 3 * sizeof(std::uint64_t) + 2 * sizeof(double);

// Representative byte size landing in bucket `index` (used to rebuild
// histograms from serialized per-bucket counts).
std::uint64_t representative_size(std::size_t index) {
  static constexpr std::uint64_t kReps[SizeHistogram::kBucketCount] = {
      50,
      512,
      5ULL * 1024,
      50ULL * 1024,
      512ULL * 1024,
      2ULL * 1024 * 1024,
      6ULL * 1024 * 1024,
      50ULL * 1024 * 1024,
      512ULL * 1024 * 1024,
      2ULL * 1024 * 1024 * 1024};
  return kReps[index];
}

void write_histogram(Writer& w, const SizeHistogram& h) {
  for (std::size_t i = 0; i < SizeHistogram::kBucketCount; ++i) {
    w.u64(h.bucket(i));
  }
}

SizeHistogram read_histogram(Reader& r) {
  SizeHistogram h;
  for (std::size_t i = 0; i < SizeHistogram::kBucketCount; ++i) {
    const std::uint64_t count = r.u64();
    if (count > 0) {
      // Reconstruct by representative size; exact per-bucket counts are what
      // matters downstream.
      h.add(representative_size(i), count);
    }
  }
  return h;
}

}  // namespace

std::string serialize_log(const LogFile& log) {
  Writer w;
  w.raw(kMagic, sizeof(kMagic));
  w.str(log.job.job_id);
  w.str(log.job.executable);
  w.u32(log.job.nprocs);
  w.f64(log.job.start_time);
  w.f64(log.job.end_time);
  w.u64(log.job.run_seed);

  w.u64(log.posix.size());
  for (const auto& rec : log.posix) {
    w.str(rec.file_path);
    w.u32(rec.process_id);
    w.str(rec.hostname);
    w.u64(rec.opens);
    w.u64(rec.reads);
    w.u64(rec.writes);
    w.u64(rec.bytes_read);
    w.u64(rec.bytes_written);
    w.u64(rec.max_byte_read);
    w.u64(rec.max_byte_written);
    w.f64(rec.read_time);
    w.f64(rec.write_time);
    w.f64(rec.meta_time);
    w.f64(rec.first_open);
    w.f64(rec.first_read);
    w.f64(rec.first_write);
    w.f64(rec.last_read);
    w.f64(rec.last_write);
    write_histogram(w, rec.read_sizes);
    write_histogram(w, rec.write_sizes);
  }

  w.u64(log.dxt.size());
  for (const auto& rec : log.dxt) {
    w.str(rec.file_path);
    w.u32(rec.process_id);
    w.str(rec.hostname);
    w.u8(rec.truncated ? 1 : 0);
    w.u64(rec.dropped_segments);
    w.u64(rec.segments.size());
    for (const auto& seg : rec.segments) {
      w.u8(static_cast<std::uint8_t>(seg.op));
      w.u64(seg.offset);
      w.u64(seg.length);
      w.f64(seg.start);
      w.f64(seg.end);
      w.u64(seg.thread_id);
    }
  }
  return w.take();
}

LogFile deserialize_log(const std::string& bytes) {
  Reader r(bytes);
  char magic[8];
  r.raw(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw LogFormatError("bad darshan log magic");
  }
  LogFile log;
  log.job.job_id = r.str();
  log.job.executable = r.str();
  log.job.nprocs = r.u32();
  log.job.start_time = r.f64();
  log.job.end_time = r.f64();
  log.job.run_seed = r.u64();

  const std::uint64_t posix_count = r.count(kPosixMin);
  log.posix.reserve(posix_count);
  for (std::uint64_t i = 0; i < posix_count; ++i) {
    PosixRecord rec;
    rec.file_path = r.str();
    rec.process_id = r.u32();
    rec.hostname = r.str();
    rec.opens = r.u64();
    rec.reads = r.u64();
    rec.writes = r.u64();
    rec.bytes_read = r.u64();
    rec.bytes_written = r.u64();
    rec.max_byte_read = r.u64();
    rec.max_byte_written = r.u64();
    rec.read_time = r.f64();
    rec.write_time = r.f64();
    rec.meta_time = r.f64();
    rec.first_open = r.f64();
    rec.first_read = r.f64();
    rec.first_write = r.f64();
    rec.last_read = r.f64();
    rec.last_write = r.f64();
    rec.read_sizes = read_histogram(r);
    rec.write_sizes = read_histogram(r);
    log.posix.push_back(std::move(rec));
  }

  const std::uint64_t dxt_count = r.count(kDxtMin);
  log.dxt.reserve(dxt_count);
  for (std::uint64_t i = 0; i < dxt_count; ++i) {
    DxtRecord rec;
    rec.file_path = r.str();
    rec.process_id = r.u32();
    rec.hostname = r.str();
    rec.truncated = r.u8() != 0;
    rec.dropped_segments = r.u64();
    const std::uint64_t seg_count = r.count(kSegmentMin);
    rec.segments.reserve(seg_count);
    for (std::uint64_t s = 0; s < seg_count; ++s) {
      DxtSegment seg;
      const std::uint8_t op = r.u8();
      if (op > static_cast<std::uint8_t>(IoOp::kWrite)) {
        throw LogFormatError("bad darshan DXT op " + std::to_string(op));
      }
      seg.op = static_cast<IoOp>(op);
      seg.offset = r.u64();
      seg.length = r.u64();
      seg.start = r.f64();
      seg.end = r.f64();
      seg.thread_id = r.u64();
      rec.segments.push_back(seg);
    }
    log.dxt.push_back(std::move(rec));
  }
  if (!r.done()) throw LogFormatError("trailing bytes in darshan log");
  return log;
}

void write_log(const std::string& path, const LogFile& log) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw LogFormatError("cannot open " + path);
  const std::string bytes = serialize_log(log);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw LogFormatError("write failed for " + path);
}

LogFile read_log(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw LogFormatError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return deserialize_log(buf.str());
}

}  // namespace recup::darshan
