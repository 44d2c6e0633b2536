#include "segstore/store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace recup::segstore {

namespace fs = std::filesystem;

namespace {

constexpr int kMaxAttempts = 8;
constexpr const char* kSegmentSuffix = ".rsg";
/// Segments at or above this size are left alone by the compactor.
constexpr std::uint64_t kCompactMaxBytes = 64ULL << 20;
/// Compaction trigger: a view is merged once it holds this many segments
/// below kCompactMaxBytes.
constexpr std::size_t kCompactMinSegments = 4;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SegstoreError("segstore: cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// View names embed into file names; keep them filesystem-safe.
std::string sanitize(const std::string& view) {
  std::string out = view;
  for (char& c : out) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '-')) {
      c = '_';
    }
  }
  return out;
}

}  // namespace

MappedSegment::~MappedSegment() {
  if (mmapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
}

SegmentStore::SegmentStore(SegmentStoreConfig config)
    : config_(std::move(config)) {
  if (config_.dir.empty()) {
    throw SegstoreError("segstore: config.dir must be set");
  }
  if (!config_.read_only) {
    fs::create_directories(config_.dir);
  }
  manifest_ = std::make_unique<Manifest>(
      (fs::path(config_.dir) / "manifest").string(), config_.read_only);

  // Resume the segment sequence past every existing file — committed or
  // orphaned — so a name is never reused.
  if (fs::exists(config_.dir)) {
    for (const auto& entry : fs::directory_iterator(config_.dir)) {
      const std::string name = entry.path().filename().string();
      unsigned seq = 0;
      if (std::sscanf(name.c_str(), "seg-%06u-", &seq) == 1) {
        seq_ = std::max<std::uint64_t>(seq_, seq + 1);
      }
    }
  }

  if (config_.verify_on_open) {
    // The cold-start footer scan: every referenced segment must be present
    // with an intact CRC before this store serves a byte.
    const auto version = manifest_->current();
    for (const auto& [view, segments] : version->views) {
      for (const auto& segment : segments) {
        const std::string bytes = read_file(segment_path(segment->file));
        verify_footer(bytes);
        if (bytes.size() != segment->file_bytes) {
          throw SegstoreError("segstore: " + segment->file +
                              " size differs from manifest");
        }
      }
    }
  }
  if (!config_.read_only) {
    // A crash between segment write and manifest commit leaves orphans.
    collect_garbage();
  }
}

std::string SegmentStore::segment_path(const std::string& file) const {
  return (fs::path(config_.dir) / file).string();
}

std::string SegmentStore::next_file_locked(const std::string& view) {
  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "seg-%06u-",
                static_cast<unsigned>(seq_++));
  return std::string(prefix) + sanitize(view) + kSegmentSuffix;
}

void SegmentStore::write_segment_file(const std::string& file,
                                      std::string_view bytes) {
  const std::string path = segment_path(file);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw SegstoreError("segstore: cannot create " + path);
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      throw SegstoreError("segstore: short write to " + path);
    }
  }
  wal::fsync_path(path);
  wal::fsync_path(config_.dir);
  segments_written_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const MappedSegment> SegmentStore::map_segment(
    const std::string& file) const {
  {
    std::lock_guard lock(mutex_);
    const auto it = maps_.find(file);
    if (it != maps_.end()) return it->second;
  }
  auto mapped = std::shared_ptr<MappedSegment>(new MappedSegment());
  const std::string path = segment_path(file);
  bool ok = false;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st {};
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      void* addr = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                          PROT_READ, MAP_SHARED, fd, 0);
      if (addr != MAP_FAILED) {
        mapped->data_ = static_cast<const char*>(addr);
        mapped->size_ = static_cast<std::size_t>(st.st_size);
        mapped->mmapped_ = true;
        ok = true;
      }
    }
    ::close(fd);
  }
  if (!ok) {
    mapped->heap_ = read_file(path);
    mapped->data_ = mapped->heap_.data();
    mapped->size_ = mapped->heap_.size();
  }
  std::lock_guard lock(mutex_);
  auto [it, inserted] = maps_.emplace(file, std::move(mapped));
  return it->second;
}

bool SegmentStore::chaos_point(const char* site) {
  if (injector_ == nullptr) return false;
  const auto decision = injector_->decide(site);
  switch (decision.action) {
    case chaos::FaultAction::kNone:
      return false;
    case chaos::FaultAction::kProcessCrashRestart:
      crash_restore();
      return true;
    case chaos::FaultAction::kDelay:
      return false;  // durability logic is delay-insensitive
    default:
      throw chaos::TransientFault(std::string("segstore: injected fault at ") +
                                  site);
  }
}

void SegmentStore::crash_restore() {
  // A simulated process crash loses only in-flight state: the manifest's
  // in-memory version always equals its durable state (commits install
  // after the WAL sync), so restoring means discarding this attempt's
  // uncommitted segment files. Live reader pins survive (unlike a real
  // crash) — collect_garbage honors them.
  recoveries_.fetch_add(1, std::memory_order_relaxed);
  collect_garbage_locked();
}

bool SegmentStore::flush_run(
    const RunKey& run,
    const std::vector<std::pair<std::string, const analysis::DataFrame*>>&
        views) {
  if (config_.read_only) {
    throw SegstoreError("segstore: flush on a read-only store");
  }
  std::lock_guard writer_lock(writer_mutex_);
  int transient_budget = kMaxAttempts;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (manifest_->current()->has_run(run)) return false;
    try {
      if (chaos_point(chaos::sites::kSegstoreFlush)) continue;
      std::vector<SegmentInfo> infos;
      infos.reserve(views.size());
      for (const auto& [view, frame] : views) {
        SegmentInfo info;
        const std::vector<ChunkInput> chunk = {{run, frame}};
        const std::string bytes = encode_segment(view, chunk, &info);
        {
          std::lock_guard lock(mutex_);
          info.file = next_file_locked(view);
        }
        write_segment_file(info.file, bytes);
        infos.push_back(std::move(info));
      }
      // Crash here = orphaned segment files, no manifest record: the
      // recovery GC removes them and the retry rewrites under new names.
      if (chaos_point(chaos::sites::kSegstoreFlush)) continue;
      return manifest_->commit_add(run, std::move(infos));
    } catch (const chaos::TransientFault&) {
      if (--transient_budget <= 0) throw;
    }
  }
  throw SegstoreError("segstore: flush of " + run.display() +
                      " exhausted retries under injected faults");
}

std::size_t SegmentStore::compact() {
  if (config_.read_only) {
    throw SegstoreError("segstore: compact on a read-only store");
  }
  std::lock_guard writer_lock(writer_mutex_);
  std::size_t merges = 0;
  const auto version = manifest_->current();
  for (const auto& [view, segments] : version->views) {
    std::vector<std::shared_ptr<const SegmentInfo>> inputs;
    for (const auto& segment : segments) {
      if (segment->file_bytes < kCompactMaxBytes) {
        inputs.push_back(segment);
      }
    }
    if (inputs.size() < kCompactMinSegments) continue;

    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      try {
        if (chaos_point(chaos::sites::kSegstoreCompact)) continue;
        // Decode every input chunk, then re-encode in global run order so
        // the merged segment's chunk order matches the ordered run index.
        std::map<RunKey, analysis::DataFrame> frames;
        for (const auto& input : inputs) {
          DecodedSegment decoded =
              decode_segment(map_segment(input->file)->bytes());
          for (auto& [run, frame] : decoded.chunks) {
            frames.emplace(run, std::move(frame));
          }
        }
        std::vector<ChunkInput> chunks;
        chunks.reserve(frames.size());
        for (const RunKey& run : version->run_order) {
          const auto it = frames.find(run);
          if (it != frames.end()) {
            chunks.push_back({run, &it->second});
          }
        }
        SegmentInfo info;
        const std::string bytes = encode_segment(view, chunks, &info);
        {
          std::lock_guard lock(mutex_);
          info.file = next_file_locked(view);
        }
        write_segment_file(info.file, bytes);
        if (chaos_point(chaos::sites::kSegstoreCompact)) continue;
        std::vector<std::string> replaces;
        replaces.reserve(inputs.size());
        for (const auto& input : inputs) replaces.push_back(input->file);
        manifest_->commit_compact(view, replaces, std::move(info));
        ++merges;
        break;
      } catch (const chaos::TransientFault&) {
        // bounded by the attempt counter
      }
    }
  }
  if (merges > 0) collect_garbage_locked();
  return merges;
}

std::shared_ptr<const analysis::DataFrame> SegmentStore::read_frame(
    const ManifestVersion& version, const std::string& view,
    const RunKey& run) const {
  const auto location = version.locate(view, run);
  if (!location) return nullptr;
  const auto mapped = map_segment(location->segment->file);
  return std::make_shared<const analysis::DataFrame>(
      decode_chunk(mapped->bytes(), location->chunk->offset,
                   location->chunk));
}

std::size_t SegmentStore::collect_garbage() {
  if (config_.read_only) return 0;
  std::lock_guard writer_lock(writer_mutex_);
  return collect_garbage_locked();
}

std::size_t SegmentStore::collect_garbage_locked() {
  const std::set<std::string> keep = manifest_->pinned_files();
  std::size_t deleted = 0;
  std::vector<std::string> victims;
  for (const auto& entry : fs::directory_iterator(config_.dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() < std::strlen(kSegmentSuffix) ||
        name.substr(name.size() - std::strlen(kSegmentSuffix)) !=
            kSegmentSuffix) {
      continue;
    }
    if (keep.count(name) == 0) victims.push_back(name);
  }
  for (const std::string& name : victims) {
    std::error_code ec;
    if (fs::remove(segment_path(name), ec)) {
      ++deleted;
      std::lock_guard lock(mutex_);
      maps_.erase(name);  // existing readers keep their mapping alive
    }
  }
  return deleted;
}

SegmentStore::FsckReport SegmentStore::fsck() const {
  FsckReport report;
  const auto version = manifest_->current();
  auto fail = [&report](const std::string& file, const std::string& what) {
    report.errors.push_back(file + ": " + what);
  };
  for (const auto& [view, segments] : version->views) {
    for (const auto& segment : segments) {
      ++report.segments_checked;
      std::string bytes;
      try {
        // Fresh read (not the mmap cache): fsck exists to catch on-disk rot.
        bytes = read_file(segment_path(segment->file));
      } catch (const SegstoreError& e) {
        fail(segment->file, e.what());
        continue;
      }
      if (bytes.size() != segment->file_bytes) {
        fail(segment->file, "size differs from manifest");
        continue;
      }
      DecodedSegment decoded;
      try {
        decoded = decode_segment(bytes);
      } catch (const std::exception& e) {
        fail(segment->file, e.what());
        continue;
      }
      if (decoded.view != view) {
        fail(segment->file, "view name mismatch");
        continue;
      }
      if (decoded.info.body_crc != segment->body_crc) {
        fail(segment->file, "body CRC differs from manifest");
      }
      if (decoded.info.chunks.size() != segment->chunks.size()) {
        fail(segment->file, "chunk count differs from manifest");
        continue;
      }
      for (std::size_t i = 0; i < segment->chunks.size(); ++i) {
        const ChunkMeta& want = segment->chunks[i];
        const ChunkMeta& got = decoded.info.chunks[i];
        ++report.chunks_checked;
        report.rows_checked += got.rows;
        if (got.run != want.run || got.rows != want.rows ||
            got.offset != want.offset || got.length != want.length) {
          fail(segment->file,
               "chunk " + want.run.display() + " meta differs from manifest");
          continue;
        }
        // Zone maps: the manifest's stats must equal stats recomputed from
        // the decoded data — a mismatch means pruning could silently drop
        // live rows.
        const analysis::DataFrame& frame = decoded.chunks[i].second;
        if (got.columns.size() != want.columns.size() ||
            frame.width() != want.columns.size()) {
          fail(segment->file,
               "chunk " + want.run.display() + " column count mismatch");
          continue;
        }
        for (std::size_t c = 0; c < want.columns.size(); ++c) {
          const ColumnStats recomputed = compute_stats(frame.col(c));
          if (!(recomputed == want.columns[c])) {
            fail(segment->file, "chunk " + want.run.display() + " column '" +
                                    want.columns[c].name +
                                    "' zone map differs from decoded data");
          }
        }
      }
    }
  }
  return report;
}

}  // namespace recup::segstore
