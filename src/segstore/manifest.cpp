#include "segstore/manifest.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "wire/codec.hpp"

namespace recup::segstore {

namespace {

std::int64_t double_bits(double v) {
  return std::bit_cast<std::int64_t>(v);
}

double bits_double(std::int64_t bits) {
  return std::bit_cast<double>(bits);
}

/// An unsigned field the manifest stores as an integer. A negative value or
/// one above `max` is corruption, never wrapped into range by a cast.
template <typename T>
T unsigned_field(const json::Value& object, const std::string& key,
                 T max = std::numeric_limits<T>::max()) {
  const std::int64_t value = object.at(key).as_int();
  if (value < 0 || static_cast<std::uint64_t>(value) > max) {
    throw SegstoreError("manifest: " + key + " out of range: " +
                        std::to_string(value));
  }
  return static_cast<T>(value);
}

json::Value stats_to_json(const ColumnStats& s) {
  json::Object o;
  o["name"] = s.name;
  o["type"] = static_cast<std::int64_t>(s.type);
  o["rows"] = static_cast<std::int64_t>(s.rows);
  o["nulls"] = static_cast<std::int64_t>(s.null_count);
  switch (s.type) {
    case analysis::ColumnType::kInt64:
      o["int_min"] = s.int_min;
      o["int_max"] = s.int_max;
      break;
    case analysis::ColumnType::kDouble:
      // Bit patterns, not decimal text: the zone map must round-trip the
      // stored doubles exactly or fsck's recomputed stats would mismatch.
      if (s.dbl_valid) {
        o["dbl_min_bits"] = double_bits(s.dbl_min);
        o["dbl_max_bits"] = double_bits(s.dbl_max);
      }
      break;
    case analysis::ColumnType::kString:
      if (s.str_valid) {
        o["str_min"] = s.str_min;
        o["str_max"] = s.str_max;
      }
      break;
  }
  return json::Value(std::move(o));
}

ColumnStats stats_from_json(const json::Value& v) {
  ColumnStats s;
  s.name = v.at("name").as_string();
  s.type = static_cast<analysis::ColumnType>(unsigned_field<std::uint8_t>(
      v, "type", static_cast<std::uint8_t>(analysis::ColumnType::kString)));
  s.rows = unsigned_field<std::uint64_t>(v, "rows");
  s.null_count =
      v.contains("nulls") ? unsigned_field<std::uint64_t>(v, "nulls") : 0;
  switch (s.type) {
    case analysis::ColumnType::kInt64:
      s.int_min = v.at("int_min").as_int();
      s.int_max = v.at("int_max").as_int();
      break;
    case analysis::ColumnType::kDouble:
      if (v.contains("dbl_min_bits")) {
        s.dbl_min = bits_double(v.at("dbl_min_bits").as_int());
        s.dbl_max = bits_double(v.at("dbl_max_bits").as_int());
        s.dbl_valid = true;
      }
      break;
    case analysis::ColumnType::kString:
      if (v.contains("str_min")) {
        s.str_min = v.at("str_min").as_string();
        s.str_max = v.at("str_max").as_string();
        s.str_valid = true;
      }
      break;
  }
  return s;
}

}  // namespace

json::Value segment_info_to_json(const SegmentInfo& info) {
  json::Object o;
  o["file"] = info.file;
  o["view"] = info.view;
  o["bytes"] = static_cast<std::int64_t>(info.file_bytes);
  o["crc"] = static_cast<std::int64_t>(info.body_crc);
  json::Array chunks;
  for (const ChunkMeta& c : info.chunks) {
    json::Object ch;
    ch["workflow"] = c.run.workflow;
    ch["run_index"] = static_cast<std::int64_t>(c.run.run_index);
    ch["rows"] = static_cast<std::int64_t>(c.rows);
    ch["offset"] = static_cast<std::int64_t>(c.offset);
    ch["length"] = static_cast<std::int64_t>(c.length);
    json::Array cols;
    for (const ColumnStats& s : c.columns) cols.push_back(stats_to_json(s));
    ch["columns"] = std::move(cols);
    chunks.push_back(json::Value(std::move(ch)));
  }
  o["chunks"] = std::move(chunks);
  return json::Value(std::move(o));
}

SegmentInfo segment_info_from_json(const json::Value& v) {
  SegmentInfo info;
  info.file = v.at("file").as_string();
  info.view = v.at("view").as_string();
  info.file_bytes = unsigned_field<std::uint64_t>(v, "bytes");
  info.body_crc = unsigned_field<std::uint32_t>(v, "crc");
  const json::Array& chunks = v.at("chunks").as_array();
  info.chunks.reserve(chunks.size());
  for (const json::Value& ch : chunks) {
    ChunkMeta meta;
    meta.run.workflow = ch.at("workflow").as_string();
    meta.run.run_index = unsigned_field<std::uint32_t>(ch, "run_index");
    meta.rows = unsigned_field<std::uint64_t>(ch, "rows");
    meta.offset = unsigned_field<std::uint64_t>(ch, "offset");
    meta.length = unsigned_field<std::uint64_t>(ch, "length");
    for (const json::Value& col : ch.at("columns").as_array()) {
      meta.columns.push_back(stats_from_json(col));
    }
    info.chunks.push_back(std::move(meta));
  }
  return info;
}

std::optional<ManifestVersion::Location> ManifestVersion::locate(
    const std::string& view, const RunKey& run) const {
  const auto it = views.find(view);
  if (it == views.end()) return std::nullopt;
  for (const auto& segment : it->second) {
    if (const ChunkMeta* chunk = segment->chunk_for(run)) {
      return Location{segment.get(), chunk};
    }
  }
  return std::nullopt;
}

bool ManifestVersion::has_run(const RunKey& run) const {
  return std::find(run_order.begin(), run_order.end(), run) !=
         run_order.end();
}

std::set<std::string> ManifestVersion::files() const {
  std::set<std::string> out;
  for (const auto& [view, segments] : views) {
    for (const auto& segment : segments) out.insert(segment->file);
  }
  return out;
}

Manifest::Manifest(std::string dir, bool read_only) : dir_(std::move(dir)) {
  if (!read_only) {
    writer_ = std::make_unique<wal::WalWriter>(dir_);
  }
  std::lock_guard lock(mutex_);
  install_locked(replay_locked());
}

void Manifest::apply(ManifestVersion& state, const json::Value& record) {
  const std::string kind = record.get_string("kind", "");
  if (kind == "add") {
    RunKey run{record.at("workflow").as_string(),
               unsigned_field<std::uint32_t>(record, "run_index")};
    // Idempotent: a flush retried across a crash that landed after the
    // commit point re-appends the same run; first record wins.
    if (state.has_run(run)) return;
    for (const json::Value& seg : record.at("segments").as_array()) {
      auto info =
          std::make_shared<const SegmentInfo>(segment_info_from_json(seg));
      state.views[info->view].push_back(std::move(info));
    }
    state.run_order.push_back(std::move(run));
    state.committed_runs = state.run_order.size();
  } else if (kind == "compact") {
    const std::string& view = record.at("view").as_string();
    auto it = state.views.find(view);
    if (it == state.views.end()) {
      throw SegstoreError("manifest: compact record for unknown view " +
                          view);
    }
    std::set<std::string> replaced;
    for (const json::Value& f : record.at("replaces").as_array()) {
      replaced.insert(f.as_string());
    }
    auto merged = std::make_shared<const SegmentInfo>(
        segment_info_from_json(record.at("segment")));
    std::vector<std::shared_ptr<const SegmentInfo>> next;
    next.reserve(it->second.size());
    bool spliced = false;
    std::size_t matched = 0;
    for (auto& segment : it->second) {
      if (replaced.count(segment->file) > 0) {
        ++matched;
        if (!spliced) {
          next.push_back(merged);
          spliced = true;
        }
        continue;
      }
      next.push_back(std::move(segment));
    }
    if (matched != replaced.size()) {
      throw SegstoreError(
          "manifest: compact record replaces segments not live in view " +
          view);
    }
    it->second = std::move(next);
  } else {
    throw SegstoreError("manifest: unknown record kind '" + kind + "'");
  }
}

ManifestVersion Manifest::replay_locked() const {
  ManifestVersion state;
  wal::WalWriter::replay(dir_, [&state](std::string_view payload) {
    apply(state, wire::decode_value(payload));
  });
  return state;
}

void Manifest::install_locked(ManifestVersion next) {
  auto installed = std::make_shared<const ManifestVersion>(std::move(next));
  live_.erase(std::remove_if(live_.begin(), live_.end(),
                             [](const std::weak_ptr<const ManifestVersion>& w) {
                               return w.expired();
                             }),
              live_.end());
  live_.push_back(installed);
  current_ = std::move(installed);
}

std::shared_ptr<const ManifestVersion> Manifest::current() const {
  std::lock_guard lock(mutex_);
  return current_;
}

bool Manifest::commit_add(const RunKey& run,
                          std::vector<SegmentInfo> segments) {
  std::lock_guard lock(mutex_);
  if (writer_ == nullptr) {
    throw SegstoreError("manifest: commit on a read-only manifest");
  }
  if (current_->has_run(run)) return false;
  json::Object record;
  record["kind"] = "add";
  record["workflow"] = run.workflow;
  record["run_index"] = static_cast<std::int64_t>(run.run_index);
  json::Array segs;
  for (const SegmentInfo& info : segments) {
    segs.push_back(segment_info_to_json(info));
  }
  record["segments"] = std::move(segs);
  const json::Value value(std::move(record));
  writer_->append(wire::encode_value(value));
  // Manifest commits are rare (one per run flush / compaction) and are the
  // durability point of the whole flush — always fsync, whatever the
  // segment-WAL sync policy says.
  writer_->sync();
  ++records_;

  ManifestVersion next = *current_;
  apply(next, value);
  install_locked(std::move(next));
  return true;
}

void Manifest::commit_compact(const std::string& view,
                              const std::vector<std::string>& replaces,
                              SegmentInfo merged) {
  std::lock_guard lock(mutex_);
  if (writer_ == nullptr) {
    throw SegstoreError("manifest: commit on a read-only manifest");
  }
  json::Object record;
  record["kind"] = "compact";
  record["view"] = view;
  json::Array files;
  for (const std::string& f : replaces) files.push_back(f);
  record["replaces"] = std::move(files);
  record["segment"] = segment_info_to_json(merged);
  const json::Value value(std::move(record));

  // Validate against the current state before writing: a bad compact
  // record would poison every future replay.
  ManifestVersion next = *current_;
  apply(next, value);

  writer_->append(wire::encode_value(value));
  writer_->sync();
  ++records_;
  install_locked(std::move(next));
}

std::set<std::string> Manifest::pinned_files() const {
  std::lock_guard lock(mutex_);
  std::set<std::string> out;
  for (const auto& weak : live_) {
    if (const auto version = weak.lock()) {
      const auto files = version->files();
      out.insert(files.begin(), files.end());
    }
  }
  return out;
}

std::uint64_t Manifest::records() const {
  std::lock_guard lock(mutex_);
  return records_;
}

}  // namespace recup::segstore
