#include "query/catalog.hpp"

#include <algorithm>
#include <utility>

#include "analysis/readers.hpp"
#include "analysis/views.hpp"
#include "query/ir.hpp"

namespace recup::query {

namespace {

analysis::DataFrame base_frame(ViewId view, const dtr::RunData& run) {
  switch (view) {
    case ViewId::kTasks:
      return analysis::tasks_frame(run);
    case ViewId::kTransitions:
      return analysis::transitions_frame(run);
    case ViewId::kIoSegments:
      return analysis::dxt_frame(run.darshan_logs);
    case ViewId::kComms:
      return analysis::comms_frame(run);
    case ViewId::kWarnings:
      return analysis::warnings_frame(run);
    case ViewId::kSteals:
      return analysis::steals_frame(run);
    case ViewId::kTaskIo:
      return analysis::task_io_frame(run);
  }
  throw QueryError("unreachable view id");
}

/// The final served frame of (view, run): the base view with the run
/// identifier columns appended. This exact frame is what the segment
/// backend flushes, so decoding a segment reproduces the memory path
/// byte-for-byte.
analysis::DataFrame materialize_frame(ViewId view, const prov::RunId& id,
                                      const dtr::RunData& run) {
  analysis::DataFrame base = base_frame(view, run);
  // In place: with_column would copy every existing column per call.
  base.add_const_column("workflow", analysis::ColumnType::kString,
                        analysis::Cell(id.workflow));
  base.add_const_column(
      "run", analysis::ColumnType::kInt64,
      analysis::Cell(static_cast<std::int64_t>(id.run_index)));
  return base;
}

segstore::RunKey to_run_key(const prov::RunId& id) {
  return segstore::RunKey{id.workflow, id.run_index};
}

}  // namespace

const std::vector<std::string>& view_names() {
  static const std::vector<std::string> kNames = {
      "tasks", "transitions", "io_segments", "comms",
      "warnings", "steals", "task_io"};
  return kNames;
}

ViewId view_from_name(const std::string& name) {
  const auto& names = view_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<ViewId>(i);
  }
  std::string known;
  for (const auto& n : names) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw QueryError("unknown view '" + name + "' (registered views: " + known +
                   ")");
}

const std::string& view_name(ViewId view) {
  return view_names()[static_cast<std::size_t>(view)];
}

analysis::DataFrame empty_view_frame(ViewId view) {
  static const dtr::RunData kEmptyRun{};
  analysis::DataFrame base = base_frame(view, kEmptyRun);
  base = base.with_column(
      "workflow", analysis::ColumnType::kString,
      [](const analysis::DataFrame&, std::size_t) -> analysis::Cell {
        return std::string();
      });
  return base.with_column(
      "run", analysis::ColumnType::kInt64,
      [](const analysis::DataFrame&, std::size_t) -> analysis::Cell {
        return std::int64_t{0};
      });
}

StoreCatalog::StoreCatalog()
    : mem_runs_(std::make_shared<const std::vector<prov::RunId>>()) {}

StoreCatalog::StoreCatalog(segstore::SegmentStoreConfig config)
    : segstore_(std::make_unique<segstore::SegmentStore>(std::move(config))) {}

bool StoreCatalog::add_run(dtr::RunData run) {
  const prov::RunId id{run.meta.workflow, run.meta.run_index};
  if (segstore_ != nullptr) {
    // Materialize every view's final frame and flush the lot as one
    // atomic manifest commit. The raw records are not retained: a cold
    // start serves from the segments alone.
    std::vector<analysis::DataFrame> frames;
    std::vector<std::pair<std::string, const analysis::DataFrame*>> views;
    frames.reserve(view_names().size());
    views.reserve(view_names().size());
    for (std::size_t v = 0; v < view_names().size(); ++v) {
      frames.push_back(
          materialize_frame(static_cast<ViewId>(v), id, run));
    }
    for (std::size_t v = 0; v < view_names().size(); ++v) {
      views.emplace_back(view_names()[v], &frames[v]);
    }
    return segstore_->flush_run(to_run_key(id), views);
  }

  std::lock_guard lock(store_mutex_);
  if (!store_.try_emplace(id, std::move(run)).second) return false;
  auto next = std::make_shared<std::vector<prov::RunId>>(*mem_runs_);
  next->push_back(id);
  std::sort(next->begin(), next->end());
  mem_runs_ = std::move(next);
  ++mem_epoch_;
  return true;
}

StoreCatalog::Snapshot StoreCatalog::snapshot() const {
  Snapshot snap;
  snap.catalog_ = this;
  if (segstore_ != nullptr) {
    snap.seg_ = segstore_->version();
    snap.epoch_ = snap.seg_->committed_runs;
  } else {
    std::lock_guard lock(store_mutex_);
    snap.mem_runs_ = mem_runs_;
    snap.epoch_ = mem_epoch_;
  }
  return snap;
}

std::size_t StoreCatalog::compact() {
  return segstore_ != nullptr ? segstore_->compact() : 0;
}

std::shared_ptr<const analysis::DataFrame> StoreCatalog::memo_get(
    const FrameKey& key) const {
  std::lock_guard guard(frames_mutex_);
  const auto it = frames_.find(key);
  return it != frames_.end() ? it->second : nullptr;
}

std::shared_ptr<const analysis::DataFrame> StoreCatalog::memo_put(
    const FrameKey& key,
    std::shared_ptr<const analysis::DataFrame> frame) const {
  // Concurrent readers may race to build the same frame; the first insert
  // wins and the duplicate is dropped.
  std::lock_guard guard(frames_mutex_);
  const auto [it, inserted] = frames_.emplace(key, std::move(frame));
  return it->second;
}

std::vector<prov::RunId> StoreCatalog::Snapshot::runs(
    const std::optional<std::string>& workflow,
    const std::optional<std::int64_t>& run_index) const {
  std::vector<prov::RunId> all;
  if (seg_ != nullptr) {
    all.reserve(seg_->run_order.size());
    for (const segstore::RunKey& key : seg_->run_order) {
      all.push_back(prov::RunId{key.workflow, key.run_index});
    }
    // Manifest order is commit order; serve the same (workflow, run_index)
    // ordering as the memory backend so scans concatenate identically.
    std::sort(all.begin(), all.end());
  } else {
    all = *mem_runs_;  // already sorted
  }
  std::vector<prov::RunId> out;
  out.reserve(all.size());
  for (const prov::RunId& id : all) {
    if (workflow && id.workflow != *workflow) continue;
    // Compared in int64: an index outside the stored uint32 range matches
    // no run instead of wrapping onto one.
    if (run_index && static_cast<std::int64_t>(id.run_index) != *run_index) {
      continue;
    }
    out.push_back(id);
  }
  return out;
}

std::shared_ptr<const analysis::DataFrame> StoreCatalog::Snapshot::frame(
    ViewId view, const prov::RunId& id) const {
  const FrameKey key{view, id};
  if (auto hit = catalog_->memo_get(key)) return hit;

  if (seg_ != nullptr) {
    // The pinned version keeps every file it names alive against the
    // writer's compaction GC, so a read error here is genuine.
    auto decoded =
        catalog_->segstore_->read_frame(*seg_, view_name(view), to_run_key(id));
    if (decoded == nullptr) {
      return std::make_shared<const analysis::DataFrame>(
          empty_view_frame(view));
    }
    return catalog_->memo_put(key, std::move(decoded));
  }

  // Memory backend: look the run up under the store mutex, then
  // materialize outside it (map nodes are stable and runs immutable).
  const dtr::RunData* run = nullptr;
  {
    std::lock_guard lock(catalog_->store_mutex_);
    run = &catalog_->store_.at(id);
  }
  auto built = std::make_shared<const analysis::DataFrame>(
      materialize_frame(view, id, *run));
  return catalog_->memo_put(key, std::move(built));
}

std::size_t StoreCatalog::Snapshot::estimated_rows(
    ViewId view, const prov::RunId& id) const {
  if (seg_ != nullptr) {
    const auto location = seg_->locate(view_name(view), to_run_key(id));
    return location ? location->chunk->rows : 0;
  }
  const dtr::RunData* runp = nullptr;
  {
    std::lock_guard lock(catalog_->store_mutex_);
    runp = &catalog_->store_.at(id);
  }
  const dtr::RunData& run = *runp;
  switch (view) {
    case ViewId::kTasks:
      return run.tasks.size();
    case ViewId::kTransitions:
      return run.transitions.size();
    case ViewId::kIoSegments:
    case ViewId::kTaskIo: {
      std::size_t n = 0;
      for (const auto& log : run.darshan_logs) {
        for (const auto& rec : log.dxt) n += rec.segments.size();
      }
      return n;
    }
    case ViewId::kComms:
      return run.comms.size();
    case ViewId::kWarnings:
      return run.warnings.size();
    case ViewId::kSteals:
      return run.steals.size();
  }
  return 0;
}

const segstore::ChunkMeta* StoreCatalog::Snapshot::stats(
    ViewId view, const prov::RunId& id) const {
  if (seg_ == nullptr) return nullptr;
  const auto location = seg_->locate(view_name(view), to_run_key(id));
  return location ? location->chunk : nullptr;
}

}  // namespace recup::query
