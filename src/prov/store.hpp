// FAIR tabular provenance store (paper §V): all runs' data kept "in a unique
// tabular format, with at least one common identifier between every two
// different data sources". Supports lookup by the shared identifiers the
// paper enumerates: task keys, start/end timestamps, worker addresses, and
// POSIX thread ids. Each run carries hash indexes over those identifiers
// (built once at add_run) so lookups avoid rescanning the task table.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dtr/recorder.hpp"

namespace recup::prov {

struct RunId {
  std::string workflow;
  std::uint32_t run_index = 0;
  auto operator<=>(const RunId&) const = default;
};

class ProvenanceStore {
 public:
  void add_run(dtr::RunData run);

  [[nodiscard]] std::vector<RunId> runs() const;
  [[nodiscard]] const dtr::RunData& run(const RunId& id) const;
  [[nodiscard]] std::vector<const dtr::RunData*> runs_of(
      const std::string& workflow) const;

  // --- Identifier-based lookups ----------------------------------------------
  /// Task records by exact key across all runs of a workflow.
  [[nodiscard]] std::vector<const dtr::TaskRecord*> find_task(
      const std::string& workflow, const dtr::TaskKey& key) const;
  /// Tasks executed on a given thread id in one run (pthread identifier).
  [[nodiscard]] std::vector<const dtr::TaskRecord*> tasks_on_thread(
      const RunId& id, std::uint64_t thread_id) const;
  /// Tasks executing at a given instant in one run (timestamp identifier).
  [[nodiscard]] std::vector<const dtr::TaskRecord*> tasks_at(
      const RunId& id, TimePoint time) const;
  /// Tasks on a given worker address in one run.
  [[nodiscard]] std::vector<const dtr::TaskRecord*> tasks_on_worker(
      const RunId& id, const std::string& address) const;

  [[nodiscard]] std::size_t size() const { return runs_.size(); }

 private:
  /// Per-run lookup structures over the task table. Bucket vectors hold task
  /// indices in record order, so lookups return tasks in their original
  /// order. For timestamp stabbing, tasks are kept sorted by start time with
  /// a running max of end times: a backwards scan from the first start after
  /// `t` can stop as soon as no earlier task can still be executing.
  struct RunIndex {
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_thread;
    std::unordered_map<std::string, std::vector<std::size_t>> by_worker;
    std::unordered_map<std::string, std::vector<std::size_t>> by_key;
    std::vector<std::size_t> by_start;     ///< task indices sorted by start
    std::vector<TimePoint> start_sorted;   ///< start times, same order
    std::vector<TimePoint> max_end_prefix; ///< running max of end times
  };

  [[nodiscard]] const RunIndex& index_for(const RunId& id) const;

  std::map<RunId, dtr::RunData> runs_;
  std::map<RunId, RunIndex> indexes_;
};

}  // namespace recup::prov
