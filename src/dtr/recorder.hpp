// RunData: everything one workflow run produced, gathered from all layers —
// the input to PERFRECUP. Also CSV/JSON/darshan-log export of a run
// directory so analysis can run post hoc from files, matching the paper's
// separate-collection / analysis-time-fusion design.
#pragma once

#include <string>
#include <vector>

#include "common/log.hpp"
#include "darshan/log_format.hpp"
#include "dtr/records.hpp"
#include "gpuprof/records.hpp"
#include "json/json.hpp"
#include "platform/sysinfo.hpp"

namespace recup::dtr {

struct RunData {
  RunMetadata meta;
  platform::JobConfiguration job;
  Duration coordination_time = 0.0;

  // Application layer (WMS).
  std::vector<TransitionRecord> transitions;  ///< scheduler + worker side
  std::vector<TaskRecord> tasks;
  std::vector<CommRecord> comms;
  std::vector<WarningRecord> warnings;
  std::vector<StealRecord> steals;
  std::vector<LogRecord> logs;

  // I/O layer (Darshan-analog), one log per worker process.
  std::vector<darshan::LogFile> darshan_logs;

  // GPU layer (NSIGHT-analog kernel traces).
  std::vector<gpuprof::KernelRecord> kernels;

  // Provenance layers 1–2 (hardware, system software + job + WMS config).
  json::Value environment;

  /// Number of task graphs submitted in this run.
  std::size_t graph_count = 0;
};

/// Writes a run directory:
///   meta.json, environment.json, tasks.csv, transitions.csv, comms.csv,
///   warnings.csv, steals.csv, logs.csv, kernels.csv, worker-<n>.rdshan
void write_run_dir(const RunData& run, const std::string& dir);

/// Reads a run directory written by write_run_dir; files other than those
/// listed above are ignored.
RunData read_run_dir(const std::string& dir);

}  // namespace recup::dtr
