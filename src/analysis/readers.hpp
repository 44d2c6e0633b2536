// Readers: turn each collection layer's output into DataFrames with shared
// identifier columns (task key, worker address, pthread id, hostname,
// timestamps) so they can be joined — the fusion the paper performs between
// Darshan logs and Dask/Mofka records.
#pragma once

#include <vector>

#include "analysis/dataframe.hpp"
#include "darshan/log_format.hpp"
#include "dtr/recorder.hpp"
#include "mofka/broker.hpp"

namespace recup::analysis {

// --- From in-memory RunData -------------------------------------------------
DataFrame tasks_frame(const dtr::RunData& run);
DataFrame transitions_frame(const dtr::RunData& run);
DataFrame comms_frame(const dtr::RunData& run);
DataFrame warnings_frame(const dtr::RunData& run);
DataFrame steals_frame(const dtr::RunData& run);

// --- From Darshan-analog logs -------------------------------------------------
/// One row per DXT segment: hostname, process, thread_id, file, op, offset,
/// length, start, end.
DataFrame dxt_frame(const std::vector<darshan::LogFile>& logs);
/// One row per (process, file) POSIX record.
DataFrame posix_frame(const std::vector<darshan::LogFile>& logs);

// --- From the NSIGHT-analog GPU collector -----------------------------------
/// One row per kernel launch: node, device, kernel, thread_id, queued,
/// start, end, duration, queue_delay.
DataFrame kernels_frame(const dtr::RunData& run);

// --- From Mofka topics (the in situ / streaming consumption path) ----------
/// Drains the WMS topics of a broker back into record vectors, verifying the
/// streamed provenance path end to end.
struct MofkaRunRecords {
  std::vector<dtr::TransitionRecord> transitions;
  std::vector<dtr::TaskRecord> tasks;
  std::vector<dtr::CommRecord> comms;
  std::vector<dtr::WarningRecord> warnings;
  std::vector<dtr::StealRecord> steals;
};
MofkaRunRecords read_wms_topics(mofka::Broker& broker,
                                const std::string& consumer_group =
                                    "perfrecup");

}  // namespace recup::analysis
