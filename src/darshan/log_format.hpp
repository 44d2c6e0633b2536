// Binary log format for Darshan-analog logs (".rdshan" files).
//
// Layout: magic + version header, job header, POSIX record array, DXT record
// array. All integers and doubles fixed width in host byte order, so a log
// reads back only on a host of the same endianness; strings length-prefixed.
// One log file per instrumented worker process per run, mirroring how the
// paper collects one Darshan log per Dask worker.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "darshan/records.hpp"

namespace recup::darshan {

struct LogFile {
  JobHeader job;
  std::vector<PosixRecord> posix;
  std::vector<DxtRecord> dxt;
};

class LogFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Serializes a log to `path`. Throws LogFormatError on I/O failure.
void write_log(const std::string& path, const LogFile& log);

/// Parses a log from `path`. Throws LogFormatError on corruption.
LogFile read_log(const std::string& path);

/// In-memory (de)serialization, used by tests and by in situ shipping of
/// Darshan records through Mofka (the paper's stated future work, provided
/// here as an option).
std::string serialize_log(const LogFile& log);
LogFile deserialize_log(const std::string& bytes);

}  // namespace recup::darshan
