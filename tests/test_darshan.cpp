// Unit tests for the Darshan-analog: POSIX counters, DXT tracing with
// thread ids, buffer-limit truncation, log format round trip, heatmaps.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>

#include "darshan/heatmap.hpp"
#include "darshan/log_format.hpp"
#include "darshan/runtime.hpp"

namespace recup::darshan {
namespace {

TEST(Runtime, PosixCountersAccumulate) {
  Runtime rt(3, "nid001");
  rt.on_open("/f", 11, 0.0, 0.001);
  rt.on_read("/f", 11, 0, 4096, 0.01, 0.02);
  rt.on_read("/f", 11, 4096, 4096, 0.03, 0.05);
  rt.on_write("/f", 12, 0, 100, 0.06, 0.07);
  rt.on_close("/f", 11, 0.08, 0.081);

  const auto records = rt.posix_records();
  ASSERT_EQ(records.size(), 1u);
  const PosixRecord& rec = records[0];
  EXPECT_EQ(rec.file_path, "/f");
  EXPECT_EQ(rec.process_id, 3u);
  EXPECT_EQ(rec.hostname, "nid001");
  EXPECT_EQ(rec.opens, 1u);
  EXPECT_EQ(rec.reads, 2u);
  EXPECT_EQ(rec.writes, 1u);
  EXPECT_EQ(rec.bytes_read, 8192u);
  EXPECT_EQ(rec.bytes_written, 100u);
  EXPECT_EQ(rec.max_byte_read, 8192u);
  EXPECT_NEAR(rec.read_time, 0.03, 1e-12);
  EXPECT_NEAR(rec.write_time, 0.01, 1e-12);
  EXPECT_GT(rec.meta_time, 0.0);
  EXPECT_DOUBLE_EQ(rec.first_read, 0.01);
  EXPECT_DOUBLE_EQ(rec.last_write, 0.07);
  EXPECT_EQ(rec.read_sizes.bucket(2), 2u);  // 4 KiB ops in 1K_10K
}

TEST(Runtime, DxtCapturesThreadIds) {
  Runtime rt(0, "host");
  rt.on_read("/f", 0xAA, 0, 10, 0.0, 0.1);
  rt.on_write("/f", 0xBB, 0, 20, 0.2, 0.3);
  const auto records = rt.dxt_records();
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(records[0].segments.size(), 2u);
  EXPECT_EQ(records[0].segments[0].thread_id, 0xAAu);
  EXPECT_EQ(records[0].segments[0].op, IoOp::kRead);
  EXPECT_EQ(records[0].segments[1].thread_id, 0xBBu);
  EXPECT_EQ(records[0].segments[1].op, IoOp::kWrite);
}

TEST(Runtime, ModulesCanBeDisabled) {
  RuntimeConfig config;
  config.enable_posix = false;
  Runtime rt(0, "host", config);
  rt.on_read("/f", 1, 0, 10, 0.0, 0.1);
  EXPECT_TRUE(rt.posix_records().empty());
  EXPECT_EQ(rt.dxt_records().size(), 1u);

  RuntimeConfig config2;
  config2.enable_dxt = false;
  Runtime rt2(0, "host", config2);
  rt2.on_read("/f", 1, 0, 10, 0.0, 0.1);
  EXPECT_TRUE(rt2.dxt_records().empty());
  EXPECT_EQ(rt2.posix_records().size(), 1u);
}

TEST(Dxt, PerRecordTruncation) {
  DxtConfig config;
  config.max_segments_per_record = 3;
  DxtModule dxt(config);
  for (int i = 0; i < 5; ++i) {
    dxt.record(0, "h", "/f", DxtSegment{IoOp::kRead, 0, 1, 0.0, 0.1, 1});
  }
  const auto records = dxt.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].segments.size(), 3u);
  EXPECT_TRUE(records[0].truncated);
  EXPECT_EQ(records[0].dropped_segments, 2u);
  EXPECT_EQ(dxt.total_dropped(), 2u);
}

TEST(Dxt, MemoryBudgetSharedWithRecordOverhead) {
  // Budget 10 units, overhead 2/record: 2 files cost 4 units, leaving 6
  // segment slots in total (the paper's footnote-9 mechanism).
  DxtConfig config;
  config.memory_budget_units = 10;
  config.record_overhead_units = 2;
  DxtModule dxt(config);
  for (int i = 0; i < 10; ++i) {
    const std::string file = i % 2 == 0 ? "/a" : "/b";
    dxt.record(0, "h", file, DxtSegment{IoOp::kRead, 0, 1, 0.0, 0.1, 1});
  }
  EXPECT_EQ(dxt.total_segments(), 6u);
  EXPECT_EQ(dxt.total_dropped(), 4u);
}

TEST(Dxt, BudgetBlocksNewRecordsEntirely) {
  DxtConfig config;
  config.memory_budget_units = 3;  // one record (2) + one segment (1)
  config.record_overhead_units = 2;
  DxtModule dxt(config);
  dxt.record(0, "h", "/a", DxtSegment{IoOp::kRead, 0, 1, 0.0, 0.1, 1});
  dxt.record(0, "h", "/b", DxtSegment{IoOp::kRead, 0, 1, 0.0, 0.1, 1});
  // /b gets only an empty, truncated marker record.
  const auto records = dxt.records();
  ASSERT_EQ(records.size(), 2u);
  const auto& b = records[0].file_path == "/b" ? records[0] : records[1];
  EXPECT_TRUE(b.segments.empty());
  EXPECT_TRUE(b.truncated);
  EXPECT_EQ(dxt.total_dropped(), 1u);
  EXPECT_EQ(dxt.total_segments(), 1u);
}

TEST(Dxt, BudgetIsPerProcess) {
  DxtConfig config;
  config.memory_budget_units = 3;
  config.record_overhead_units = 2;
  DxtModule dxt(config);
  dxt.record(0, "h", "/a", DxtSegment{IoOp::kRead, 0, 1, 0.0, 0.1, 1});
  dxt.record(1, "h", "/a", DxtSegment{IoOp::kRead, 0, 1, 0.0, 0.1, 1});
  EXPECT_EQ(dxt.total_segments(), 2u);  // separate budgets
}

LogFile make_log() {
  LogFile log;
  log.job.job_id = "job-42";
  log.job.executable = "wf";
  log.job.nprocs = 8;
  log.job.start_time = 0.0;
  log.job.end_time = 123.5;
  log.job.run_seed = 999;

  Runtime rt(2, "nid007");
  rt.on_open("/data/x", 5, 0.0, 0.001);
  rt.on_read("/data/x", 5, 0, 4 << 20, 0.01, 0.2);
  rt.on_write("/out/y", 6, 0, 1024, 0.3, 0.31);
  log.posix = rt.posix_records();
  log.dxt = rt.dxt_records();
  return log;
}

TEST(LogFormat, SerializeRoundTrip) {
  const LogFile log = make_log();
  const LogFile back = deserialize_log(serialize_log(log));
  EXPECT_EQ(back.job.job_id, "job-42");
  EXPECT_EQ(back.job.nprocs, 8u);
  EXPECT_EQ(back.job.run_seed, 999u);
  ASSERT_EQ(back.posix.size(), 2u);
  ASSERT_EQ(back.dxt.size(), 2u);
  EXPECT_EQ(back.posix[0].file_path, "/data/x");
  EXPECT_EQ(back.posix[0].reads, 1u);
  EXPECT_EQ(back.posix[0].bytes_read, static_cast<std::uint64_t>(4 << 20));
  // Histograms round-trip by bucket count.
  EXPECT_EQ(back.posix[0].read_sizes.bucket(6), 1u);  // 4M_10M
  ASSERT_EQ(back.dxt[0].segments.size(), 1u);
  EXPECT_EQ(back.dxt[0].segments[0].thread_id, 5u);
}

TEST(LogFormat, FileRoundTrip) {
  const std::string path =
      std::filesystem::temp_directory_path() / "recup_test.rdshan";
  write_log(path, make_log());
  const LogFile back = read_log(path);
  EXPECT_EQ(back.posix.size(), 2u);
  std::filesystem::remove(path);
}

TEST(LogFormat, CorruptionDetected) {
  std::string bytes = serialize_log(make_log());
  EXPECT_THROW(deserialize_log(bytes.substr(0, bytes.size() / 2)),
               LogFormatError);
  bytes[0] = 'X';
  EXPECT_THROW(deserialize_log(bytes), LogFormatError);
  EXPECT_THROW(deserialize_log(serialize_log(make_log()) + "junk"),
               LogFormatError);
  EXPECT_THROW(read_log("/nonexistent.rdshan"), LogFormatError);
}

/// Overwrites the host-order u64 ending `from_end` bytes before the end.
void set_u64(std::string& bytes, std::size_t from_end, std::uint64_t value) {
  std::memcpy(bytes.data() + bytes.size() - from_end, &value, sizeof(value));
}

TEST(LogFormat, HugePosixCountRejectedBeforeAllocating) {
  // An empty log ends with its POSIX and DXT record counts.
  std::string bytes = serialize_log(LogFile{});
  set_u64(bytes, 16, std::uint64_t{1} << 40);
  EXPECT_THROW(deserialize_log(bytes), LogFormatError);
}

TEST(LogFormat, HugeSegmentCountRejectedBeforeAllocating) {
  // A log whose one DXT record has no segments ends with the segment count.
  LogFile log;
  log.dxt.push_back(DxtRecord{});
  std::string bytes = serialize_log(log);
  set_u64(bytes, 8, std::uint64_t{1} << 40);
  EXPECT_THROW(deserialize_log(bytes), LogFormatError);
}

TEST(LogFormat, UnknownDxtOpRejected) {
  LogFile log;
  log.dxt.push_back(DxtRecord{});
  log.dxt[0].segments.push_back(DxtSegment{IoOp::kWrite, 0, 1, 0.0, 0.1, 1});
  std::string bytes = serialize_log(log);
  // The segment is the last 41 bytes: op, offset, length, start, end, tid.
  bytes[bytes.size() - 41] = 2;
  EXPECT_THROW(deserialize_log(bytes), LogFormatError);
}

TEST(Heatmap, SingleBinAccumulation) {
  Heatmap h(HeatmapConfig{1.0, 100});
  h.add(0, IoOp::kRead, 1000, 0.2, 0.8);
  h.add(0, IoOp::kRead, 500, 0.1, 0.9);
  h.add(0, IoOp::kWrite, 200, 0.5, 0.6);
  EXPECT_DOUBLE_EQ(h.bytes(0, IoOp::kRead, 0), 1500.0);
  EXPECT_DOUBLE_EQ(h.bytes(0, IoOp::kWrite, 0), 200.0);
  EXPECT_EQ(h.bin_count(), 1u);
}

TEST(Heatmap, SpansSpreadProportionally) {
  Heatmap h(HeatmapConfig{1.0, 100});
  // 4 bytes over [0.5, 2.5): 0.5s in bin0, 1s in bin1, 0.5s in bin2.
  h.add(3, IoOp::kRead, 4, 0.5, 2.5);
  EXPECT_NEAR(h.bytes(3, IoOp::kRead, 0), 1.0, 1e-9);
  EXPECT_NEAR(h.bytes(3, IoOp::kRead, 1), 2.0, 1e-9);
  EXPECT_NEAR(h.bytes(3, IoOp::kRead, 2), 1.0, 1e-9);
  EXPECT_NEAR(h.grand_total(IoOp::kRead), 4.0, 1e-9);
}

TEST(Heatmap, ZeroDurationOpLandsInOneBin) {
  Heatmap h;
  h.add(0, IoOp::kWrite, 100, 5.0, 5.0);
  EXPECT_DOUBLE_EQ(h.bytes(0, IoOp::kWrite, 5), 100.0);
}

TEST(Heatmap, MaxBinsFoldsTail) {
  Heatmap h(HeatmapConfig{1.0, 4});
  h.add(0, IoOp::kRead, 10, 100.0, 100.5);  // beyond max_bins
  EXPECT_DOUBLE_EQ(h.bytes(0, IoOp::kRead, 3), 10.0);
  EXPECT_EQ(h.bin_count(), 4u);
}

TEST(Heatmap, FromDxtConservesBytes) {
  Runtime rt(1, "host");
  rt.on_read("/a", 7, 0, 4096, 0.1, 0.3);
  rt.on_read("/a", 7, 4096, 4096, 1.1, 1.2);
  rt.on_write("/b", 8, 0, 1024, 2.0, 2.4);
  const Heatmap h = Heatmap::from_dxt(rt.dxt_records());
  EXPECT_NEAR(h.grand_total(IoOp::kRead), 8192.0, 1e-6);
  EXPECT_NEAR(h.grand_total(IoOp::kWrite), 1024.0, 1e-6);
  EXPECT_NEAR(h.total_bytes(IoOp::kRead, 0) + h.total_bytes(IoOp::kRead, 1),
              8192.0, 1e-6);
}

TEST(Heatmap, RenderProducesRowPerProcess) {
  Heatmap h;
  h.add(0, IoOp::kRead, 1 << 20, 0.0, 1.0);
  h.add(2, IoOp::kWrite, 1 << 10, 3.0, 4.0);
  const std::string rendered = h.render(20);
  EXPECT_NE(rendered.find("rank 0"), std::string::npos);
  EXPECT_NE(rendered.find("rank 2"), std::string::npos);
}

TEST(Heatmap, InvalidConfigRejected) {
  EXPECT_THROW(Heatmap(HeatmapConfig{0.0, 10}), std::invalid_argument);
  EXPECT_THROW(Heatmap(HeatmapConfig{1.0, 0}), std::invalid_argument);
  Heatmap h;
  EXPECT_THROW(h.add(0, IoOp::kRead, 1, 2.0, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace recup::darshan
