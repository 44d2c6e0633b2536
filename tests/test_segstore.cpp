// Segment-store tests: columnar segment round-trip properties, canonical
// dictionary encoding, footer CRC bit-rot detection, zone-map pruning
// soundness, snapshot isolation under concurrent flush/compaction, the
// 10-seed crash-during-flush/compact cold-start oracle (byte-identity
// against in-memory re-ingestion), read replicas serving a live writer,
// fsck, and the unified DurabilityConfig mapping.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chaos/fault.hpp"
#include "common/durability.hpp"
#include "dtr/scheduler.hpp"
#include "mofka/broker.hpp"
#include "query/catalog.hpp"
#include "query/ir.hpp"
#include "query/plan.hpp"
#include "query/wire.hpp"
#include "segstore/manifest.hpp"
#include "segstore/segment.hpp"
#include "segstore/store.hpp"
#include "wire/codec.hpp"

namespace recup {
namespace {

using analysis::Column;
using analysis::ColumnType;
using analysis::DataFrame;
using query::StoreCatalog;
using query::ViewId;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("recup_segstore_" + tag + "_" +
                std::to_string(static_cast<long>(::getpid()))))
                  .string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

std::string dump(const DataFrame& frame) {
  return query::frame_to_json(frame).dump();
}

/// xorshift generator: the property tests need deterministic variety, not
/// statistical quality.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  std::int64_t next_int(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(
                                                       hi - lo + 1));
  }
  double next_double() {
    return static_cast<double>(next() % 2000001) / 1000.0 - 1000.0;
  }
};

DataFrame random_frame(Rng& rng, std::size_t rows) {
  DataFrame f({{"s", ColumnType::kString},
               {"i", ColumnType::kInt64},
               {"d", ColumnType::kDouble}});
  const char* words[] = {"alpha", "beta", "gamma", "", "delta-very-long-value",
                         "epsilon"};
  for (std::size_t r = 0; r < rows; ++r) {
    const double d = (rng.next() % 17 == 0) ? std::nan("") : rng.next_double();
    f.add_row({std::string(words[rng.next() % 6]),
               rng.next_int(-1000000, 1000000), d});
  }
  return f;
}

/// Deterministic run with per-run value ranges so zone maps differ between
/// runs: run `index` holds output_bytes in [base, base + n).
dtr::RunData make_run(const std::string& workflow, std::uint32_t index,
                      int n = 8, std::int64_t bytes_base = 0) {
  dtr::RunData run;
  run.meta.workflow = workflow;
  run.meta.run_index = index;
  for (int i = 0; i < n; ++i) {
    dtr::TaskRecord t;
    t.key = {"job-" + workflow, i};
    t.graph = "g0";
    t.prefix = (i % 2 == 0) ? "ingest" : "train";
    t.worker = static_cast<dtr::WorkerId>(i % 2);
    t.worker_address = "tcp://10.0.0." + std::to_string(i % 2);
    t.thread_id = 100 + static_cast<std::uint64_t>(i);
    t.start_time = 1.0 * i;
    t.end_time = 1.0 * i + 0.5 + 0.1 * (i % 2);
    t.compute_time = 0.4;
    t.output_bytes = static_cast<std::uint64_t>(bytes_base + i);
    run.tasks.push_back(t);

    dtr::TransitionRecord tr;
    tr.key = t.key;
    tr.graph = "g0";
    tr.from_state = "processing";
    tr.to_state = "memory";
    tr.stimulus = "task-finished";
    tr.location = t.worker_address;
    tr.time = t.end_time;
    run.transitions.push_back(tr);

    if (i % 2 == 0) {
      dtr::CommRecord c;
      c.key = t.key;
      c.source = 0;
      c.destination = 1;
      c.bytes = 4096;
      c.start = t.end_time;
      c.end = t.end_time + 0.01;
      run.comms.push_back(c);
    }
  }
  dtr::WarningRecord w;
  w.kind = "gc_collection";
  w.location = "scheduler";
  w.time = 0.5;
  w.blocked_for = 0.2;
  run.warnings.push_back(w);
  return run;
}

std::vector<ViewId> all_views() {
  std::vector<ViewId> views;
  for (std::size_t i = 0; i < query::view_names().size(); ++i) {
    views.push_back(static_cast<ViewId>(i));
  }
  return views;
}

/// Every (view, run) frame of `a` must serialize identically to `b`'s.
void expect_catalogs_identical(const StoreCatalog& a, const StoreCatalog& b) {
  const auto snap_a = a.snapshot();
  const auto snap_b = b.snapshot();
  ASSERT_EQ(snap_a.epoch(), snap_b.epoch());
  const auto runs_a = snap_a.runs(std::nullopt, std::nullopt);
  const auto runs_b = snap_b.runs(std::nullopt, std::nullopt);
  ASSERT_EQ(runs_a, runs_b);
  for (const auto& id : runs_a) {
    for (ViewId view : all_views()) {
      SCOPED_TRACE(query::view_name(view) + "/" + id.workflow + "/" +
                   std::to_string(id.run_index));
      const auto fa = snap_a.frame(view, id);
      const auto fb = snap_b.frame(view, id);
      ASSERT_NE(fa, nullptr);
      ASSERT_NE(fb, nullptr);
      EXPECT_EQ(dump(*fa), dump(*fb));
      EXPECT_EQ(snap_a.estimated_rows(view, id),
                snap_b.estimated_rows(view, id));
    }
  }
}

// ---------------------------------------------------------------------------
// Segment format

TEST(SegstoreSegment, EncodeDecodeRoundTripProperty) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng{seed * 2654435761u + 1};
    std::vector<DataFrame> frames;
    std::vector<segstore::ChunkInput> chunks;
    const std::size_t n_chunks = 1 + rng.next() % 3;
    for (std::size_t c = 0; c < n_chunks; ++c) {
      frames.push_back(random_frame(rng, rng.next() % 40));
    }
    for (std::size_t c = 0; c < n_chunks; ++c) {
      chunks.push_back(
          {segstore::RunKey{"wf", static_cast<std::uint32_t>(c)}, &frames[c]});
    }
    segstore::SegmentInfo info;
    const std::string bytes = segstore::encode_segment("tasks", chunks, &info);
    EXPECT_EQ(segstore::verify_footer(bytes),
              bytes.size() - segstore::kFooterBytes);

    const segstore::DecodedSegment decoded = segstore::decode_segment(bytes);
    ASSERT_EQ(decoded.view, "tasks");
    ASSERT_EQ(decoded.chunks.size(), n_chunks);
    for (std::size_t c = 0; c < n_chunks; ++c) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " chunk " +
                   std::to_string(c));
      EXPECT_EQ(decoded.chunks[c].first, chunks[c].run);
      EXPECT_EQ(dump(decoded.chunks[c].second), dump(frames[c]));
      EXPECT_EQ(info.chunks[c].rows, frames[c].rows());
      // Point read touches only this chunk's payload.
      const DataFrame point =
          segstore::decode_chunk(bytes, info.chunks[c].offset,
                                 &info.chunks[c]);
      EXPECT_EQ(dump(point), dump(frames[c]));
      // Recomputed zone maps agree with the encoder's.
      EXPECT_EQ(decoded.info.chunks[c].columns, info.chunks[c].columns);
    }
  }
}

TEST(SegstoreSegment, CanonicalDictionaryMakesEqualFramesIdenticalBytes) {
  // Same logical rows, different dictionary construction histories: f1 grew
  // its dictionary by row order, f2 carries a permuted dictionary with an
  // unreferenced entry. Canonical re-encoding must emit identical bytes.
  DataFrame f1({{"s", ColumnType::kString}});
  f1.add_row({std::string("beta")});
  f1.add_row({std::string("alpha")});
  f1.add_row({std::string("beta")});

  Column permuted = Column::from_dict(
      "s", {"unused", "alpha", "beta"}, {2, 1, 2});
  const DataFrame f2 = DataFrame::from_columns({permuted});
  ASSERT_EQ(dump(f1), dump(f2));

  segstore::SegmentInfo i1;
  segstore::SegmentInfo i2;
  const segstore::RunKey run{"wf", 0};
  EXPECT_EQ(segstore::encode_segment("v", {{run, &f1}}, &i1),
            segstore::encode_segment("v", {{run, &f2}}, &i2));
}

TEST(SegstoreSegment, FooterDetectsBitRot) {
  DataFrame f({{"i", ColumnType::kInt64}});
  for (int i = 0; i < 100; ++i) f.add_row({std::int64_t{i * 7}});
  segstore::SegmentInfo info;
  std::string bytes =
      segstore::encode_segment("v", {{segstore::RunKey{"wf", 0}, &f}}, &info);
  ASSERT_NO_THROW(segstore::verify_footer(bytes));

  std::string body_flip = bytes;
  body_flip[body_flip.size() / 2] ^= 0x40;
  EXPECT_THROW(segstore::verify_footer(body_flip), segstore::SegstoreError);

  std::string truncated = bytes.substr(0, bytes.size() - 3);
  EXPECT_THROW(segstore::verify_footer(truncated), segstore::SegstoreError);

  std::string footer_flip = bytes;
  footer_flip.back() ^= 0x01;  // footer magic
  EXPECT_THROW(segstore::verify_footer(footer_flip), segstore::SegstoreError);

  EXPECT_THROW(segstore::verify_footer(std::string_view("tiny")),
               segstore::SegstoreError);
}

TEST(SegstoreSegment, StatsHandleNaNEmptyAndUnreferencedDictEntries) {
  Column with_nan("d", ColumnType::kDouble);
  with_nan.push_f64(1.0);
  with_nan.push_f64(std::nan(""));
  with_nan.push_f64(-5.0);
  const segstore::ColumnStats nan_stats = segstore::compute_stats(with_nan);
  // Any NaN row poisons the min/max range; pruning must see "no range"
  // rather than a range that silently excludes the NaN row.
  EXPECT_FALSE(nan_stats.dbl_valid);
  EXPECT_FALSE(nan_stats.numeric_range().has_value());

  const Column empty_int("i", ColumnType::kInt64);
  const segstore::ColumnStats empty_stats =
      segstore::compute_stats(empty_int);
  EXPECT_EQ(empty_stats.rows, 0u);
  EXPECT_GT(empty_stats.int_min, empty_stats.int_max);  // empty sentinel

  // String stats cover referenced values only: the unused "zzz" dictionary
  // entry must not widen the range.
  const Column strings =
      Column::from_dict("s", {"zzz", "mmm", "aaa"}, {1, 2, 1});
  const segstore::ColumnStats str_stats = segstore::compute_stats(strings);
  ASSERT_TRUE(str_stats.str_valid);
  EXPECT_EQ(str_stats.str_min, "aaa");
  EXPECT_EQ(str_stats.str_max, "mmm");
}

// ---------------------------------------------------------------------------
// Zone-map pruning

TEST(SegstorePruning, StatsMayMatchNeverPrunesAMatchingRow) {
  // Property: whenever stats_may_match says "prune", zero rows match the
  // predicate. (The reverse — may_match with zero matching rows — is
  // allowed: zone maps are conservative.)
  using query::CmpOp;
  const CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                       CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
  std::size_t pruned_checked = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng{seed * 9176423u + 3};
    const DataFrame frame = random_frame(rng, 1 + rng.next() % 12);
    for (std::size_t col = 0; col < frame.width(); ++col) {
      const Column& column = frame.col(col);
      const segstore::ColumnStats stats = segstore::compute_stats(column);
      query::Predicate pred;
      pred.column = column.name();
      pred.op = ops[rng.next() % 6];
      switch (column.type()) {
        case ColumnType::kInt64:
          pred.value = analysis::Cell(rng.next_int(-1000000, 1000000));
          break;
        case ColumnType::kDouble:
          pred.value = analysis::Cell(rng.next_double());
          break;
        case ColumnType::kString: {
          const char* probes[] = {"alpha", "beta", "zzz", "", "aa"};
          pred.value = analysis::Cell(std::string(probes[rng.next() % 5]));
          if (rng.next() % 4 == 0) pred.op = CmpOp::kContains;
          break;
        }
      }
      if (!query::stats_may_match(stats, pred)) {
        ++pruned_checked;
        EXPECT_EQ(query::apply_predicates(frame, {pred}).rows(), 0u)
            << "seed " << seed << " column " << column.name();
      }
    }
  }
  // The generator must actually exercise the prune path.
  EXPECT_GT(pruned_checked, 50u);
}

TEST(SegstorePruning, PlannerPrunesRunsByZoneMapsWithIdenticalResults) {
  TempDir dir("zoneprune");
  segstore::SegmentStoreConfig config;
  config.dir = dir.str();
  StoreCatalog durable(config);
  StoreCatalog memory;
  for (std::uint32_t r = 0; r < 3; ++r) {
    // Disjoint output_bytes ranges per run: [0,8), [100000,100008), ...
    durable.add_run(make_run("W", r, 8, 100000 * static_cast<int>(r)));
    memory.add_run(make_run("W", r, 8, 100000 * static_cast<int>(r)));
  }
  const query::Query q = query::parse_query(std::string(
      R"({"from": "tasks",
          "where": [{"col": "output_bytes", "op": ">", "value": 150000}]})"));

  const query::Plan durable_plan = query::plan_query(q, durable.snapshot());
  EXPECT_EQ(durable_plan.total_runs, 3u);
  EXPECT_EQ(durable_plan.zone_pruned, 2u);  // runs 0 and 1 can never match
  ASSERT_EQ(durable_plan.runs.size(), 1u);
  EXPECT_EQ(durable_plan.runs[0].run_index, 2u);

  // The memory backend has no zone maps: nothing pruned, same answer.
  const query::Plan memory_plan = query::plan_query(q, memory.snapshot());
  EXPECT_EQ(memory_plan.zone_pruned, 0u);
  EXPECT_EQ(memory_plan.runs.size(), 3u);

  const auto durable_result = query::execute_query(q, durable, nullptr);
  const auto memory_result = query::execute_query(q, memory, nullptr);
  EXPECT_EQ(durable_result.frame->rows(), 8u);  // run 2: bytes 200000..200007
  EXPECT_EQ(dump(*durable_result.frame), dump(*memory_result.frame));
}

// ---------------------------------------------------------------------------
// Durable catalog vs memory catalog

TEST(SegstoreCatalog, DurableBackendMatchesMemoryBackend) {
  TempDir dir("parity");
  segstore::SegmentStoreConfig config;
  config.dir = dir.str();
  StoreCatalog durable(config);
  StoreCatalog memory;
  for (std::uint32_t r = 0; r < 3; ++r) {
    durable.add_run(make_run("A", r, 6 + static_cast<int>(r)));
    memory.add_run(make_run("A", r, 6 + static_cast<int>(r)));
  }
  durable.add_run(make_run("B", 0, 5));
  memory.add_run(make_run("B", 0, 5));
  // Idempotent re-publication on both backends.
  EXPECT_FALSE(durable.add_run(make_run("B", 0, 5)));
  EXPECT_FALSE(memory.add_run(make_run("B", 0, 5)));
  expect_catalogs_identical(durable, memory);

  // The durable snapshot exposes zone maps; the memory one does not.
  const auto snap = durable.snapshot();
  const prov::RunId id{"A", 0};
  ASSERT_NE(snap.stats(ViewId::kTasks, id), nullptr);
  EXPECT_EQ(snap.stats(ViewId::kTasks, id)->rows, 6u);
  EXPECT_EQ(memory.snapshot().stats(ViewId::kTasks, id), nullptr);
}

// ---------------------------------------------------------------------------
// Snapshot isolation

TEST(SegstoreSnapshot, PinnedVersionSurvivesCompactionAndGC) {
  TempDir dir("pin");
  segstore::SegmentStoreConfig config;
  config.dir = dir.str();
  config.compact_min_segments = 2;
  StoreCatalog catalog(config);
  for (std::uint32_t r = 0; r < 4; ++r) {
    catalog.add_run(make_run("W", r, 4));
  }
  const auto pinned = catalog.snapshot();
  std::vector<std::string> before;
  for (const auto& id : pinned.runs(std::nullopt, std::nullopt)) {
    before.push_back(dump(*pinned.frame(ViewId::kTasks, id)));
  }

  EXPECT_GT(catalog.compact(), 0u);
  catalog.segment_store()->collect_garbage();

  // Compaction rewrites files, not logical content: the epoch is unchanged
  // and the pinned snapshot still serves every frame it did before.
  const auto after = catalog.snapshot();
  EXPECT_EQ(after.epoch(), pinned.epoch());
  const auto runs = pinned.runs(std::nullopt, std::nullopt);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(dump(*pinned.frame(ViewId::kTasks, runs[i])), before[i]);
    EXPECT_EQ(dump(*after.frame(ViewId::kTasks, runs[i])), before[i]);
  }
}

TEST(SegstoreSnapshot, IsolationTortureUnderConcurrentFlushAndCompact) {
  TempDir dir("torture");
  segstore::SegmentStoreConfig config;
  config.dir = dir.str();
  config.compact_min_segments = 3;
  StoreCatalog catalog(config);
  constexpr std::uint32_t kRuns = 24;
  catalog.add_run(make_run("W", 0, 4));

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread writer([&] {
    for (std::uint32_t r = 1; r < kRuns; ++r) {
      catalog.add_run(make_run("W", r, 4 + static_cast<int>(r % 3)));
      if (r % 4 == 0) {
        catalog.compact();
        catalog.segment_store()->collect_garbage();
      }
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      query::Epoch last_epoch = 0;
      while (!done.load()) {
        const auto snap = catalog.snapshot();
        // Epochs only move forward, and a snapshot's run list is exactly
        // its epoch — never a half-published state.
        ASSERT_GE(snap.epoch(), last_epoch);
        last_epoch = snap.epoch();
        const auto runs = snap.runs(std::nullopt, std::nullopt);
        ASSERT_EQ(runs.size(), snap.epoch());
        for (const auto& id : runs) {
          const auto frame = snap.frame(ViewId::kTasks, id);
          ASSERT_NE(frame, nullptr);
          ASSERT_EQ(frame->rows(),
                    4u + static_cast<std::size_t>(id.run_index % 3));
          ++reads;
        }
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(catalog.snapshot().epoch(), kRuns);
  EXPECT_TRUE(catalog.segment_store()->fsck().ok());
}

// ---------------------------------------------------------------------------
// Crash oracle

TEST(SegstoreCrashOracle, TenSeedColdStartByteIdentityUnderChaos) {
  std::uint64_t total_recoveries = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TempDir dir("oracle_" + std::to_string(seed));
    const auto runs = [&] {
      std::vector<dtr::RunData> all;
      for (std::uint32_t r = 0; r < 3; ++r) {
        all.push_back(make_run("A", r, 4 + static_cast<int>((seed + r) % 5)));
      }
      all.push_back(make_run("B", 0, 6));
      return all;
    };

    chaos::FaultPlan plan;
    plan.seed = seed;
    chaos::SiteSpec spec;
    spec.process_crash_restart = 0.10;
    spec.transient_error = 0.05;
    plan.sites[chaos::sites::kSegstoreFlush] = spec;
    plan.sites[chaos::sites::kSegstoreCompact] = spec;
    chaos::FaultInjector injector(plan);

    {
      segstore::SegmentStoreConfig config;
      config.dir = dir.str();
      config.compact_min_segments = 2;
      StoreCatalog catalog(config);
      catalog.segment_store()->set_fault_injector(&injector);
      for (auto& run : runs()) catalog.add_run(std::move(run));
      catalog.compact();
      total_recoveries += catalog.segment_store()->recoveries();
    }  // catalog destroyed; only the on-disk state survives

    // Cold start from the manifest + CRC footer scan...
    segstore::SegmentStoreConfig cold_config;
    cold_config.dir = dir.str();
    StoreCatalog cold(cold_config);
    EXPECT_TRUE(cold.segment_store()->fsck().ok());
    // ...must serve byte-for-byte what re-ingesting into memory serves.
    StoreCatalog reingested;
    for (auto& run : runs()) reingested.add_run(std::move(run));
    expect_catalogs_identical(cold, reingested);
  }
  // The plan must actually have crashed flushes/compactions somewhere
  // across the ten seeds, or this oracle proves nothing.
  EXPECT_GT(total_recoveries, 0u);
}

// ---------------------------------------------------------------------------
// Read replicas

TEST(SegstoreReplica, TwoReplicasServeOneLiveWriterDirectory) {
  TempDir dir("replica");
  segstore::SegmentStoreConfig writer_config;
  writer_config.dir = dir.str();
  writer_config.compact_min_segments = 3;
  StoreCatalog writer(writer_config);
  constexpr std::uint32_t kRuns = 16;
  // Tasks-per-run prefix sums let a replica validate any epoch it observes.
  std::vector<std::size_t> prefix_rows{0};
  const auto run_rows = [](std::uint32_t r) {
    return 4u + static_cast<std::size_t>(r % 3);
  };
  for (std::uint32_t r = 0; r < kRuns; ++r) {
    prefix_rows.push_back(prefix_rows.back() + run_rows(r));
  }
  writer.add_run(make_run("W", 0, static_cast<int>(run_rows(0))));

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> replica_reads{0};
  std::vector<std::thread> replicas;
  for (int t = 0; t < 2; ++t) {
    replicas.emplace_back([&] {
      segstore::SegmentStoreConfig replica_config;
      replica_config.dir = dir.str();
      replica_config.read_only = true;
      StoreCatalog replica(replica_config);
      const query::Query q =
          query::parse_query(std::string(R"({"from": "tasks"})"));
      while (!done.load()) {
        replica.refresh();
        const auto snap = replica.snapshot();
        ASSERT_LE(snap.epoch(), kRuns);
        ASSERT_EQ(snap.runs(std::nullopt, std::nullopt).size(), snap.epoch());
        const auto result = query::execute_query(q, replica, nullptr);
        ASSERT_NE(result.frame, nullptr);
        ASSERT_EQ(result.frame->rows(), prefix_rows[result.epoch]);
        ++replica_reads;
      }
      // Final refresh sees everything the writer committed.
      replica.refresh();
      const auto final_result = query::execute_query(q, replica, nullptr);
      EXPECT_EQ(final_result.epoch, kRuns);
      EXPECT_EQ(final_result.frame->rows(), prefix_rows[kRuns]);
    });
  }

  for (std::uint32_t r = 1; r < kRuns; ++r) {
    writer.add_run(make_run("W", r, static_cast<int>(run_rows(r))));
    if (r % 5 == 0) {
      writer.compact();
      writer.segment_store()->collect_garbage();
    }
  }
  done.store(true);
  for (auto& t : replicas) t.join();
  EXPECT_GT(replica_reads.load(), 0u);
}

// ---------------------------------------------------------------------------
// Fsck

TEST(SegstoreFsck, CleanStorePassesAndBitRotFails) {
  TempDir dir("fsck");
  {
    segstore::SegmentStoreConfig config;
    config.dir = dir.str();
    StoreCatalog catalog(config);
    for (std::uint32_t r = 0; r < 2; ++r) {
      catalog.add_run(make_run("W", r, 8));
    }
    const auto report = catalog.segment_store()->fsck();
    EXPECT_TRUE(report.ok());
    EXPECT_GT(report.segments_checked, 0u);
    EXPECT_GT(report.rows_checked, 0u);
  }

  // Flip one byte in the body of the largest segment file.
  std::string victim;
  std::uintmax_t victim_size = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.str())) {
    if (entry.path().extension() == ".rsg" &&
        entry.file_size() > victim_size) {
      victim = entry.path().string();
      victim_size = entry.file_size();
    }
  }
  ASSERT_FALSE(victim.empty());
  {
    std::fstream file(victim, std::ios::in | std::ios::out |
                                  std::ios::binary);
    file.seekg(static_cast<std::streamoff>(victim_size / 2));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    file.seekp(static_cast<std::streamoff>(victim_size / 2));
    file.write(&byte, 1);
  }

  segstore::SegmentStoreConfig lenient;
  lenient.dir = dir.str();
  lenient.read_only = true;
  lenient.verify_on_open = false;
  const segstore::SegmentStore corrupted(lenient);
  const auto report = corrupted.fsck();
  EXPECT_FALSE(report.ok());

  // The cold-start CRC footer scan refuses the corrupted store outright.
  segstore::SegmentStoreConfig strict;
  strict.dir = dir.str();
  strict.read_only = true;
  EXPECT_THROW(segstore::SegmentStore{strict}, segstore::SegstoreError);
}

// ---------------------------------------------------------------------------
// Unified durability config

TEST(UnifiedDurability, ComponentDirsAndLegacyFactories) {
  DurabilityConfig config;
  EXPECT_FALSE(config.enabled());
  EXPECT_EQ(config.broker_dir(), "");

  config.dir = "/runs/demo";
  config.scheduler.checkpoint_every = 64;
  config.scheduler.compact_on_checkpoint = true;
  config.scheduler.wal.sync = wal::SyncPolicy::kOnAppend;
  config.ingest.dir = "/fast-ssd/cursors";  // per-component override
  config.segstore.compact_min_segments = 7;
  config.segstore.mmap_reads = false;

  EXPECT_TRUE(config.enabled());
  EXPECT_EQ(config.broker_dir(), "/runs/demo/broker");
  EXPECT_EQ(config.scheduler_dir(), "/runs/demo/scheduler");
  EXPECT_EQ(config.ingest_dir(), "/fast-ssd/cursors");
  EXPECT_EQ(config.segstore_dir(), "/runs/demo/segstore");

  const mofka::BrokerDurability broker = mofka::BrokerDurability::from(config);
  EXPECT_EQ(broker.dir, "/runs/demo/broker");

  const dtr::SchedulerDurability scheduler =
      dtr::SchedulerDurability::from(config);
  EXPECT_EQ(scheduler.dir, "/runs/demo/scheduler");
  EXPECT_EQ(scheduler.checkpoint_every, 64u);
  EXPECT_TRUE(scheduler.compact_on_checkpoint);
  EXPECT_EQ(scheduler.wal.sync, wal::SyncPolicy::kOnAppend);

  const segstore::SegmentStoreConfig store =
      segstore::SegmentStoreConfig::from(config);
  EXPECT_EQ(store.dir, "/runs/demo/segstore");
  EXPECT_EQ(store.compact_min_segments, 7u);
  EXPECT_FALSE(store.mmap_reads);
  EXPECT_FALSE(store.read_only);
}

TEST(UnifiedDurability, JsonNestedShapeRoundTrips) {
  DurabilityConfig config;
  config.dir = "/runs/x";
  config.broker.wal.segment_bytes = 1024;
  config.broker.wal.sync = wal::SyncPolicy::kOnAppend;
  config.scheduler.checkpoint_every = 16;
  config.scheduler.compact_on_checkpoint = true;
  config.ingest.dir = "/elsewhere";
  config.segstore.compact_min_segments = 5;
  config.segstore.compact_max_bytes = 1 << 20;
  config.segstore.verify_on_open = false;

  const DurabilityConfig back = durability_from_json(to_json(config));
  EXPECT_EQ(back.dir, config.dir);
  EXPECT_EQ(back.broker.wal.segment_bytes, 1024u);
  EXPECT_EQ(back.broker.wal.sync, wal::SyncPolicy::kOnAppend);
  EXPECT_EQ(back.scheduler.checkpoint_every, 16u);
  EXPECT_TRUE(back.scheduler.compact_on_checkpoint);
  EXPECT_EQ(back.ingest.dir, "/elsewhere");
  EXPECT_EQ(back.segstore.compact_min_segments, 5u);
  EXPECT_EQ(back.segstore.compact_max_bytes, 1u << 20);
  EXPECT_FALSE(back.segstore.verify_on_open);
}

TEST(UnifiedDurability, RetiredFlatAliasesAreIgnored) {
  // The pre-unification flat names are unknown keys now: they set nothing.
  const DurabilityConfig parsed = durability_from_json(json::parse(R"({
    "durability_dir": "/old/root",
    "checkpoint_every": 9,
    "compact_on_checkpoint": true,
    "sync": "on_append",
    "segment_bytes": 2048
  })"));
  const DurabilityConfig defaults;
  EXPECT_TRUE(parsed.dir.empty());
  EXPECT_EQ(parsed.scheduler.checkpoint_every,
            defaults.scheduler.checkpoint_every);
  EXPECT_EQ(parsed.scheduler.compact_on_checkpoint,
            defaults.scheduler.compact_on_checkpoint);
  EXPECT_EQ(parsed.broker.wal.sync, defaults.broker.wal.sync);
  EXPECT_EQ(parsed.segstore.wal.sync, defaults.segstore.wal.sync);
  EXPECT_EQ(parsed.ingest.wal.segment_bytes,
            defaults.ingest.wal.segment_bytes);
  EXPECT_EQ(to_json(parsed).dump(), to_json(defaults).dump());
}

TEST(SegstoreManifest, JsonTextRecordIsATypedError) {
  // Manifest records are wire-encoded only: a JSON-text record is
  // corruption, reported as a typed wire::WireError by writer and
  // read-only replay alike.
  TempDir dir("manifest_json");
  {
    wal::WalWriter writer(dir.str());
    writer.append(R"({"op":"add","run":{"workflow":"w","run_index":0}})");
  }
  EXPECT_THROW((void)segstore::Manifest(dir.str(), {}, /*read_only=*/false),
               wire::WireError);
  EXPECT_THROW((void)segstore::Manifest(dir.str(), {}, /*read_only=*/true),
               wire::WireError);
}

}  // namespace
}  // namespace recup
