// recup_segstore — operator CLI for the durable columnar segment store.
//
//   recup_segstore synth DIR [--runs N] [--seed S] [--tasks T]
//       Ingest N deterministic synthetic runs through a durable
//       StoreCatalog so DIR holds a real store (demo / test fixture).
//   recup_segstore ls DIR
//       Print the committed manifest: run order, views, segment files,
//       chunk row counts.
//   recup_segstore fsck DIR
//       Full verification pass: every referenced segment is CRC-scanned
//       and decoded, and the manifest's chunk metadata / zone maps are
//       cross-checked against values recomputed from the decoded data.
//       Exits 1 when anything fails; run_checks.sh runs this stage.
//   recup_segstore compact DIR
//       One compaction pass (merge small per-view segments) + garbage
//       collection; prints what changed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "query/catalog.hpp"
#include "segstore/store.hpp"

using namespace recup;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: recup_segstore <synth|ls|fsck|compact> DIR [options]\n"
               "  synth options: --runs N (default 3), --seed S (default 42),\n"
               "                 --tasks T rows per run (default 500)\n");
  return 2;
}

/// Same deterministic generator family as recup_query --synthetic, sized
/// down: the tool seeds fixture stores, it does not benchmark.
dtr::RunData synthetic_run(std::uint32_t index, std::uint64_t seed,
                           int tasks) {
  dtr::RunData run;
  run.meta.workflow = "Synthetic";
  run.meta.run_index = index;
  run.meta.seed = seed;
  const char* prefixes[] = {"read_parquet", "train", "predict", "reduce"};
  std::uint64_t state = seed + index * 7919 + 1;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < tasks; ++i) {
    dtr::TaskRecord t;
    t.key = {std::string(prefixes[i % 4]) + "-syn", i};
    t.graph = "g" + std::to_string(i % 2);
    t.prefix = prefixes[i % 4];
    t.worker = static_cast<dtr::WorkerId>(next() % 8);
    t.worker_address = "tcp://10.0.0." + std::to_string(t.worker);
    t.thread_id = 1000 + t.worker * 4 + next() % 4;
    t.start_time = 0.01 * i;
    t.end_time =
        t.start_time + 0.05 + 0.001 * static_cast<double>(next() % 100);
    t.compute_time = 0.8 * (t.end_time - t.start_time);
    t.output_bytes = 1024 * (next() % 512);
    run.tasks.push_back(t);

    dtr::TransitionRecord tr;
    tr.key = t.key;
    tr.graph = t.graph;
    tr.from_state = "processing";
    tr.to_state = "memory";
    tr.stimulus = "task-finished";
    tr.location = t.worker_address;
    tr.time = t.end_time;
    run.transitions.push_back(tr);
  }
  return run;
}

int cmd_synth(const std::string& dir, int runs, std::uint64_t seed,
              int tasks) {
  segstore::SegmentStoreConfig config;
  config.dir = dir;
  query::StoreCatalog catalog(config);
  const auto before = catalog.snapshot().epoch();
  for (int r = 0; r < runs; ++r) {
    catalog.add_run(synthetic_run(static_cast<std::uint32_t>(r), seed, tasks));
  }
  const auto after = catalog.snapshot().epoch();
  std::printf("synth: %llu run(s) committed (epoch %llu -> %llu) in %s\n",
              static_cast<unsigned long long>(after - before),
              static_cast<unsigned long long>(before),
              static_cast<unsigned long long>(after), dir.c_str());
  return 0;
}

int cmd_ls(const std::string& dir) {
  segstore::SegmentStoreConfig config;
  config.dir = dir;
  config.read_only = true;
  segstore::SegmentStore store(config);
  const auto version = store.version();
  std::printf("epoch %llu, %zu run(s), %zu view(s)\n",
              static_cast<unsigned long long>(version->committed_runs),
              version->run_order.size(), version->views.size());
  for (const auto& run : version->run_order) {
    std::printf("  run %s\n", run.display().c_str());
  }
  for (const auto& [view, segments] : version->views) {
    std::printf("  view %s: %zu segment(s)\n", view.c_str(), segments.size());
    for (const auto& segment : segments) {
      std::uint64_t rows = 0;
      for (const auto& chunk : segment->chunks) rows += chunk.rows;
      std::printf("    %s  %llu bytes, %zu chunk(s), %llu rows\n",
                  segment->file.c_str(),
                  static_cast<unsigned long long>(segment->file_bytes),
                  segment->chunks.size(),
                  static_cast<unsigned long long>(rows));
    }
  }
  return 0;
}

int cmd_fsck(const std::string& dir) {
  segstore::SegmentStoreConfig config;
  config.dir = dir;
  config.read_only = true;
  // The open-time footer scan throws on the first bad segment; fsck() below
  // checks every segment and names each bad file instead.
  config.verify_on_open = false;
  segstore::SegmentStore store(config);
  const auto report = store.fsck();
  std::printf("fsck: %zu segment(s), %zu chunk(s), %llu row(s) checked\n",
              report.segments_checked, report.chunks_checked,
              static_cast<unsigned long long>(report.rows_checked));
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "fsck error: %s\n", error.c_str());
  }
  if (!report.ok()) {
    std::fprintf(stderr, "fsck: FAILED (%zu error(s))\n",
                 report.errors.size());
    return 1;
  }
  std::printf("fsck: OK\n");
  return 0;
}

int cmd_compact(const std::string& dir) {
  segstore::SegmentStoreConfig config;
  config.dir = dir;
  segstore::SegmentStore store(config);
  const std::size_t merges = store.compact();
  const std::size_t deleted = store.collect_garbage();
  std::printf("compact: %zu merge commit(s), %zu file(s) collected\n", merges,
              deleted);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const std::string dir = argv[2];
  int runs = 3;
  int tasks = 500;
  std::uint64_t seed = 42;
  for (int i = 3; i < argc; ++i) {
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--runs") == 0) {
      runs = std::atoi(need("--runs"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(need("--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--tasks") == 0) {
      tasks = std::atoi(need("--tasks"));
    } else {
      return usage();
    }
  }
  try {
    if (cmd == "synth") return cmd_synth(dir, runs, seed, tasks);
    if (cmd == "ls") return cmd_ls(dir);
    if (cmd == "fsck") return cmd_fsck(dir);
    if (cmd == "compact") return cmd_compact(dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "recup_segstore %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
