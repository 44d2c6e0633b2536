// Property-based tests: randomized task graphs and configurations swept via
// parameterized gtest, asserting the runtime's global invariants — the
// properties the provenance analysis relies on being true of the collected
// data.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "analysis/views.hpp"
#include "common/strings.hpp"
#include "dtr/cluster.hpp"
#include "mofka/producer.hpp"
#include "mofka/sequence.hpp"

namespace recup::dtr {
namespace {

/// Builds a random layered DAG: `layers` layers of `width` tasks, each task
/// depending on 0-3 tasks of the previous layer, with randomized compute,
/// output sizes, and optional I/O.
TaskGraph random_graph(RngStream& rng, std::size_t layers, std::size_t width,
                       Vfs& vfs) {
  vfs.register_file("/data/random", 256ULL << 20);
  TaskGraph g("random");
  for (std::size_t layer = 0; layer < layers; ++layer) {
    const std::string group =
        "layer" + std::to_string(layer) + "-" + hex_token(layer * 7 + 1, 4);
    for (std::size_t i = 0; i < width; ++i) {
      TaskSpec t;
      t.key = {group, static_cast<std::int64_t>(i)};
      t.work.compute = rng.uniform(0.001, 0.1);
      t.work.output_bytes =
          static_cast<std::uint64_t>(rng.uniform_int(1024, 8 << 20));
      if (layer > 0) {
        const auto deps = static_cast<std::size_t>(rng.uniform_int(0, 3));
        std::set<std::int64_t> chosen;
        for (std::size_t d = 0; d < deps; ++d) {
          chosen.insert(rng.uniform_int(0, static_cast<std::int64_t>(width) -
                                               1));
        }
        const std::string prev_group =
            "layer" + std::to_string(layer - 1) + "-" +
            hex_token((layer - 1) * 7 + 1, 4);
        for (const auto dep : chosen) {
          t.dependencies.push_back({prev_group, dep});
        }
      }
      if (rng.chance(0.3)) {
        t.work.reads.push_back(
            {"/data/random",
             static_cast<std::uint64_t>(rng.uniform_int(0, 63)) << 20,
             1 << 20, false});
      }
      if (rng.chance(0.2)) {
        t.work.writes.push_back(
            {"/out/random",
             static_cast<std::uint64_t>(rng.uniform_int(0, 63)) << 16,
             1 << 16, true});
      }
      g.add_task(t);
    }
  }
  return g;
}

class RuntimeInvariants : public ::testing::TestWithParam<int> {};

TEST_P(RuntimeInvariants, HoldOnRandomGraphs) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  RngStream rng(seed * 1337 + 1);

  ClusterConfig config;
  config.job.nodes = 1 + seed % 3;
  config.job.workers_per_node = 1 + (seed / 3) % 3;
  config.job.threads_per_worker = 1 + (seed / 9) % 4;
  config.seed = seed;
  Cluster cluster(config);
  const TaskGraph graph = random_graph(
      rng, 3 + seed % 3, 10 + (seed % 5) * 10, cluster.vfs());
  const std::size_t expected = graph.size();
  const RunData run = cluster.run({graph}, "random", 0);

  // 1. Every task executed exactly once and produced a record.
  std::set<std::string> keys;
  for (const auto& t : run.tasks) keys.insert(t.key.to_string());
  EXPECT_EQ(keys.size(), expected);
  EXPECT_EQ(run.tasks.size(), expected);

  // 2. Temporal sanity per record.
  for (const auto& t : run.tasks) {
    EXPECT_LE(t.received_time, t.ready_time);
    EXPECT_LE(t.ready_time, t.start_time);
    EXPECT_LT(t.start_time, t.end_time);
    EXPECT_LE(t.end_time, run.meta.wall_end + 1e-9);
    EXPECT_GE(t.compute_time, 0.0);
    EXPECT_GE(t.io_time, 0.0);
  }

  // 3. Dependencies finished before dependents started.
  std::map<std::string, const TaskRecord*> by_key;
  for (const auto& t : run.tasks) by_key[t.key.to_string()] = &t;
  for (const auto& t : run.tasks) {
    for (const auto& dep : t.dependencies) {
      const auto it = by_key.find(dep.to_string());
      ASSERT_NE(it, by_key.end());
      EXPECT_LE(it->second->end_time, t.start_time + 1e-9)
          << dep.to_string() << " -> " << t.key.to_string();
    }
  }

  // 4. Scheduler transition chains are well-formed and end in memory.
  std::map<std::string, std::string> last_state;
  std::map<std::string, int> memory_count;
  for (const auto& tr : run.transitions) {
    if (tr.location != "scheduler") continue;
    const std::string key = tr.key.to_string();
    if (last_state.count(key)) {
      EXPECT_EQ(last_state[key], tr.from_state) << key;
    }
    last_state[key] = tr.to_state;
    if (tr.to_state == "memory") ++memory_count[key];
  }
  for (const auto& [key, count] : memory_count) EXPECT_EQ(count, 1) << key;

  // 5. Every transfer matches a real dependency relationship and has
  //    positive duration.
  for (const auto& c : run.comms) {
    EXPECT_GT(c.end, c.start);
    EXPECT_NE(c.source, c.destination);
    EXPECT_TRUE(by_key.count(c.key.to_string())) << c.key.to_string();
  }

  // 6. Darshan per-worker totals equal the sum over task records.
  std::uint64_t task_bytes_read = 0;
  for (const auto& t : run.tasks) task_bytes_read += t.bytes_read;
  std::uint64_t darshan_bytes_read = 0;
  for (const auto& log : run.darshan_logs) {
    for (const auto& rec : log.posix) darshan_bytes_read += rec.bytes_read;
  }
  EXPECT_EQ(darshan_bytes_read, task_bytes_read);

  // 7. Attribution: with no spilling configured, every DXT segment maps to
  //    exactly one task.
  for (const auto& io : analysis::attribute_io(run)) {
    EXPECT_FALSE(io.task_key.empty());
  }

  // 8. Wall time covers the last event.
  EXPECT_GT(run.meta.wall_time(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RuntimeInvariants, ::testing::Range(1, 11));

class FailureInjection : public ::testing::TestWithParam<int> {};

TEST_P(FailureInjection, RetriesPreserveInvariants) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  ClusterConfig config;
  config.job.nodes = 2;
  config.job.workers_per_node = 2;
  config.job.threads_per_worker = 2;
  config.seed = seed;
  Cluster cluster(config);
  TaskGraph g("flaky");
  for (int i = 0; i < 40; ++i) {
    TaskSpec t;
    t.key = {"flaky-ab01", i};
    t.work.compute = 0.01;
    t.work.output_bytes = 4096;
    t.work.failure_probability = 0.3;
    g.add_task(t);
  }
  const RunData run = cluster.run({g}, "flaky", 0);

  // Completion records exist only for final successes; their retry counts
  // are consistent with the erred transitions observed.
  std::size_t erred_transitions = 0;
  for (const auto& tr : run.transitions) {
    if (tr.location == "scheduler" && tr.to_state == "erred") {
      ++erred_transitions;
    }
  }
  std::uint64_t total_retries = 0;
  for (const auto& t : run.tasks) total_retries += t.retries;
  // Every erred transition is either a retry that eventually succeeded or a
  // terminal failure.
  EXPECT_GE(erred_transitions, total_retries);
  // All 40 keys reached a terminal state.
  EXPECT_EQ(run.tasks.size() +
                static_cast<std::size_t>(
                    cluster.scheduler().erred_tasks()),
            40u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FailureInjection, ::testing::Range(1, 6));

class WorkloadDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadDeterminism, IdenticalSeedsIdenticalRuns) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 97;
  const auto run_once = [seed] {
    ClusterConfig config;
    config.job.nodes = 2;
    config.job.workers_per_node = 2;
    config.job.threads_per_worker = 2;
    config.seed = seed;
    Cluster cluster(config);
    cluster.vfs().register_file("/data/d", 8 << 20);
    TaskGraph g("det");
    for (int i = 0; i < 30; ++i) {
      TaskSpec t;
      t.key = {"det-cd02", i};
      t.work.compute = 0.02;
      t.work.output_bytes = 1 << 20;
      if (i >= 10) t.dependencies.push_back({"det-cd02", i % 10});
      t.work.reads.push_back({"/data/d", 0, 1 << 20, false});
      g.add_task(t);
    }
    return cluster.run({g}, "det", 0);
  };
  const RunData a = run_once();
  const RunData b = run_once();
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].key, b.tasks[i].key);
    EXPECT_EQ(a.tasks[i].worker, b.tasks[i].worker);
    EXPECT_DOUBLE_EQ(a.tasks[i].start_time, b.tasks[i].start_time);
    EXPECT_DOUBLE_EQ(a.tasks[i].end_time, b.tasks[i].end_time);
  }
  EXPECT_EQ(a.comms.size(), b.comms.size());
  EXPECT_EQ(a.warnings.size(), b.warnings.size());
  EXPECT_DOUBLE_EQ(a.meta.wall_time(), b.meta.wall_time());
}

INSTANTIATE_TEST_SUITE_P(Sweep, WorkloadDeterminism, ::testing::Range(1, 5));

// ---------------------------------------------------------------------------
// Delivery-layer properties: the sequence bookkeeping and retry backoff that
// the at-least-once pipeline (src/mofka) builds its exactly-once effects on.

/// Applies an arbitrary interleaving of duplicate / reorder / drop faults to
/// the sequence 0..n-1: every kept seq appears >=1 time, order is shuffled.
std::vector<std::uint64_t> faulted_arrivals(RngStream& rng, std::uint64_t n,
                                            double duplicate_p, double drop_p) {
  std::vector<std::uint64_t> arrivals;
  for (std::uint64_t seq = 0; seq < n; ++seq) {
    if (rng.chance(drop_p)) continue;
    arrivals.push_back(seq);
    while (rng.chance(duplicate_p)) arrivals.push_back(seq);
  }
  rng.shuffle(arrivals);
  return arrivals;
}

class SequenceProperties : public ::testing::TestWithParam<int> {};

TEST_P(SequenceProperties, TrackerAcceptsEachSequenceExactlyOnce) {
  RngStream rng(4000u + static_cast<unsigned>(GetParam()));
  const std::uint64_t n = 200;
  const auto arrivals = faulted_arrivals(rng, n, 0.4, 0.0);

  mofka::SequenceTracker tracker;
  std::map<std::uint64_t, int> accepted;
  for (const std::uint64_t seq : arrivals) {
    if (tracker.accept(seq)) accepted[seq] += 1;
  }
  // No matter the interleaving, each sequence number is accepted exactly
  // once — reordering must never make an early arrival look like a dup.
  ASSERT_EQ(accepted.size(), n);
  for (const auto& [seq, count] : accepted) EXPECT_EQ(count, 1) << seq;
  // With the full range seen, the watermark advanced past it and the
  // ahead-set fully collapsed (bounded memory).
  EXPECT_EQ(tracker.watermark(), n);
  EXPECT_EQ(tracker.ahead_size(), 0u);
  for (std::uint64_t seq = 0; seq < n; ++seq) EXPECT_TRUE(tracker.seen(seq));
}

INSTANTIATE_TEST_SUITE_P(Sweep, SequenceProperties, ::testing::Range(1, 11));

TEST(BackoffProperties, MonotoneBoundedAndOverflowSafe) {
  // The producer's policy.
  const auto base = mofka::kRetryBackoffBase;
  const auto max = mofka::kRetryBackoffMax;

  EXPECT_EQ(mofka::retry_backoff(0, base, max), base);
  std::chrono::microseconds previous{0};
  for (std::size_t attempt = 0; attempt < 100; ++attempt) {
    const auto delay = mofka::retry_backoff(attempt, base, max);
    EXPECT_GE(delay, previous) << "backoff not monotone at " << attempt;
    EXPECT_GE(delay, base);
    EXPECT_LE(delay, max);
    previous = delay;
  }
  // Far past the doubling range the shift is clamped: no overflow, still
  // capped at the max.
  EXPECT_EQ(mofka::retry_backoff(1'000'000, base, max), max);
}

TEST(BackoffProperties, CapRespectedForAnyBaseAndMax) {
  RngStream rng(7001);
  for (int round = 0; round < 50; ++round) {
    const std::chrono::microseconds base{rng.uniform_int(1, 10'000)};
    const std::chrono::microseconds max{base.count() +
                                        rng.uniform_int(0, 100'000)};
    std::chrono::microseconds previous{0};
    for (std::size_t attempt = 0; attempt < 70; ++attempt) {
      const auto delay = mofka::retry_backoff(attempt, base, max);
      EXPECT_GE(delay, previous);
      EXPECT_LE(delay, max);
      previous = delay;
    }
  }
}

}  // namespace
}  // namespace recup::dtr
