// State-machine conformance suite for the scheduler (DESIGN.md §11).
// Randomized DAGs and event interleavings (task failures, worker deaths) are
// driven through the scheduler, and three invariant families are checked on
// the recorded transition log:
//
//   1. Legality — each task's transitions form an unbroken chain of edges
//      the Dask state machine allows, starting from "released".
//   2. Causality — a task never enters "processing" before every
//      dependency has reached "memory".
//   3. Termination — every submitted task ends in exactly one terminal
//      state (memory, erred, or forgotten after release).
//
// The rendered transition log of each seeded script is also pinned to a
// recorded FNV-1a digest, so any change to scheduling decisions or to the
// order of recorded transitions fails loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dtr_fixture.hpp"

namespace recup::dtr {
namespace {

using testing::MiniCluster;

// ---------------------------------------------------------------------------
// Random DAG + fault interleaving generator (deterministic per seed).
// ---------------------------------------------------------------------------

struct ChaosScript {
  TaskGraph graph{"sm"};
  /// (virtual time, worker id) kill events; at most workers-1 victims.
  std::vector<std::pair<double, WorkerId>> kills;
};

ChaosScript make_script(std::uint32_t seed, std::size_t total_workers) {
  std::mt19937 rng(seed);
  ChaosScript script;
  script.graph = TaskGraph("sm-" + std::to_string(seed));

  const std::size_t n_tasks = 40 + rng() % 80;
  const std::size_t n_groups = 2 + rng() % 5;
  std::vector<TaskKey> keys;
  keys.reserve(n_tasks);
  for (std::size_t i = 0; i < n_tasks; ++i) {
    TaskSpec t;
    t.key = {"sm" + std::to_string(rng() % n_groups) + "-s" +
                 std::to_string(seed % 1000),
             static_cast<std::int64_t>(i)};
    t.work.compute = 0.001 + (rng() % 100) * 0.0004;
    t.work.output_bytes = 1024 + rng() % (1 << 20);
    if (rng() % 8 == 0) t.work.failure_probability = 0.3;
    // Up to 3 dependencies on earlier tasks (keeps the graph acyclic).
    if (!keys.empty()) {
      const std::size_t n_deps = rng() % 4;
      std::set<std::size_t> picked;
      for (std::size_t d = 0; d < n_deps; ++d) {
        picked.insert(rng() % keys.size());
      }
      for (const std::size_t p : picked) t.dependencies.push_back(keys[p]);
    }
    keys.push_back(t.key);
    script.graph.add_task(t);
  }

  // Kill up to half the workers at random points early in the run so
  // re-dispatch / lost-data recovery paths interleave with normal progress.
  const std::size_t n_kills = rng() % (total_workers / 2 + 1);
  std::set<WorkerId> victims;
  while (victims.size() < n_kills) {
    victims.insert(static_cast<WorkerId>(rng() % total_workers));
  }
  for (const WorkerId w : victims) {
    script.kills.emplace_back(0.01 + (rng() % 100) * 0.002, w);
  }
  return script;
}

/// Runs one script and returns the cluster (alive so its transition log
/// can be inspected).
std::unique_ptr<MiniCluster> run_script(const ChaosScript& script) {
  auto mini = std::make_unique<MiniCluster>(
      /*nodes=*/2, /*workers_per_node=*/2, /*nthreads=*/2);
  for (const auto& [when, victim] : script.kills) {
    MiniCluster* m = mini.get();
    mini->engine.schedule_at(when, [m, victim = victim] {
      if (!m->workers[victim]->alive()) return;
      m->workers[victim]->kill();
      m->scheduler.on_worker_failed(victim);
    });
  }
  mini->run_graph(script.graph);
  return mini;
}

// ---------------------------------------------------------------------------
// Invariant checkers.
// ---------------------------------------------------------------------------

/// Edges of the scheduler-side task state machine (DESIGN.md §4/§11).
bool legal_edge(const std::string& from, const std::string& to) {
  static const std::set<std::pair<std::string, std::string>> kEdges = {
      {"released", "waiting"},     // update-graph / scheduler-restart
      {"waiting", "processing"},   // dispatch
      {"waiting", "queued"},       // saturation
      {"waiting", "no-worker"},    // no live worker
      {"waiting", "erred"},        // unrecoverable / an input erred
      {"queued", "processing"},    // queue-pop
      {"queued", "waiting"},       // lost-dependency / worker-failed
      {"no-worker", "processing"}, // capacity returned
      {"no-worker", "waiting"},    // lost-dependency
      {"processing", "memory"},    // task-finished
      {"processing", "erred"},     // task-erred / dead-letter / unrecoverable
      {"processing", "processing"}, // steal (reassignment)
      {"processing", "waiting"},   // worker-failed requeue
      {"erred", "waiting"},        // retry
      {"memory", "released"},      // release-key / lost-data
      {"released", "waiting"},     // recompute
      {"released", "forgotten"},   // forget-key
  };
  return kEdges.count({from, to}) != 0;
}

void check_conformance(const MiniCluster& mini, const TaskGraph& graph,
                       const std::string& label) {
  std::map<std::string, std::string> state;       // key -> current state
  std::map<std::string, int> memory_entries;      // key -> times reached memory
  std::map<std::string, std::vector<std::string>> deps;
  for (const auto& [task_key, spec] : graph.tasks()) {
    std::vector<std::string>& d = deps[task_key.to_string()];
    for (const auto& dep : spec.dependencies) d.push_back(dep.to_string());
  }

  for (const auto& tr : mini.scheduler.transitions()) {
    const std::string key = tr.key.to_string();
    // 1. Legality: chained states over allowed edges.
    if (state.count(key)) {
      EXPECT_EQ(state[key], tr.from_state)
          << label << ": broken chain for " << key << " at " << tr.stimulus;
    } else {
      EXPECT_EQ(tr.from_state, "released")
          << label << ": " << key << " did not start from released";
    }
    EXPECT_TRUE(legal_edge(tr.from_state, tr.to_state))
        << label << ": illegal edge " << tr.from_state << " -> "
        << tr.to_state << " (" << tr.stimulus << ") for " << key;
    state[key] = tr.to_state;

    // 2. Causality: dispatch implies every dependency reached memory first.
    if (tr.to_state == "processing" && tr.stimulus != "steal") {
      for (const std::string& dep : deps[key]) {
        EXPECT_GE(memory_entries[dep], 1)
            << label << ": " << key << " dispatched at t=" << tr.time
            << " before dependency " << dep << " reached memory";
      }
    }
    if (tr.to_state == "memory") ++memory_entries[key];
  }

  // 3. Termination: every submitted task ends in exactly one terminal state.
  EXPECT_EQ(state.size(), graph.tasks().size()) << label;
  for (const auto& [task_key, spec] : graph.tasks()) {
    const std::string key = task_key.to_string();
    ASSERT_TRUE(state.count(key)) << label << ": " << key << " never moved";
    const std::string& final_state = state[key];
    EXPECT_TRUE(final_state == "memory" || final_state == "erred" ||
                final_state == "forgotten")
        << label << ": " << key << " ended in non-terminal " << final_state;
  }
}

/// Canonical one-line rendering of a transition for byte-equality checks.
std::string render(const TransitionRecord& tr) {
  char time_buf[32];
  std::snprintf(time_buf, sizeof(time_buf), "%.17g", tr.time);
  return tr.key.to_string() + "|" + tr.graph + "|" + tr.from_state + "|" +
         tr.to_state + "|" + tr.stimulus + "|" + tr.location + "|" + time_buf;
}

/// FNV-1a digest of the whole rendered transition log, one line each.
std::uint64_t log_digest(const MiniCluster& mini) {
  std::string text;
  for (const auto& tr : mini.scheduler.transitions()) {
    text += render(tr);
    text += '\n';
  }
  return fnv1a64(text);
}

// ---------------------------------------------------------------------------
// Conformance over random DAGs and interleavings. (The test names date from
// when each seed also ran under other scheduler topologies.)
// ---------------------------------------------------------------------------

class StateMachineConformance : public ::testing::TestWithParam<int> {};

TEST_P(StateMachineConformance, AllTopologiesSatisfyInvariants) {
  const ChaosScript script = make_script(7000 + GetParam(), /*workers=*/4);
  const auto mini = run_script(script);
  check_conformance(*mini, script.graph,
                    "seed " + std::to_string(7000 + GetParam()));
}

/// Digests of the rendered transition log for scripts 8000..8009, recorded
/// from the scheduler before its intake queue, sharded task map and foreman
/// tier were deleted (all of its topologies agreed on these bytes).
constexpr std::uint64_t kLogDigests[10] = {
    0x1c731351b4b54063ull, 0x4678f55e51517896ull, 0x72ba13ec3e46a64eull,
    0xc35e5448ed19136full, 0xfa09a77660875329ull, 0x77bd066bfdc858acull,
    0x353f41c4607ad2c5ull, 0x68074de55a0c1b9bull, 0x7429ad81d0077ba1ull,
    0xb60c9bbf513df268ull,
};

TEST_P(StateMachineConformance, Window0TopologiesAreByteIdentical) {
  const ChaosScript script = make_script(8000 + GetParam(), /*workers=*/4);
  const auto mini = run_script(script);
  const std::uint64_t digest = log_digest(*mini);
  char hex[24];
  std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, digest);
  EXPECT_EQ(digest, kLogDigests[GetParam()])
      << "transition log of script " << 8000 + GetParam()
      << " changed. If the change is intended, re-record kLogDigests["
      << GetParam() << "] as " << hex << "ull.";
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateMachineConformance,
                         ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Lease-expiry boundary semantics (SchedulerConfig::lease_expiry).
// ---------------------------------------------------------------------------

TEST(LeaseBoundary, ExpiryIsStrictlyGreaterThanMissesTimesInterval) {
  SchedulerConfig config;
  config.heartbeat_interval = 0.5;
  config.lease_misses = 4.0;
  EXPECT_DOUBLE_EQ(config.lease_expiry(), 2.0);
  // Fractional budgets are meaningful (2.5 beats), not truncated.
  config.lease_misses = 2.5;
  EXPECT_DOUBLE_EQ(config.lease_expiry(), 1.25);
}

TEST(LeaseBoundary, SilentWorkerSurvivesExactlyTheBoundary) {
  // heartbeat_interval=0.5, lease_misses=4 => expiry budget 2.0s. The lease
  // round at t=2.0 sees silence of exactly lease_misses intervals — the
  // lease must still be valid (strictly-greater comparison). The round at
  // t=2.5 sees 2.5s > 2.0s and expires it.
  SchedulerConfig config;
  config.heartbeat_interval = 0.5;
  config.lease_misses = 4.0;
  config.work_stealing = false;
  MiniCluster mini(2, 2, 2, WorkerConfig{}, config);
  mini.scheduler.start_lease_loop();  // workers never heartbeat: silent

  std::uint64_t expirations_at_boundary = 42;
  // Sample just after the t=2.0 round ran (same-instant events fire in
  // schedule order, so sample at 2.1 to be unambiguous).
  mini.engine.schedule_at(2.1, [&] {
    expirations_at_boundary = mini.scheduler.lease_expirations();
  });
  mini.engine.schedule_at(3.1, [&] { mini.scheduler.stop(); });
  mini.engine.run_until(3.2);

  EXPECT_EQ(expirations_at_boundary, 0u)
      << "lease expired at exactly lease_misses intervals of silence";
  // After the boundary every silent worker's lease expired.
  EXPECT_EQ(mini.scheduler.lease_expirations(), 4u);
}

TEST(LeaseBoundary, HeartbeatRenewsTheLease) {
  SchedulerConfig config;
  config.heartbeat_interval = 0.5;
  config.lease_misses = 4.0;
  config.work_stealing = false;
  MiniCluster mini(2, 2, 2, WorkerConfig{}, config);
  mini.scheduler.start_lease_loop();
  // Keep worker 0 renewed; the other three stay silent and expire.
  for (double t = 0.4; t < 4.0; t += 0.4) {
    mini.engine.schedule_at(t, [&] { mini.scheduler.heartbeat(0); });
  }
  mini.engine.schedule_at(4.0, [&] { mini.scheduler.stop(); });
  mini.engine.run_until(4.1);
  EXPECT_EQ(mini.scheduler.lease_expirations(), 3u);
  EXPECT_TRUE(mini.scheduler.worker_alive(0));
  EXPECT_FALSE(mini.scheduler.worker_alive(1));
}

}  // namespace
}  // namespace recup::dtr
