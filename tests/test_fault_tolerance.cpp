// Fault-tolerance tests: worker death detected through SSG heartbeats, task
// requeue, lost-key recomputation, resubmission caps with dead-letter
// records, and provenance delivery under combined worker + transport faults.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>

#include "chaos/fault.hpp"
#include "common/rng.hpp"
#include "dtr/cluster.hpp"
#include "dtr_fixture.hpp"
#include "query/catalog.hpp"
#include "query/ingest.hpp"
#include "query/ir.hpp"
#include "query/plan.hpp"
#include "workloads/registry.hpp"

namespace recup::dtr {
namespace {

ClusterConfig ft_config(std::uint64_t seed = 33) {
  ClusterConfig config;
  config.job.nodes = 2;
  config.job.workers_per_node = 2;
  config.job.threads_per_worker = 2;
  config.seed = seed;
  return config;
}

TEST(FaultTolerance, WorkflowCompletesDespiteWorkerDeath) {
  Cluster cluster(ft_config());
  TaskGraph g("long");
  for (int i = 0; i < 60; ++i) {
    TaskSpec t;
    t.key = {"work-aa11", i};
    t.work.compute = 1.0;
    t.work.output_bytes = 1 << 20;
    g.add_task(t);
  }
  // Kill one worker mid-run (workers connect ~6-10 s in, tasks run ~8 s).
  cluster.fail_worker_at(1, 12.0);
  const RunData run = cluster.run({g}, "ft", 0);

  EXPECT_EQ(run.tasks.size(), 60u);
  EXPECT_FALSE(cluster.scheduler().worker_alive(1));
  // SSG observed the death.
  std::size_t dead = 0;
  for (const auto& member : cluster.worker_group().members()) {
    if (member.state == mochi::MemberState::kDead) ++dead;
  }
  EXPECT_EQ(dead, 1u);
  // Some tasks were requeued with the failure stimulus.
  bool requeued = false;
  for (const auto& tr : run.transitions) {
    if (tr.stimulus == "worker-failed") requeued = true;
  }
  EXPECT_TRUE(requeued);
  // Nothing ran on the dead worker after its death was detected (allow the
  // detection window of a few heartbeat rounds).
  for (const auto& t : run.tasks) {
    if (t.worker == 1) {
      EXPECT_LT(t.start_time, 20.0);
    }
  }
}

TEST(FaultTolerance, LostResultsAreRecomputedForDependents) {
  Cluster cluster(ft_config(44));
  TaskGraph g1("producers");
  for (int i = 0; i < 8; ++i) {
    TaskSpec t;
    t.key = {"produce-bb22", i};
    t.work.compute = 0.2;
    t.work.output_bytes = 4 << 20;
    g1.add_task(t);
  }
  TaskGraph g2("consumers");
  for (int i = 0; i < 8; ++i) {
    TaskSpec t;
    t.key = {"consume-cc33", i};
    t.dependencies.push_back({"produce-bb22", i});
    // Long tasks so the failure lands while consumers still need inputs.
    t.work.compute = 8.0;
    t.work.output_bytes = 1024;
    g2.add_task(t);
  }
  cluster.fail_worker_at(2, 14.0);
  const RunData run = cluster.run({g1, g2}, "recompute", 0);

  // All consumers completed; any producer whose only replica lived on
  // worker 2 was recomputed (visible via the recompute stimulus).
  std::size_t consumers_done = 0;
  for (const auto& t : run.tasks) {
    if (t.prefix == "consume") ++consumers_done;
  }
  EXPECT_EQ(consumers_done, 8u);
  bool any_recompute = false;
  for (const auto& tr : run.transitions) {
    if (tr.stimulus == "recompute" || tr.stimulus == "worker-failed") {
      any_recompute = true;
    }
  }
  EXPECT_TRUE(any_recompute);
  EXPECT_EQ(cluster.scheduler().erred_tasks(), 0u);
}

TEST(FaultTolerance, SurvivingWorkersAbsorbTheLoad) {
  Cluster cluster(ft_config(55));
  TaskGraph g("spread");
  for (int i = 0; i < 120; ++i) {
    TaskSpec t;
    t.key = {"spread-dd44", i};
    t.work.compute = 2.0;
    g.add_task(t);
  }
  cluster.fail_worker_at(0, 13.0);
  const RunData run = cluster.run({g}, "absorb", 0);
  EXPECT_EQ(run.tasks.size(), 120u);
  // Death detection takes a few heartbeat rounds (~5 s); everything started
  // after that must avoid the dead worker, and the rest of the cluster
  // keeps making progress.
  std::set<WorkerId> used_after_death;
  for (const auto& t : run.tasks) {
    if (t.start_time > 20.0) used_after_death.insert(t.worker);
  }
  EXPECT_EQ(used_after_death.count(0), 0u);
  EXPECT_GE(used_after_death.size(), 3u);
}

TEST(FaultTolerance, ResubmissionCapExhaustionDeadLettersAndIsQueryable) {
  // With the cap at zero, the first worker failure a processing task sees
  // exhausts its resubmission budget: the scheduler must dead-letter it with
  // a warning row instead of retrying forever or crashing the run.
  ClusterConfig config = ft_config(77);
  config.scheduler.max_resubmissions = 0;
  Cluster cluster(config);
  TaskGraph g("capped");
  for (int i = 0; i < 16; ++i) {
    TaskSpec t;
    t.key = {"capped-ff66", i};
    t.work.compute = 8.0;  // long enough to be in flight at the failure
    t.work.output_bytes = 1 << 16;
    g.add_task(t);
  }
  cluster.fail_worker_at(1, 14.0);
  const RunData run = cluster.run({g}, "capped", 0);

  std::vector<std::string> dead_letters;
  for (const auto& w : run.warnings) {
    if (w.kind != "dead_letter") continue;
    EXPECT_EQ(w.location, "scheduler");
    EXPECT_NE(w.message.find("resubmission cap"), std::string::npos)
        << w.message;
    dead_letters.push_back(w.message);
  }
  ASSERT_GT(dead_letters.size(), 0u);
  // Independent tasks: everything not dead-lettered completed, and nothing
  // was lost in between.
  EXPECT_EQ(run.tasks.size() + dead_letters.size(), 16u);
  EXPECT_EQ(cluster.scheduler().erred_tasks(), dead_letters.size());

  // The dead-letter records flow through the streaming pipeline into the
  // warnings view and are reachable through the query layer.
  query::StoreCatalog catalog;
  query::LiveIngestor ingestor(cluster.broker(), catalog);
  ingestor.publish(run.meta);
  const query::ExecutionResult result = query::execute_query(
      query::parse_query(std::string(R"({
        "from": "warnings",
        "where": [{"col": "kind", "op": "==", "value": "dead_letter"}]
      })")),
      catalog, nullptr);
  EXPECT_EQ(result.frame->rows(), dead_letters.size());
}

TEST(FaultTolerance, WorkerDeathMidFlushLosesNoProvenance) {
  // Transport faults on every broker push combined with a worker death: the
  // producers' retries plus broker-side dedup must still land one copy of
  // every provenance record, so the ingested views match the run exactly.
  ClusterConfig config = ft_config(88);
  chaos::FaultPlan plan;
  plan.seed = 909;
  plan.sites[chaos::sites::kMofkaPush].drop = 0.1;
  plan.sites[chaos::sites::kMofkaPush].duplicate = 0.1;
  config.fault_plan = plan;
  Cluster cluster(config);
  TaskGraph g("flushy");
  for (int i = 0; i < 40; ++i) {
    TaskSpec t;
    t.key = {"flushy-ab99", i};
    t.work.compute = 1.0;
    t.work.output_bytes = 1 << 20;
    g.add_task(t);
  }
  cluster.fail_worker_at(2, 12.0);
  const RunData run = cluster.run({g}, "flushy", 0);

  EXPECT_EQ(run.tasks.size(), 40u);
  ASSERT_TRUE(cluster.fault_injector());
  EXPECT_GT(cluster.fault_injector()->hits(chaos::sites::kMofkaPush), 0u);

  query::StoreCatalog catalog;
  query::LiveIngestor ingestor(cluster.broker(), catalog);
  ingestor.publish(run.meta);
  const query::StoreCatalog::Snapshot snap = catalog.snapshot();
  // Every completed task's provenance arrived despite drops, injected
  // duplicates, and the mid-run death: no loss, no double-counting.
  EXPECT_EQ(snap.frame(query::ViewId::kTasks, {"flushy", 0})->rows(),
            run.tasks.size());
  EXPECT_EQ(snap.frame(query::ViewId::kWarnings, {"flushy", 0})->rows(),
            run.warnings.size());
  EXPECT_EQ(snap.frame(query::ViewId::kComms, {"flushy", 0})->rows(),
            run.comms.size());
}

TEST(FaultTolerance, ProxyOwnerDeathMidGatherFallsBackOrRecomputes) {
  // Out-of-band results whose owner dies while consumers are still
  // gathering dependencies: each affected consumer must either be
  // redirected to a surviving replica or wait for a recompute — and no
  // truncated payload may ever be installed as dependency data.
  Cluster cluster(ft_config(99));
  ASSERT_NE(cluster.datastore(), nullptr);  // enabled by default
  TaskGraph g1("producers");
  for (int i = 0; i < 8; ++i) {
    TaskSpec t;
    t.key = {"produce-aa77", i};
    // Staggered completions spread the consumers' gather window across the
    // kill time below.
    t.work.compute = 0.5 + 1.5 * i;
    t.work.output_bytes = 8 << 20;  // >= threshold: travels as a proxy
    g1.add_task(t);
  }
  TaskGraph g2("consumers");
  for (int i = 0; i < 6; ++i) {
    TaskSpec t;
    t.key = {"consume-bb88", i};
    for (int d = 0; d < 8; ++d) t.dependencies.push_back({"produce-aa77", d});
    t.work.compute = 4.0;
    t.work.output_bytes = 1024;
    g2.add_task(t);
  }
  // Worker 1 dies while the last producers finish and the consumers gather
  // their eight proxies.
  cluster.fail_worker_at(1, 13.0);
  const RunData run = cluster.run({g1, g2}, "proxy-death", 0);

  std::size_t consumers_done = 0;
  for (const auto& t : run.tasks) {
    if (t.prefix == "consume") ++consumers_done;
  }
  EXPECT_EQ(consumers_done, 6u);
  EXPECT_EQ(cluster.scheduler().erred_tasks(), 0u);
  // The failure actually touched the data plane: the dead shard's copies
  // were lost (forcing recompute), re-pinned to a replica, or dropped.
  const datastore::DataStoreStats ds = cluster.datastore()->stats();
  EXPECT_GT(ds.lost_entries + ds.repins + ds.replica_drops, 0u);
  bool recovered = false;
  for (const auto& tr : run.transitions) {
    if (tr.stimulus == "recompute" || tr.stimulus == "worker-failed") {
      recovered = true;
    }
  }
  EXPECT_TRUE(recovered);
  // The hard guarantee: every installed dependency passed size+fingerprint
  // validation — a truncated or corrupt payload was never handed to a task.
  EXPECT_EQ(ds.validation_failures, 0u);
  EXPECT_EQ(ds.fetch_failures, 0u);
  // Out-of-band gathers happened (this workload's producers are all above
  // the inline threshold).
  EXPECT_GT(ds.fetches, 0u);
  std::size_t oob_comms = 0;
  for (const auto& c : run.comms) {
    if (c.oob) ++oob_comms;
  }
  EXPECT_GT(oob_comms, 0u);
}

TEST(FaultTolerance, FailureOfIdleWorkerIsHarmless) {
  Cluster cluster(ft_config(66));
  TaskGraph g("tiny");
  for (int i = 0; i < 4; ++i) {
    TaskSpec t;
    t.key = {"tiny-ee55", i};
    t.work.compute = 30.0;  // keep the run alive past detection
    g.add_task(t);
  }
  cluster.fail_worker_at(3, 15.0);
  const RunData run = cluster.run({g}, "idle-death", 0);
  EXPECT_EQ(run.tasks.size(), 4u);
  EXPECT_FALSE(cluster.scheduler().worker_alive(3));
}

// ---------------------------------------------------------------------------
// Lost results whose inputs were already released cannot be recomputed:
// they err as "unrecoverable", everything downstream errs with them, and
// the run still completes.

/// Final scheduler-side state of every task, from the transition log.
std::map<std::string, std::string> final_states(const Scheduler& scheduler) {
  std::map<std::string, std::string> states;
  for (const auto& tr : scheduler.transitions()) {
    states[tr.key.to_string()] = tr.to_state;
  }
  return states;
}

TEST(LostKeyRecovery, ReleasedInputErrsTheLostResultAndItsDependents) {
  // source -> consumer -> sink, with a slow task the sink also needs. Once
  // the consumer finishes, the releasable source is forgotten; then the
  // consumer's only replica dies while the sink still waits on the slow
  // task. The consumer cannot be rebuilt, so it and the sink err.
  const std::filesystem::path journal =
      std::filesystem::temp_directory_path() /
      ("recup_ft_released_input_" + std::to_string(::getpid()));
  std::filesystem::remove_all(journal);
  struct RemoveOnExit {
    const std::filesystem::path& path;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } cleanup{journal};
  SchedulerConfig scheduler_config;
  scheduler_config.work_stealing = false;  // lets a stalled run drain
  testing::MiniCluster mini(2, 2, 2, WorkerConfig{}, scheduler_config);
  mini.scheduler.enable_durability({journal.string()});
  TaskGraph g("released-input");
  TaskSpec source;
  source.key = {"source-aa01", 0};
  source.work.compute = 0.01;
  source.work.releasable = true;
  g.add_task(source);
  TaskSpec consumer;
  consumer.key = {"consumer-aa02", 0};
  consumer.dependencies.push_back(source.key);
  consumer.work.compute = 0.01;
  g.add_task(consumer);
  TaskSpec slow;
  slow.key = {"slow-aa03", 0};
  slow.work.compute = 1.0;
  g.add_task(slow);
  TaskSpec sink;
  sink.key = {"sink-aa04", 0};
  sink.dependencies = {consumer.key, slow.key};
  sink.work.compute = 0.01;
  g.add_task(sink);

  bool killed = false;
  mini.engine.schedule_at(0.5, [&] {
    ASSERT_FALSE(mini.scheduler.in_memory(source.key));  // forgotten
    for (auto& worker : mini.workers) {
      if (!worker->has_data(consumer.key)) continue;
      worker->kill();
      mini.scheduler.on_worker_failed(worker->id());
      killed = true;
      break;
    }
  });
  EXPECT_TRUE(mini.run_graph(g));
  ASSERT_TRUE(killed);

  const auto states = final_states(mini.scheduler);
  EXPECT_EQ(states.at(source.key.to_string()), "forgotten");
  EXPECT_EQ(states.at(consumer.key.to_string()), "erred");
  EXPECT_EQ(states.at(sink.key.to_string()), "erred");
  EXPECT_EQ(states.at(slow.key.to_string()), "memory");
  EXPECT_EQ(mini.scheduler.erred_tasks(), 2u);
  // The sink's dead-letter warning names the input that erred.
  ASSERT_EQ(mini.scheduler.warnings().size(), 1u);
  EXPECT_EQ(mini.scheduler.warnings()[0].message,
            "task " + sink.key.to_string() + ": dependency " +
                consumer.key.to_string() + " erred");

  // A later graph that needs the erred result errs at submission.
  TaskGraph later("after-erred");
  TaskSpec reader;
  reader.key = {"reader-aa05", 0};
  reader.dependencies.push_back(consumer.key);
  later.add_task(reader);
  EXPECT_TRUE(mini.run_graph(later));
  EXPECT_EQ(final_states(mini.scheduler).at(reader.key.to_string()), "erred");
  EXPECT_EQ(mini.scheduler.erred_tasks(), 3u);

  // A restarted scheduler counts each erred task once too.
  testing::MiniCluster restarted(2, 2, 2, WorkerConfig{}, scheduler_config);
  restarted.scheduler.enable_durability({journal.string()});
  restarted.scheduler.recover();
  EXPECT_EQ(restarted.scheduler.erred_tasks(), 3u);
}

TEST(LostKeyRecovery, FullXgboostRunReturnsAfterLosingReleasedInputs) {
  // Full-size XGBOOST at cluster seed 7 loses worker 1 at t = 234 s (30% of
  // its 780 s run): tree-reduce-r12 tasks 1 and 9 lose their only replicas
  // after their histogram-r12 inputs were released, so update-model-r12
  // and everything after it can never run.
  workloads::Workload workload = workloads::make_workload("XGBOOST");
  ClusterConfig config = workload.cluster;
  config.seed = 7;
  Cluster cluster(config);
  workload.prepare(cluster.vfs());
  RngStream graph_rng(config.seed ^ fnv1a64("graphs"));
  std::vector<TaskGraph> graphs = workload.build_graphs(graph_rng);
  std::size_t submitted = 0;
  std::string tree_reduce;
  std::string update_model;
  for (const TaskGraph& graph : graphs) {
    submitted += graph.size();
    for (const auto& [key, spec] : graph.tasks()) {
      if (key.prefix() == "tree-reduce-r12" && key.index == 1) {
        tree_reduce = key.to_string();
      }
      if (key.prefix() == "update-model-r12") update_model = key.to_string();
    }
  }
  cluster.fail_worker_at(1, 234.0);
  const RunData run = cluster.run(std::move(graphs), "XGBOOST", 0);

  const auto states = final_states(cluster.scheduler());
  EXPECT_EQ(states.size(), submitted);
  std::size_t erred = 0;
  for (const auto& [key, state] : states) {
    EXPECT_TRUE(state == "memory" || state == "forgotten" || state == "erred")
        << key << " ended in " << state;
    if (state == "erred") ++erred;
  }
  EXPECT_EQ(states.at(tree_reduce), "erred");
  EXPECT_EQ(states.at(update_model), "erred");
  EXPECT_EQ(cluster.scheduler().erred_tasks(), erred);
  EXPECT_LT(run.tasks.size(), submitted);
}

}  // namespace
}  // namespace recup::dtr
