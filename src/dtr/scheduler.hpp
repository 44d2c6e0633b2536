// Scheduler: orchestrates tasks within the cluster, dispatching to available
// workers and managing execution (paper §III-A). Implements the Dask
// scheduler's task state machine with recorded transitions + stimuli, a
// locality-aware decide_worker, queueing under saturation, retries on task
// failure, and periodic work stealing — each a distinct source of the
// run-to-run variability the paper characterizes.
//
// One path (DESIGN.md §11): each worker report is applied by its handler
// as soon as it arrives, inside one journal group, and all task state lives
// in one table owned by the scheduler's thread. Sweeps whose side effects
// depend on order visit tasks in global TaskKey order.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "chaos/fault.hpp"
#include "common/log.hpp"
#include "datastore/store.hpp"
#include "common/rng.hpp"
#include "common/durability.hpp"
#include "common/wal.hpp"
#include "dtr/plugins.hpp"
#include "dtr/records.hpp"
#include "dtr/task.hpp"
#include "dtr/worker.hpp"
#include "platform/network.hpp"
#include "sim/engine.hpp"

namespace recup::dtr {

struct SchedulerConfig {
  Duration control_latency = 1e-4;
  bool work_stealing = true;
  Duration work_stealing_interval = 0.1;
  /// A worker is saturated when ready tasks exceed nthreads * this factor;
  /// further assignments queue at the scheduler.
  double saturation_factor = 2.0;
  /// Steal only when estimated compute beats transfer cost by this ratio
  /// (Dask's steal cost heuristic).
  double steal_cost_ratio = 2.0;
  std::uint32_t max_retries = 3;
  /// Cap on re-dispatches of one task after worker failures. Exhausting it
  /// dead-letters the task: a terminal erred state plus a "dead_letter"
  /// warning record, so lost work is queryable instead of silently retried
  /// forever on a flapping cluster.
  std::uint32_t max_resubmissions = 5;
  /// Typical task duration estimate used for occupancy weighting before any
  /// task of a prefix has completed.
  Duration default_task_duration = 0.05;
  /// Weight of the estimated dependency-transfer cost against the occupancy
  /// penalty in decide_worker. Higher values bias placement toward data
  /// locality (fewer transfers, possibly worse balance) — one of the design
  /// knobs the ablation bench sweeps.
  double locality_bias = 20.0;
  /// Expected worker heartbeat period. Cluster wires this from the platform
  /// profile's wms.heartbeat_interval_s so the lease layer and the workers
  /// agree on one cadence.
  Duration heartbeat_interval = 0.5;
  /// Lease budget as a *multiplier* of heartbeat_interval — not an integral
  /// missed-beat count. Fractional values are meaningful: 2.5 means a lease
  /// survives two full beats plus half an interval of silence. See
  /// lease_expiry() for the boundary semantics. Deliberately slower than
  /// SSG suspicion (so explicit death detection wins when available) — the
  /// lease is the backstop for hung or partitioned workers that never emit
  /// a death notification.
  double lease_misses = 12.0;
  /// Master switch for lease-based liveness (the loop still has to be
  /// started with start_lease_loop()).
  bool lease_liveness = true;

  /// A worker's lease expires after strictly more than
  /// heartbeat_interval * lease_misses seconds of silence — at *exactly*
  /// lease_misses intervals the lease is still valid (boundary-tested).
  [[nodiscard]] Duration lease_expiry() const {
    return heartbeat_interval * lease_misses;
  }
};

/// Durable-state configuration for the scheduler. `dir` receives a
/// segmented journal WAL (every transition / spec / record, append-only,
/// wire-encoded) plus `checkpoint.bin` snapshots of the control state (one
/// wire-encoded object). A restarted scheduler replays checkpoint + journal
/// suffix and reconciles against the workers that survived it.
struct SchedulerDurability {
  std::string dir;
  /// Also checkpoint every N journal records (0 = only at graph
  /// completions).
  std::size_t checkpoint_every = 0;
  /// Journal compaction bounded by checkpoint age: after each durable
  /// checkpoint, delete whole leading journal segments whose records are
  /// all covered by the snapshot. The checkpoint then carries the task
  /// specs (normally replayed from the journal prefix) so recovery stays
  /// self-contained. Off by default — full-history replay keeps the
  /// journal a complete provenance log.
  bool compact_on_checkpoint = false;
  wal::WalOptions wal;

  /// The scheduler's slice of the unified knob tree
  /// (common/durability.hpp).
  [[nodiscard]] static SchedulerDurability from(const DurabilityConfig& d) {
    SchedulerDurability s;
    s.dir = d.scheduler_dir();
    s.checkpoint_every = d.scheduler.checkpoint_every;
    s.compact_on_checkpoint = d.scheduler.compact_on_checkpoint;
    s.wal = d.scheduler.wal;
    return s;
  }
};

class Scheduler {
 public:
  using GraphDoneFn = std::function<void(const std::string& graph)>;

  Scheduler(sim::Engine& engine, platform::Network& network,
            SchedulerConfig config, RngStream rng, LogCollector& logs);
  // Workers' report callbacks hold `this`.
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // --- Cluster membership ----------------------------------------------------
  void add_worker(Worker* worker);
  [[nodiscard]] const std::vector<Worker*>& workers() const {
    return workers_;
  }
  /// No-op. Kept only for perfbench's scheduler_waves, which still calls
  /// it; remove it together with that call.
  void finalize_topology() {}

  // --- Graph lifecycle ---------------------------------------------------------
  /// Receives a validated task graph; tasks enter the state machine and
  /// runnable ones are dispatched. `on_done` fires when every task of the
  /// graph reaches memory (or is terminally erred). A task whose dependency
  /// already erred errs at submission.
  void submit_graph(const TaskGraph& graph, GraphDoneFn on_done);

  /// Results already in distributed memory from previous graphs, usable as
  /// external dependencies of later graphs.
  [[nodiscard]] bool in_memory(const TaskKey& key) const;
  [[nodiscard]] std::size_t tasks_in_memory() const;
  [[nodiscard]] std::size_t tasks_total() const { return tasks_.size(); }

  // --- Introspection -----------------------------------------------------------
  [[nodiscard]] const std::vector<TransitionRecord>& transitions() const {
    return transitions_;
  }
  [[nodiscard]] const std::vector<TaskRecord>& task_records() const {
    return task_records_;
  }
  [[nodiscard]] const std::vector<StealRecord>& steals() const {
    return steals_;
  }
  /// Scheduler-side warnings (dead-lettered tasks).
  [[nodiscard]] const std::vector<WarningRecord>& warnings() const {
    return warnings_;
  }
  /// Tasks that erred terminally, each counted once.
  [[nodiscard]] std::uint64_t erred_tasks() const { return erred_; }
  [[nodiscard]] const SchedulerConfig& config() const { return config_; }

  void add_plugin(SchedulerPlugin* plugin) { plugins_.push_back(plugin); }
  void start_stealing_loop();
  /// Records a worker heartbeat (lease renewal).
  void heartbeat(WorkerId worker);
  /// Starts the periodic lease check; workers whose lease expired are
  /// treated as failed (on_worker_failed).
  void start_lease_loop();
  [[nodiscard]] std::uint64_t lease_expirations() const {
    return lease_expirations_;
  }
  void stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }

  // --- Durability --------------------------------------------------------------
  /// Opens (or resumes) the journal WAL under durability.dir. Call before
  /// submitting graphs; to resume an existing journal, call recover() after
  /// workers are registered. Every journal frame must be a batch group; any
  /// other frame is a wal::WalError (here and in recover()).
  void enable_durability(SchedulerDurability durability);
  [[nodiscard]] bool durable() const { return journal_ != nullptr; }
  /// Atomically snapshots the control state to checkpoint.bin. Also runs
  /// automatically at every graph completion and (optionally) every
  /// checkpoint_every journal records. Always lands on a batch-group
  /// boundary (an open group is flushed first). Throws wal::WalError when
  /// the snapshot cannot be written in full; the previous one stays.
  void checkpoint();
  /// Rebuilds state from checkpoint + journal, then reconciles with live
  /// workers: tasks still executing on a surviving worker are re-adopted,
  /// the rest are re-dispatched with a "scheduler-restart" stimulus.
  void recover();
  /// Simulated process crash + restart from on-disk state. The object stays
  /// in place so worker/client references survive (they would reconnect to
  /// the restarted process in a real deployment). Graph-done callbacks are
  /// lost with the process; reattach with set_graph_done if needed.
  void crash_and_recover();
  /// Reattaches a graph-completion callback after recovery; fires
  /// immediately when the graph already completed.
  void set_graph_done(const std::string& graph, GraphDoneFn on_done);
  /// Consulted at graph completions for chaos::sites::kSchedulerProcess.
  void set_fault_injector(chaos::FaultInjector* injector) {
    injector_ = injector;
  }
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }
  /// Logical journal records (batch groups expanded), full-log count.
  [[nodiscard]] std::size_t journal_records() const {
    return journal_records_;
  }
  /// Physical WAL frames written (a batch group is one frame).
  [[nodiscard]] std::size_t journal_frames() const { return journal_frames_; }

  // --- Out-of-band data plane ---------------------------------------------
  /// Attaches the datastore (recup::datastore): send_to_worker resolves
  /// result proxies for dependencies, releases drop store entries, and
  /// worker deaths re-pin ownership to surviving replicas.
  void set_datastore(datastore::DataStore* store) { datastore_ = store; }
  /// Worker-reported failed proxy fetch: `requester` could not pull `key`
  /// from `failed_holder`. The scheduler purges the failed replica and
  /// redirects the fetch to the nearest surviving replica, or — when no
  /// replica survives — parks the requester as a fetch waiter and
  /// recomputes the result through the normal lost-key recovery path.
  void on_missing_dep(const TaskKey& key, WorkerId requester,
                      WorkerId failed_holder);

  /// Fault handling (driven by SSG fault detection): removes the worker
  /// from scheduling, purges its replicas, re-dispatches its in-flight
  /// tasks, and recomputes results whose only copy died with it — Dask's
  /// lost-key recovery.
  void on_worker_failed(WorkerId worker);
  [[nodiscard]] bool worker_alive(WorkerId worker) const {
    return worker_alive_.at(worker);
  }

 private:
  /// Per-task scheduler control state (one entry in the task table).
  struct TaskInfo {
    TaskSpec spec;
    std::string graph;
    SchedulerTaskState state = SchedulerTaskState::kReleased;
    std::size_t waiting_on = 0;  ///< unmet dependency count
    std::vector<TaskKey> dependents;
    std::size_t remaining_dependents = 0;  ///< release refcount
    std::set<WorkerId> who_has;            ///< replicas in worker memory
    Worker* assigned = nullptr;
    std::uint32_t retries = 0;
    std::uint32_t resubmissions = 0;  ///< re-dispatches after worker deaths
    bool stolen = false;
  };

  struct TaskKeyHash {
    /// FNV-1a over the group name, mixed with the index.
    std::size_t operator()(const TaskKey& key) const noexcept {
      std::uint64_t h = 1469598103934665603ull;
      for (const char c : key.group) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
      h ^= static_cast<std::uint64_t>(key.index) + 0x9e3779b97f4a7c15ull +
           (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };

  struct GraphInfo {
    std::string name;
    std::size_t remaining = 0;
    GraphDoneFn on_done;  ///< cleared after firing (recovery may re-count)
    bool done_fired = false;
  };

  void transition(TaskInfo& info, SchedulerTaskState to,
                  const std::string& stimulus);
  /// Moves a runnable task to a worker or the scheduler queue.
  void dispatch(TaskInfo& info, const std::string& stimulus);
  /// Dask's decide_worker: minimize expected dep-transfer cost, tie-break
  /// on occupancy. Dependency lookups are hoisted out of the per-worker
  /// scan; tasks with no remote-replica deps take a pure occupancy scan.
  Worker* decide_worker(const TaskInfo& info);
  void send_to_worker(TaskInfo& info, Worker* worker,
                      const std::string& stimulus, bool stolen);
  void on_task_finished(const TaskKey& key, const TaskRecord& record,
                        bool failed);
  /// Reference-counted key release: frees the task's replicas from worker
  /// memory once all known dependents completed (releasable tasks only).
  void maybe_release(TaskInfo& info);
  /// Schedules recomputation of a result whose replicas are all gone. A
  /// result whose input was already released cannot be rebuilt: it errs
  /// ("unrecoverable"), and so does everything downstream of it.
  void recompute_lost(TaskInfo& info);
  /// For a task just moved back to waiting: recomputes every dependency
  /// whose replicas all died, recounts the unmet ones, and dispatches the
  /// task with `stimulus` once none are. Stops if a recomputation errs it.
  void redispatch_waiting(TaskInfo& info, const std::string& stimulus);
  /// Moves a processing task back to waiting (after its worker died),
  /// recovering any lost dependencies first. Dead-letters the task when its
  /// resubmission cap is exhausted.
  void requeue_after_failure(TaskInfo& info);
  /// Terminal failure: erred state, "dead_letter" warning record, plugin
  /// notification, then settle_erred.
  void dead_letter(TaskInfo& info, const std::string& reason);
  /// Settles a task that just erred terminally (already counted in erred_):
  /// frees its worker slot, dead-letters every unfinished dependent (none
  /// can ever run), and counts the task once toward its graph's completion.
  void settle_erred(TaskInfo& info);
  /// Returns true (and moves the task back to waiting, recovering lost
  /// dependencies) when a queued task can no longer be dispatched because a
  /// dependency's replicas all died while it sat in the queue.
  bool requeue_if_deps_lost(TaskInfo& info);
  /// Ground-truth count of dependencies not yet in memory with a surviving
  /// replica. The incremental waiting_on counter can drift low when
  /// recompute_lost pulls a dependency back out of memory; dispatch
  /// decisions recount through this instead of trusting the counter.
  [[nodiscard]] std::size_t unmet_dependencies(const TaskInfo& info) const;
  void drain_queue();
  /// Builds a DepLocation for `key` held by `holder` (attaching a proxy
  /// when the result lives in the datastore) and, after control_latency,
  /// tells `requester` to retry the fetch.
  void schedule_refetch(const TaskKey& key, WorkerId holder,
                        Worker* requester);
  void stealing_round();
  void lease_round();
  [[nodiscard]] TaskInfo* find_task(const TaskKey& key);
  [[nodiscard]] const TaskInfo* find_task(const TaskKey& key) const;
  /// Every task, sorted by TaskKey: the visiting order of each sweep whose
  /// side effects depend on order, and of the checkpoint's task list.
  [[nodiscard]] std::vector<TaskInfo*> tasks_in_key_order();
  /// Completion bookkeeping shared by on_task_finished and dead_letter:
  /// fires on_done once, checkpoints, and consults the process-crash fault
  /// site.
  void graph_completed(GraphInfo& graph);
  /// Appends one wire-encoded logical journal record into the open batch
  /// group, or as a singleton group outside one (and maybe auto-checkpoints).
  void journal_append(std::string_view record);
  /// Scopes a journal batch group; nested scopes fold into the outermost.
  void begin_journal_group();
  void end_journal_group();
  /// One begin/end_journal_group scope, balanced on every exit path.
  class JournalGroup {
   public:
    explicit JournalGroup(Scheduler& scheduler) : scheduler_(scheduler) {
      scheduler_.begin_journal_group();
    }
    ~JournalGroup() { scheduler_.end_journal_group(); }
    JournalGroup(const JournalGroup&) = delete;
    JournalGroup& operator=(const JournalGroup&) = delete;

   private:
    Scheduler& scheduler_;
  };
  /// Writes the buffered group as one {"t":"batch","base":N,"recs":[...]}
  /// WAL frame. Checkpoints call this so snapshots always sit on a group
  /// boundary.
  void flush_journal_group();
  /// Appends one batch frame of `count` encoded records starting at logical
  /// index `base`.
  void append_batch_frame(std::size_t base, std::size_t count,
                          std::string_view recs);
  [[nodiscard]] Duration transfer_cost_estimate(const TaskInfo& info,
                                                const Worker& worker) const;
  [[nodiscard]] Duration compute_estimate(const TaskInfo& info) const;

  sim::Engine& engine_;
  platform::Network& network_;
  SchedulerConfig config_;
  RngStream rng_;
  LogCollector& logs_;

  std::vector<Worker*> workers_;
  std::vector<bool> worker_alive_;
  /// Scheduler-side view of per-worker in-flight tasks (assigned but not
  /// yet reported finished). Placement decisions must use this rather than
  /// asking workers, because assignments are still in flight on the wire
  /// when the next decision is made.
  std::vector<std::size_t> in_flight_;
  /// Only the scheduler's thread touches the table, so it takes no lock.
  std::unordered_map<TaskKey, TaskInfo, TaskKeyHash> tasks_;
  std::map<std::string, GraphInfo> graphs_;
  std::deque<TaskKey> queued_;  ///< runnable tasks waiting for capacity

  /// Observed mean duration per prefix (drives steal/occupancy estimates).
  std::map<std::string, std::pair<double, std::uint64_t>> prefix_durations_;

  std::vector<TransitionRecord> transitions_;
  std::vector<TaskRecord> task_records_;
  std::vector<StealRecord> steals_;
  std::vector<WarningRecord> warnings_;
  std::vector<SchedulerPlugin*> plugins_;
  std::uint64_t erred_ = 0;
  bool stopped_ = false;
  std::size_t rr_counter_ = 0;  ///< round-robin seed for cost ties

  // Leases.
  std::vector<TimePoint> last_heartbeat_;
  std::uint64_t lease_expirations_ = 0;

  // Durability.
  std::optional<SchedulerDurability> durability_;
  std::unique_ptr<wal::WalWriter> journal_;
  /// Full-log *logical* journal record count, *including* compacted-away
  /// and batch-grouped records — checkpoint suffix offsets index the
  /// logical log and must stay stable across compactions and batching.
  std::size_t journal_records_ = 0;
  /// Physical WAL frames in the full log (a batch group is one frame);
  /// compaction watermarks index frames.
  std::size_t journal_frames_ = 0;
  /// Open batch group: its records' encoded bytes, their count, and the
  /// logical index of the first.
  std::size_t journal_group_depth_ = 0;
  std::size_t journal_group_base_ = 0;
  std::size_t journal_group_count_ = 0;
  std::string journal_group_bytes_;
  /// Reused encoding buffers: one journal record, one WAL frame.
  std::string journal_record_;
  std::string journal_frame_;
  /// Task specs in submission order — replayed into compacting checkpoints
  /// so a truncated journal still reproduces every spec.
  std::vector<TaskKey> spec_order_;
  bool recovering_ = false;  ///< suppresses journal + plugin re-emission
  std::uint64_t recoveries_ = 0;
  chaos::FaultInjector* injector_ = nullptr;

  // Out-of-band data plane.
  datastore::DataStore* datastore_ = nullptr;
  /// Workers blocked on a proxy fetch for a key with no surviving replica;
  /// drained (redirected to the recomputed result) by on_task_finished.
  std::map<TaskKey, std::set<WorkerId>> pending_fetch_waiters_;
};

}  // namespace recup::dtr
