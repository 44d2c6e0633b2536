// Worker: executes tasks on a fixed pool of executor threads ("lanes"), one
// task per thread at a time, exactly like Dask workers running each task in
// an independent thread (paper §III-E3). Workers fetch missing dependencies
// from peer workers over the network model (gather_dep), perform the task's
// simulated POSIX I/O through the instrumented VFS, and keep results in
// distributed memory. They also host the two warning sources Figure 7
// analyzes: an event-loop responsiveness monitor and a garbage-collection
// model.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "chaos/fault.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "darshan/runtime.hpp"
#include "datastore/store.hpp"
#include "dtr/plugins.hpp"
#include "gpuprof/collector.hpp"
#include "gpuprof/gpu.hpp"
#include "dtr/records.hpp"
#include "dtr/task.hpp"
#include "dtr/vfs.hpp"
#include "platform/network.hpp"
#include "sim/engine.hpp"

namespace recup::dtr {

struct WorkerConfig {
  std::size_t nthreads = 8;
  /// Relative compute slowdown of this worker's node (1.0 = nominal). Set
  /// per run from the platform model: "the allocated nodes may vary in
  /// performance" (paper §III-E1) — a major variability source, since a
  /// slow node lags its round of tasks and triggers work stealing.
  double speed_factor = 1.0;
  /// Scheduler<->worker / worker<->worker control message latency.
  Duration control_latency = 1e-4;
  /// Event-loop blockage beyond this emits an unresponsive warning
  /// (distributed's default detection threshold is 3 s).
  Duration event_loop_warn_threshold = 3.0;
  /// While blocked, an additional warning fires every this many seconds
  /// (the monitor keeps reporting as long as the loop stays stuck).
  Duration event_loop_warn_repeat = 2.0;
  /// Transient allocations accumulate; exceeding this triggers a GC cycle.
  std::uint64_t gc_threshold_bytes = 768ULL * 1024 * 1024;
  Duration gc_pause_base = 0.04;
  Duration gc_pause_per_gib = 0.25;
  /// GC pauses above this are logged as warnings.
  Duration gc_warn_threshold = 0.1;
  /// Heartbeat period to the scheduler / SSG group.
  Duration heartbeat_interval = 0.5;
  /// Distributed-memory budget; exceeding it spills results to local
  /// scratch (0 disables spilling). Spill writes and later un-spill reads
  /// go through the instrumented VFS, so they appear in the Darshan data —
  /// one source of the run-to-run I/O-count variability Table I reports.
  std::uint64_t spill_threshold_bytes = 0;
  /// Maximum bytes per spill write operation.
  std::uint64_t spill_chunk_bytes = 64ULL * 1024 * 1024;
};

/// Location + size information the scheduler sends along with an assignment
/// so the worker can gather dependencies.
struct DepLocation {
  TaskKey key;
  WorkerId holder = 0;
  platform::NodeId node_of_holder = 0;
  std::uint64_t bytes = 0;
  /// Out-of-band dependency: the payload lives in the datastore and the
  /// fetch resolves `proxy` (validating size + fingerprint) instead of
  /// trusting the inline transfer.
  bool oob = false;
  datastore::Proxy proxy;
};

class Worker {
 public:
  /// `on_task_finished(key, record, failed)`: control message back to the
  /// scheduler (already delayed by control latency when invoked).
  using CompletionFn =
      std::function<void(const TaskKey&, const TaskRecord&, bool failed)>;
  using HeartbeatFn = std::function<void(WorkerId)>;
  /// Notifies the scheduler that this worker now holds a replica of a key
  /// (Dask's add-keys message after gather_dep).
  using ReplicaFn = std::function<void(const TaskKey&, WorkerId)>;
  /// Reports that an out-of-band fetch of `key` from `failed_holder` could
  /// not be validated (dead shard / evicted region / exhausted wire
  /// retries). The scheduler answers with refetch_dep from a surviving
  /// replica, or recomputes the producer and refetches once it lands.
  using MissingDepFn =
      std::function<void(const TaskKey&, WorkerId requester,
                         WorkerId failed_holder)>;

  Worker(sim::Engine& engine, platform::Network& network, Vfs& vfs,
         WorkerId id, platform::NodeId node, std::string address,
         WorkerConfig config, RngStream rng, LogCollector& logs,
         darshan::RuntimeConfig darshan_config);

  // --- Identity ------------------------------------------------------------
  [[nodiscard]] WorkerId id() const { return id_; }
  [[nodiscard]] platform::NodeId node() const { return node_; }
  [[nodiscard]] const std::string& address() const { return address_; }
  [[nodiscard]] std::size_t nthreads() const { return config_.nthreads; }

  // --- Scheduler-facing control -------------------------------------------
  /// Accepts a task for execution. `graph` names the submitting task graph;
  /// `deps` lists remote dependency locations (local deps omitted).
  void assign_task(const TaskSpec& spec, const std::string& graph,
                   std::vector<DepLocation> deps, bool was_stolen);

  /// Attempts to remove a not-yet-started task (work stealing). Succeeds
  /// only while the task sits in the ready queue.
  bool try_release_ready_task(const TaskKey& key);

  /// True while the task is anywhere in this worker's pipeline (received,
  /// fetching deps, ready, or executing). A restarted scheduler uses this to
  /// re-adopt in-flight work instead of re-dispatching it.
  [[nodiscard]] bool has_task(const TaskKey& key) const {
    return inflight_.count(key) != 0;
  }

  /// Re-issues an in-flight fetch against a different holder after the
  /// scheduler resolved a missing-dep report. No-op when the key is no
  /// longer being waited on.
  void refetch_dep(const DepLocation& dep);
  /// Keys with fetches outstanding (waiting tasks attached). A restarted
  /// scheduler uses this to restart fetches whose answer died with it.
  [[nodiscard]] std::vector<TaskKey> pending_fetch_keys() const;

  /// Tasks ready or executing (Dask's occupancy proxy for decide_worker).
  [[nodiscard]] std::size_t processing_count() const;
  [[nodiscard]] std::size_t ready_count() const { return ready_.size(); }
  [[nodiscard]] std::size_t executing_count() const { return executing_; }
  /// Ready-queue tasks eligible for stealing, oldest last.
  [[nodiscard]] std::vector<TaskKey> stealable_tasks() const;

  // --- Distributed memory ----------------------------------------------------
  [[nodiscard]] bool has_data(const TaskKey& key) const;
  [[nodiscard]] std::uint64_t data_size(const TaskKey& key) const;
  /// Serves a peer's gather_dep (bookkeeping only; cost is on the network).
  [[nodiscard]] std::uint64_t serve_data(const TaskKey& key) const;
  void drop_data(const TaskKey& key);
  /// Injects a value directly (scatter / results of previous graphs).
  void put_data(const TaskKey& key, std::uint64_t bytes);
  [[nodiscard]] std::uint64_t memory_bytes() const { return memory_bytes_; }

  // --- Wiring ----------------------------------------------------------------
  void set_completion_callback(CompletionFn fn) { on_finished_ = std::move(fn); }
  void set_heartbeat_callback(HeartbeatFn fn) { on_heartbeat_ = std::move(fn); }
  void set_replica_callback(ReplicaFn fn) { on_replica_ = std::move(fn); }
  void set_missing_dep_callback(MissingDepFn fn) {
    on_missing_dep_ = std::move(fn);
  }
  /// Attaches the out-of-band data plane. Results >= its inline_threshold
  /// are published to this worker's shard on completion and gather_deps
  /// resolves proxy-tagged dependencies through validated peer fetches.
  void set_datastore(datastore::DataStore* store) { datastore_ = store; }
  /// Attaches the node's shared GPU devices and the NSIGHT-analog
  /// collector; tasks with kernel specs then execute them on-device.
  void set_gpus(gpuprof::GpuSet* gpus, gpuprof::Collector* collector) {
    gpus_ = gpus;
    gpu_collector_ = collector;
  }
  void add_plugin(WorkerPlugin* plugin) { plugins_.push_back(plugin); }
  /// Chaos hook: the worker loop consults chaos::sites::kDtrWorker (with
  /// this worker's id as the partition) before starting tasks; an injected
  /// kThreadKill kills the process mid-run.
  void set_fault_injector(std::shared_ptr<chaos::FaultInjector> injector) {
    injector_ = std::move(injector);
  }
  void start_heartbeats();
  void stop();
  /// Hard failure: the process dies — no further completions are reported,
  /// all in-memory data is lost, heartbeats cease. Used by fault-injection
  /// tests and the SSG recovery path.
  void kill();
  [[nodiscard]] bool alive() const { return !killed_; }

  [[nodiscard]] darshan::Runtime& darshan() { return darshan_; }
  [[nodiscard]] const darshan::Runtime& darshan() const { return darshan_; }
  [[nodiscard]] const std::vector<CommRecord>& incoming_transfers() const {
    return transfers_;
  }
  [[nodiscard]] const std::vector<WarningRecord>& warnings() const {
    return warnings_;
  }
  [[nodiscard]] const std::vector<TransitionRecord>& transitions() const {
    return transitions_;
  }

 private:
  struct Exec {
    TaskSpec spec;
    std::string graph;
    std::vector<DepLocation> missing_deps;
    TaskRecord record;
    std::size_t pending_fetches = 0;
    std::size_t io_index = 0;
    std::uint32_t lane = 0;
    WorkerTaskState state = WorkerTaskState::kReceived;
  };
  using ExecPtr = std::shared_ptr<Exec>;

  void transition(Exec& exec, WorkerTaskState to, const std::string& stimulus);
  void gather_deps(const ExecPtr& exec);
  /// Issues the network transfer for one dependency and, for oob deps, the
  /// validated datastore fetch when the bytes land.
  void issue_fetch(const DepLocation& dep);
  void fetch_complete(const TaskKey& key);
  void enqueue_ready(const ExecPtr& exec, const std::string& stimulus);
  void maybe_start_tasks();
  void start_execution(const ExecPtr& exec, std::uint32_t lane);
  void run_kernels(const ExecPtr& exec, std::size_t kernel_index,
                   std::uint32_t launch_index, std::function<void()> then);
  void run_reads(const ExecPtr& exec, std::function<void()> then);
  void run_compute(const ExecPtr& exec, std::function<void()> then);
  void run_writes(const ExecPtr& exec, std::function<void()> then);
  void finish_task(const ExecPtr& exec, bool failed);
  void block_event_loop(Duration duration, const std::string& cause);
  void loop_monitor_check();
  void maybe_collect_garbage();
  void emit_warning(WarningRecord record);
  [[nodiscard]] std::uint64_t lane_thread_id(std::uint32_t lane) const;

  sim::Engine& engine_;
  platform::Network& network_;
  Vfs& vfs_;
  WorkerId id_;
  platform::NodeId node_;
  std::string address_;
  WorkerConfig config_;
  RngStream rng_;
  LogCollector& logs_;
  darshan::Runtime darshan_;

  struct DataEntry {
    std::uint64_t bytes = 0;
    bool spilled = false;
    std::uint64_t insert_order = 0;
  };

  void maybe_spill();
  /// Un-spills any spilled local dependencies of `exec` (issues reads),
  /// then calls `then`.
  void unspill_deps(const ExecPtr& exec, std::function<void()> then);

  std::vector<bool> lane_busy_;
  std::deque<ExecPtr> ready_;
  /// Keys currently being fetched from peers, with the tasks waiting on
  /// them. A key is fetched once per worker no matter how many local tasks
  /// need it (Dask's gather_dep dedup).
  std::map<TaskKey, std::vector<ExecPtr>> fetching_;
  std::size_t executing_ = 0;
  /// Keys of tasks assigned but not yet finished (or released to a thief).
  std::set<TaskKey> inflight_;
  std::map<TaskKey, DataEntry> data_;  // distributed memory: key -> entry
  std::uint64_t next_insert_order_ = 0;
  std::uint64_t spill_counter_ = 0;
  std::uint64_t memory_bytes_ = 0;
  std::uint64_t gc_accumulated_ = 0;
  TimePoint loop_blocked_until_ = 0.0;
  TimePoint loop_block_began_ = 0.0;   ///< start of the current episode
  bool loop_monitor_armed_ = false;
  std::string loop_block_cause_;
  bool stopped_ = false;
  bool killed_ = false;

  CompletionFn on_finished_;
  HeartbeatFn on_heartbeat_;
  ReplicaFn on_replica_;
  MissingDepFn on_missing_dep_;
  datastore::DataStore* datastore_ = nullptr;
  std::shared_ptr<chaos::FaultInjector> injector_;
  gpuprof::GpuSet* gpus_ = nullptr;
  gpuprof::Collector* gpu_collector_ = nullptr;
  std::vector<WorkerPlugin*> plugins_;
  std::vector<CommRecord> transfers_;
  std::vector<WarningRecord> warnings_;
  std::vector<TransitionRecord> transitions_;
};

}  // namespace recup::dtr
