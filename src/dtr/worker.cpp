#include "dtr/worker.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/strings.hpp"

namespace recup::dtr {

Worker::Worker(sim::Engine& engine, platform::Network& network, Vfs& vfs,
               WorkerId id, platform::NodeId node, std::string address,
               WorkerConfig config, RngStream rng, LogCollector& logs,
               darshan::RuntimeConfig darshan_config)
    : engine_(engine),
      network_(network),
      vfs_(vfs),
      id_(id),
      node_(node),
      address_(std::move(address)),
      config_(config),
      rng_(rng),
      logs_(logs),
      darshan_(id, address_, darshan_config),
      lane_busy_(config.nthreads, false) {
  if (config.nthreads == 0) {
    throw std::invalid_argument("worker needs >= 1 thread");
  }
}

std::uint64_t Worker::lane_thread_id(std::uint32_t lane) const {
  // Stable synthetic pthread id: high bits fixed, then worker and lane. This
  // mirrors real pthread ids being unique per (process, thread) and is the
  // join key between Darshan DXT segments and task records.
  return 0x7f0000000000ULL + static_cast<std::uint64_t>(id_) * 0x1000ULL +
         lane + 1;
}

void Worker::transition(Exec& exec, WorkerTaskState to,
                        const std::string& stimulus) {
  TransitionRecord record;
  record.key = exec.spec.key;
  record.graph = exec.graph;
  record.from_state = to_string(exec.state);
  record.to_state = to_string(to);
  record.stimulus = stimulus;
  record.location = address_;
  record.time = engine_.now();
  exec.state = to;
  transitions_.push_back(record);
  for (auto* plugin : plugins_) plugin->on_transition(record);
}

void Worker::assign_task(const TaskSpec& spec, const std::string& graph,
                         std::vector<DepLocation> deps, bool was_stolen) {
  if (killed_) return;  // assignment raced with the process death
  auto exec = std::make_shared<Exec>();
  exec->spec = spec;
  exec->graph = graph;
  exec->missing_deps = std::move(deps);
  exec->record.key = spec.key;
  exec->record.graph = graph;
  exec->record.prefix = spec.key.prefix();
  exec->record.worker = id_;
  exec->record.worker_address = address_;
  exec->record.output_bytes = spec.work.output_bytes;
  exec->record.received_time = engine_.now();
  exec->record.stolen = was_stolen;
  exec->record.dependencies = spec.dependencies;
  inflight_.insert(spec.key);
  transition(*exec, WorkerTaskState::kReceived, "compute-task");

  if (exec->missing_deps.empty()) {
    enqueue_ready(exec, "deps-local");
  } else {
    gather_deps(exec);
  }
}

void Worker::gather_deps(const ExecPtr& exec) {
  transition(*exec, WorkerTaskState::kFetchingDeps, "gather-dep");
  // Count what actually needs waiting on. A dep may already be local
  // (fetched for an earlier task) or already in flight; each distinct key
  // is transferred at most once per worker.
  std::vector<DepLocation> to_fetch;
  exec->pending_fetches = 0;
  for (const auto& dep : exec->missing_deps) {
    if (has_data(dep.key)) continue;
    ++exec->pending_fetches;
    const auto it = fetching_.find(dep.key);
    if (it != fetching_.end()) {
      it->second.push_back(exec);
    } else {
      fetching_[dep.key].push_back(exec);
      to_fetch.push_back(dep);
    }
  }
  if (exec->pending_fetches == 0) {
    enqueue_ready(exec, "deps-local");
    return;
  }
  for (const auto& dep : to_fetch) issue_fetch(dep);
}

void Worker::issue_fetch(const DepLocation& dep) {
  const platform::Endpoint source{dep.node_of_holder, dep.holder};
  const platform::Endpoint destination{node_, id_};
  network_.transfer(
      source, destination, dep.bytes,
      [this, dep](const platform::TransferResult& r) {
        CommRecord comm;
        comm.key = dep.key;
        comm.source = dep.holder;
        comm.destination = id_;
        comm.source_address = "worker-" + std::to_string(dep.holder);
        comm.destination_address = address_;
        comm.bytes = dep.bytes;
        comm.start = r.start;
        comm.end = r.end;
        comm.cross_node = r.cross_node;
        comm.cold_connection = r.cold_connection;
        comm.oob = dep.oob;
        if (dep.oob && datastore_ != nullptr) {
          // The network carried the bytes; the datastore layer now
          // validates them against the proxy (size + fingerprint) before
          // anything is installed. Failure means the payload was
          // unusable — report the missing dep instead of completing it.
          if (killed_) return;
          const datastore::FetchStatus status =
              datastore_->fetch(dep.key.to_string(), dep.holder, id_);
          if (status != datastore::FetchStatus::kOk) {
            transfers_.push_back(comm);
            for (auto* plugin : plugins_) plugin->on_incoming_transfer(comm);
            logs_.log(LogLevel::kWarning, address_,
                      "oob fetch of " + dep.key.to_string() + " from worker-" +
                          std::to_string(dep.holder) + " failed (" +
                          datastore::to_string(status) + ")");
            if (on_missing_dep_) on_missing_dep_(dep.key, id_, dep.holder);
            return;
          }
        }
        transfers_.push_back(comm);
        for (auto* plugin : plugins_) plugin->on_incoming_transfer(comm);
        // Fetched dependency now lives in local memory too (replication);
        // tell the scheduler so future placements can use this copy.
        put_data(dep.key, dep.bytes);
        if (on_replica_) on_replica_(dep.key, id_);
        fetch_complete(dep.key);
      });
}

void Worker::refetch_dep(const DepLocation& dep) {
  if (killed_ || stopped_) return;
  if (fetching_.count(dep.key) == 0) return;  // nobody waits on it anymore
  issue_fetch(dep);
}

std::vector<TaskKey> Worker::pending_fetch_keys() const {
  std::vector<TaskKey> out;
  out.reserve(fetching_.size());
  for (const auto& [key, waiters] : fetching_) out.push_back(key);
  return out;
}

void Worker::fetch_complete(const TaskKey& key) {
  const auto it = fetching_.find(key);
  if (it == fetching_.end()) return;
  std::vector<ExecPtr> waiters = std::move(it->second);
  fetching_.erase(it);
  for (const auto& exec : waiters) {
    if (--exec->pending_fetches == 0) {
      enqueue_ready(exec, "deps-arrived");
    }
  }
}

void Worker::enqueue_ready(const ExecPtr& exec, const std::string& stimulus) {
  transition(*exec, WorkerTaskState::kReady, stimulus);
  exec->record.ready_time = engine_.now();
  ready_.push_back(exec);
  maybe_start_tasks();
}

bool Worker::try_release_ready_task(const TaskKey& key) {
  for (auto it = ready_.begin(); it != ready_.end(); ++it) {
    if ((*it)->spec.key == key) {
      transition(**it, WorkerTaskState::kReceived, "steal-release");
      ready_.erase(it);
      inflight_.erase(key);
      return true;
    }
  }
  return false;
}

std::size_t Worker::processing_count() const {
  return ready_.size() + executing_;
}

std::vector<TaskKey> Worker::stealable_tasks() const {
  std::vector<TaskKey> out;
  out.reserve(ready_.size());
  for (const auto& exec : ready_) out.push_back(exec->spec.key);
  return out;
}

void Worker::maybe_start_tasks() {
  if (stopped_) return;
  if (injector_) {
    const auto fault = injector_->decide(chaos::sites::kDtrWorker, id_);
    if (fault.action == chaos::FaultAction::kThreadKill) {
      kill();
      return;
    }
  }
  // New task starts are driven by the worker event loop; while it is
  // blocked (GIL-holding task or GC pause), nothing can be scheduled.
  if (engine_.now() < loop_blocked_until_) {
    engine_.schedule_at(loop_blocked_until_, [this] { maybe_start_tasks(); });
    return;
  }
  while (!ready_.empty()) {
    std::uint32_t lane = 0;
    bool found = false;
    for (std::uint32_t i = 0; i < lane_busy_.size(); ++i) {
      if (!lane_busy_[i]) {
        lane = i;
        found = true;
        break;
      }
    }
    if (!found) return;
    // Pick the highest-priority ready task (lowest value, FIFO tie-break).
    auto best = ready_.begin();
    for (auto it = ready_.begin(); it != ready_.end(); ++it) {
      if ((*it)->spec.priority < (*best)->spec.priority) best = it;
    }
    ExecPtr exec = *best;
    ready_.erase(best);
    lane_busy_[lane] = true;
    ++executing_;
    start_execution(exec, lane);
  }
}

void Worker::start_execution(const ExecPtr& exec, std::uint32_t lane) {
  exec->lane = lane;
  exec->record.lane = lane;
  exec->record.thread_id = lane_thread_id(lane);
  exec->record.start_time = engine_.now();
  transition(*exec, WorkerTaskState::kExecuting, "execute");

  unspill_deps(exec, [this, exec] {
    run_reads(exec, [this, exec] {
      run_kernels(exec, 0, 0, [this, exec] {
        run_compute(exec, [this, exec] {
          run_writes(exec, [this, exec] {
            const bool failed =
                exec->spec.work.failure_probability > 0.0 &&
                rng_.chance(exec->spec.work.failure_probability);
            finish_task(exec, failed);
          });
        });
      });
    });
  });
}

void Worker::unspill_deps(const ExecPtr& exec, std::function<void()> then) {
  // Collect spilled local deps; read them back from scratch before use.
  std::vector<std::pair<std::string, std::uint64_t>> reads;
  for (const auto& dep : exec->spec.dependencies) {
    auto it = data_.find(dep);
    if (it == data_.end() || !it->second.spilled) continue;
    it->second.spilled = false;
    memory_bytes_ += it->second.bytes;
    const std::string path = "/local/scratch/worker-" + std::to_string(id_) +
                             "/" + dep.group + "-" +
                             std::to_string(dep.index) + ".spill";
    reads.emplace_back(path, it->second.bytes);
  }
  if (reads.empty()) {
    then();
    return;
  }
  auto pending = std::make_shared<std::size_t>(reads.size());
  auto done = std::make_shared<std::function<void()>>(std::move(then));
  for (const auto& [path, bytes] : reads) {
    std::uint64_t offset = 0;
    std::uint64_t remaining = bytes;
    // Spill files are written in chunks; read them back the same way but as
    // a single op per file to bound event counts.
    (void)offset;
    (void)remaining;
    if (!vfs_.exists(path)) vfs_.register_file(path, bytes);
    vfs_.read(darshan_, exec->record.thread_id, path, 0, bytes,
              [this, exec, pending, done](const VfsResult& r) {
                exec->record.io_time += r.end - r.start;
                if (--*pending == 0) (*done)();
              });
  }
}

void Worker::run_reads(const ExecPtr& exec, std::function<void()> then) {
  const auto& reads = exec->spec.work.reads;
  if (exec->io_index >= reads.size()) {
    exec->io_index = 0;
    then();
    return;
  }
  const IoOpSpec& op = reads[exec->io_index];
  vfs_.read(darshan_, exec->record.thread_id, op.path, op.offset, op.length,
            [this, exec, then = std::move(then)](const VfsResult& r) mutable {
              exec->record.io_time += r.end - r.start;
              exec->record.bytes_read +=
                  exec->spec.work.reads[exec->io_index].length;
              ++exec->io_index;
              run_reads(exec, std::move(then));
            });
}

void Worker::run_kernels(const ExecPtr& exec, std::size_t kernel_index,
                         std::uint32_t launch_index,
                         std::function<void()> then) {
  const auto& kernels = exec->spec.work.kernels;
  if (gpus_ == nullptr || kernel_index >= kernels.size()) {
    then();
    return;
  }
  const gpuprof::KernelSpec& spec = kernels[kernel_index];
  if (launch_index >= spec.launches) {
    run_kernels(exec, kernel_index + 1, 0, std::move(then));
    return;
  }
  gpus_->launch(node_, spec, exec->record.thread_id,
                [this, exec, kernel_index, launch_index,
                 then = std::move(then)](
                    const gpuprof::KernelRecord& record) mutable {
                  exec->record.gpu_time +=
                      record.end - record.queued;  // incl. queue delay
                  if (gpu_collector_ != nullptr) {
                    gpu_collector_->record(record);
                  }
                  run_kernels(exec, kernel_index, launch_index + 1,
                              std::move(then));
                });
}

void Worker::run_compute(const ExecPtr& exec, std::function<void()> then) {
  const TaskWork& work = exec->spec.work;
  Duration duration = work.compute * config_.speed_factor;
  if (duration > 0.0 && work.compute_noise_sigma > 0.0) {
    duration *= rng_.lognormal(1.0, work.compute_noise_sigma);
  }
  exec->record.compute_time += duration;
  if (work.blocks_event_loop && duration > 0.0) {
    block_event_loop(duration, "task " + exec->spec.key.prefix());
  }
  engine_.schedule_after(duration, [then = std::move(then)] { then(); });
}

void Worker::run_writes(const ExecPtr& exec, std::function<void()> then) {
  const auto& writes = exec->spec.work.writes;
  if (exec->io_index >= writes.size()) {
    exec->io_index = 0;
    then();
    return;
  }
  const IoOpSpec& op = writes[exec->io_index];
  vfs_.write(darshan_, exec->record.thread_id, op.path, op.offset, op.length,
             [this, exec, then = std::move(then)](const VfsResult& r) mutable {
               exec->record.io_time += r.end - r.start;
               exec->record.bytes_written +=
                   exec->spec.work.writes[exec->io_index].length;
               ++exec->io_index;
               run_writes(exec, std::move(then));
             });
}

void Worker::finish_task(const ExecPtr& exec, bool failed) {
  if (killed_) return;  // the process died mid-task: nothing escapes
  exec->record.end_time = engine_.now();
  lane_busy_[exec->lane] = false;
  --executing_;
  inflight_.erase(exec->spec.key);

  if (failed) {
    transition(*exec, WorkerTaskState::kError, "task-erred");
    logs_.log(LogLevel::kError, address_,
              "task " + exec->spec.key.to_string() + " erred");
  } else {
    transition(*exec, WorkerTaskState::kInMemory, "task-finished");
    put_data(exec->spec.key, exec->spec.work.output_bytes);
    if (datastore_ != nullptr &&
        datastore_->oob(exec->spec.work.output_bytes)) {
      // The result goes out-of-band: sealed + pinned in this worker's store
      // shard; the completion message to the scheduler carries a proxy.
      datastore_->publish(exec->spec.key.to_string(), id_,
                          exec->spec.work.output_bytes);
      exec->record.bytes_oob = exec->spec.work.output_bytes;
    } else {
      if (datastore_ != nullptr) {
        datastore_->note_inline(exec->spec.work.output_bytes);
      }
      exec->record.bytes_inline = exec->spec.work.output_bytes;
    }
    // Transient allocations feed the GC model.
    gc_accumulated_ += exec->spec.work.scratch_bytes;
    maybe_collect_garbage();
    maybe_spill();
    for (auto* plugin : plugins_) plugin->on_task_done(exec->record);
  }

  // Report to the scheduler after a control-message hop.
  if (on_finished_) {
    const TaskRecord record = exec->record;
    const TaskKey key = exec->spec.key;
    engine_.schedule_after(config_.control_latency,
                           [this, key, record, failed] {
                             on_finished_(key, record, failed);
                           });
  }
  maybe_start_tasks();
}

void Worker::block_event_loop(Duration duration, const std::string& cause) {
  const TimePoint now = engine_.now();
  if (now >= loop_blocked_until_) {
    // A new blocked episode begins.
    loop_block_began_ = now;
  }
  loop_blocked_until_ = std::max(loop_blocked_until_, now + duration);
  loop_block_cause_ = cause;
  if (!loop_monitor_armed_) {
    loop_monitor_armed_ = true;
    engine_.schedule_at(loop_block_began_ + config_.event_loop_warn_threshold,
                        [this] { loop_monitor_check(); });
  }
}

void Worker::loop_monitor_check() {
  const TimePoint now = engine_.now();
  if (now >= loop_blocked_until_) {
    // Loop recovered before this check; disarm.
    loop_monitor_armed_ = false;
    return;
  }
  WarningRecord warn;
  warn.kind = "event_loop_unresponsive";
  warn.location = address_;
  warn.time = now;
  warn.blocked_for = now - loop_block_began_;
  warn.message = "Event loop was unresponsive in Worker for " +
                 format_double(warn.blocked_for, 2) + "s (" +
                 loop_block_cause_ + ")";
  emit_warning(warn);
  engine_.schedule_after(config_.event_loop_warn_repeat,
                         [this] { loop_monitor_check(); });
}

void Worker::maybe_collect_garbage() {
  if (gc_accumulated_ < config_.gc_threshold_bytes) return;
  const double heap_gib =
      static_cast<double>(gc_accumulated_ + memory_bytes_) /
      (1024.0 * 1024.0 * 1024.0);
  const Duration pause =
      (config_.gc_pause_base + config_.gc_pause_per_gib * heap_gib) *
      rng_.lognormal(1.0, 0.3);
  gc_accumulated_ = 0;
  block_event_loop(pause, "gc");
  if (pause >= config_.gc_warn_threshold) {
    WarningRecord warn;
    warn.kind = "gc_collection";
    warn.location = address_;
    warn.time = engine_.now() + pause;
    warn.blocked_for = pause;
    warn.message = "full garbage collection released memory; took " +
                   format_double(pause * 1000.0, 0) + "ms";
    engine_.schedule_after(pause, [this, warn] { emit_warning(warn); });
  }
}

void Worker::maybe_spill() {
  if (config_.spill_threshold_bytes == 0) return;
  while (memory_bytes_ > config_.spill_threshold_bytes) {
    // Spill the oldest resident entry (LRU approximation by insert order).
    TaskKey victim;
    std::uint64_t oldest = UINT64_MAX;
    bool found = false;
    for (const auto& [key, entry] : data_) {
      if (entry.spilled || entry.bytes == 0) continue;
      if (entry.insert_order < oldest) {
        oldest = entry.insert_order;
        victim = key;
        found = true;
      }
    }
    if (!found) return;
    DataEntry& entry = data_.at(victim);
    entry.spilled = true;
    memory_bytes_ -= entry.bytes;
    ++spill_counter_;
    const std::string path = "/local/scratch/worker-" + std::to_string(id_) +
                             "/" + victim.group + "-" +
                             std::to_string(victim.index) + ".spill";
    // Chunked writeback through the instrumented VFS (appears in Darshan).
    std::uint64_t offset = 0;
    while (offset < entry.bytes) {
      const std::uint64_t chunk =
          std::min(config_.spill_chunk_bytes, entry.bytes - offset);
      vfs_.write(darshan_, lane_thread_id(0), path, offset, chunk,
                 [](const VfsResult&) {});
      offset += chunk;
    }
    logs_.log(LogLevel::kInfo, address_,
              "spilled " + victim.to_string() + " (" +
                  format_bytes(entry.bytes) + ") to disk");
  }
}

void Worker::emit_warning(WarningRecord record) {
  logs_.log(LogLevel::kWarning, record.location, record.message);
  warnings_.push_back(record);
  for (auto* plugin : plugins_) plugin->on_warning(record);
}

bool Worker::has_data(const TaskKey& key) const {
  return data_.count(key) != 0;
}

std::uint64_t Worker::data_size(const TaskKey& key) const {
  const auto it = data_.find(key);
  if (it == data_.end()) {
    throw std::out_of_range("worker has no data for " + key.to_string());
  }
  return it->second.bytes;
}

std::uint64_t Worker::serve_data(const TaskKey& key) const {
  return data_size(key);
}

void Worker::drop_data(const TaskKey& key) {
  const auto it = data_.find(key);
  if (it == data_.end()) return;
  if (!it->second.spilled) memory_bytes_ -= it->second.bytes;
  data_.erase(it);
}

void Worker::put_data(const TaskKey& key, std::uint64_t bytes) {
  const auto [it, inserted] =
      data_.emplace(key, DataEntry{bytes, false, next_insert_order_});
  if (inserted) {
    ++next_insert_order_;
    memory_bytes_ += bytes;
  }
}

void Worker::start_heartbeats() {
  if (!on_heartbeat_ || stopped_) return;
  on_heartbeat_(id_);
  engine_.schedule_after(config_.heartbeat_interval,
                         [this] { start_heartbeats(); });
}

void Worker::stop() { stopped_ = true; }

void Worker::kill() {
  stopped_ = true;
  killed_ = true;
  data_.clear();
  memory_bytes_ = 0;
  ready_.clear();
  fetching_.clear();
  inflight_.clear();
  // The co-located store shard dies with the process: in-flight peer
  // fetches against it fail validation immediately instead of waiting for
  // failure detection.
  if (datastore_ != nullptr) datastore_->kill_shard(id_);
  logs_.log(LogLevel::kError, address_, "worker process died");
}

}  // namespace recup::dtr
