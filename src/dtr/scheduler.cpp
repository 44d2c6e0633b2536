#include "dtr/scheduler.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "dtr/durability.hpp"
#include "dtr/mofka_plugins.hpp"
#include "wire/codec.hpp"

namespace recup::dtr {

namespace {

/// A task that can still run: neither finished (memory, forgotten),
/// terminally erred, nor mid-submission (released).
bool unfinished(SchedulerTaskState state) {
  return state == SchedulerTaskState::kWaiting ||
         state == SchedulerTaskState::kQueued ||
         state == SchedulerTaskState::kNoWorker ||
         state == SchedulerTaskState::kProcessing;
}

/// Decodes one journal WAL frame. Every frame is a batch group; anything
/// else is corruption.
json::Value decode_journal_frame(std::string_view payload) {
  json::Value frame = wire::decode_value(payload);
  if (frame.get_string("t", "") != "batch") {
    throw wal::WalError("scheduler journal: frame is not a batch group");
  }
  return frame;
}

}  // namespace

Scheduler::Scheduler(sim::Engine& engine, platform::Network& network,
                     SchedulerConfig config, RngStream rng,
                     LogCollector& logs)
    : engine_(engine),
      network_(network),
      config_(config),
      rng_(rng),
      logs_(logs) {}

void Scheduler::add_worker(Worker* worker) {
  workers_.push_back(worker);
  worker_alive_.push_back(true);
  in_flight_.push_back(0);
  last_heartbeat_.push_back(engine_.now());
  // Each report is applied as it arrives, inside one journal group, so a
  // report that journals anything lands as one WAL frame.
  worker->set_completion_callback(
      [this](const TaskKey& key, const TaskRecord& record, bool failed) {
        const JournalGroup group(*this);
        on_task_finished(key, record, failed);
      });
  worker->set_heartbeat_callback([this](WorkerId id) { heartbeat(id); });
  worker->set_missing_dep_callback(
      [this](const TaskKey& key, WorkerId requester, WorkerId failed_holder) {
        const JournalGroup group(*this);
        on_missing_dep(key, requester, failed_holder);
      });
  worker->set_replica_callback([this](const TaskKey& key, WorkerId id) {
    TaskInfo* info = find_task(key);
    if (info != nullptr) info->who_has.insert(id);
  });
  logs_.log(LogLevel::kInfo, "scheduler",
            "Register worker " + worker->address());
  for (auto* plugin : plugins_) {
    plugin->on_worker_added(worker->id(), worker->address(), engine_.now());
  }
}

Scheduler::TaskInfo* Scheduler::find_task(const TaskKey& key) {
  const auto it = tasks_.find(key);
  return it == tasks_.end() ? nullptr : &it->second;
}

const Scheduler::TaskInfo* Scheduler::find_task(const TaskKey& key) const {
  const auto it = tasks_.find(key);
  return it == tasks_.end() ? nullptr : &it->second;
}

std::vector<Scheduler::TaskInfo*> Scheduler::tasks_in_key_order() {
  std::vector<TaskInfo*> ordered;
  ordered.reserve(tasks_.size());
  for (auto& [key, info] : tasks_) ordered.push_back(&info);
  std::sort(ordered.begin(), ordered.end(),
            [](const TaskInfo* a, const TaskInfo* b) {
              return a->spec.key < b->spec.key;
            });
  return ordered;
}

void Scheduler::transition(TaskInfo& info, SchedulerTaskState to,
                           const std::string& stimulus) {
  TransitionRecord record;
  record.key = info.spec.key;
  record.graph = info.graph;
  record.from_state = to_string(info.state);
  record.to_state = to_string(to);
  record.stimulus = stimulus;
  record.location = "scheduler";
  record.time = engine_.now();
  info.state = to;
  transitions_.push_back(record);
  if (journal_ && !recovering_) {
    journal_record_.clear();
    put_journal_record(journal_record_, record);
    journal_append(journal_record_);
  }
  for (auto* plugin : plugins_) plugin->on_transition(record);
}

void Scheduler::submit_graph(const TaskGraph& graph, GraphDoneFn on_done) {
  if (graphs_.count(graph.name()) != 0) {
    throw std::invalid_argument("graph name already submitted: " +
                                graph.name());
  }
  // The whole submission journals as one batch group; the scope balances
  // the group across the validation throws below.
  const JournalGroup group(*this);

  GraphInfo& graph_info = graphs_[graph.name()];
  graph_info.name = graph.name();
  graph_info.remaining = graph.size();
  graph_info.on_done = std::move(on_done);

  if (journal_ && !recovering_) {
    journal_record_.clear();
    put_graph_record(journal_record_, graph.name(), graph.size());
    journal_append(journal_record_);
  }

  logs_.log(LogLevel::kInfo, "scheduler",
            "Receive graph " + graph.name() + " with " +
                std::to_string(graph.size()) + " tasks");
  for (auto* plugin : plugins_) {
    plugin->on_graph_received(graph.name(), graph.size(), engine_.now());
  }

  // Materialize TaskInfo for every task, wiring dependency counts against
  // both in-graph tasks and results of earlier graphs already in memory.
  std::vector<TaskKey> runnable;
  for (const auto& [key, spec] : graph.tasks()) {
    auto [it, inserted] = tasks_.try_emplace(key);
    if (!inserted) {
      throw std::invalid_argument("task key resubmitted: " + key.to_string());
    }
    it->second.spec = spec;
    it->second.graph = graph.name();
    spec_order_.push_back(key);
    if (journal_ && !recovering_) {
      journal_record_.clear();
      put_spec_record(journal_record_, graph.name(), spec);
      journal_append(journal_record_);
    }
  }
  for (const auto& [key, spec] : graph.tasks()) {
    TaskInfo& info = tasks_.at(key);
    const TaskKey* erred_dep = nullptr;
    for (const auto& dep : spec.dependencies) {
      TaskInfo* dep_info = find_task(dep);
      if (dep_info == nullptr) {
        throw std::invalid_argument("dependency never submitted: " +
                                    dep.to_string());
      }
      if (dep_info->state == SchedulerTaskState::kForgotten) {
        throw std::invalid_argument(
            "dependency was already released (mark it non-releasable): " +
            dep.to_string());
      }
      dep_info->dependents.push_back(key);
      ++dep_info->remaining_dependents;
      if (dep_info->state == SchedulerTaskState::kMemory) {
        if (!dep_info->who_has.empty()) continue;
        // The result survived in name only: every replica died with its
        // worker before this graph arrived (and with no dependents yet, the
        // failure handler had no reason to recompute it then). Rebuild it
        // now that someone needs it.
        recompute_lost(*dep_info);
      }
      if (dep_info->state == SchedulerTaskState::kErred &&
          erred_dep == nullptr) {
        erred_dep = &dep;
      }
      ++info.waiting_on;
    }
    transition(info, SchedulerTaskState::kWaiting, "update-graph");
    if (erred_dep != nullptr) {
      dead_letter(info, "dependency " + erred_dep->to_string() + " erred");
    } else if (info.waiting_on == 0) {
      runnable.push_back(key);
    }
  }
  // Dispatch runnable tasks in priority order (dask.order analog): lower
  // priority value first, key order as tie-break.
  std::stable_sort(runnable.begin(), runnable.end(),
                   [this](const TaskKey& a, const TaskKey& b) {
                     return tasks_.at(a).spec.priority <
                            tasks_.at(b).spec.priority;
                   });
  for (const auto& key : runnable) {
    dispatch(tasks_.at(key), "update-graph");
  }
}

Duration Scheduler::transfer_cost_estimate(const TaskInfo& info,
                                           const Worker& worker) const {
  Duration cost = 0.0;
  for (const auto& dep : info.spec.dependencies) {
    const TaskInfo* dep_info = find_task(dep);
    if (dep_info == nullptr) continue;
    if (dep_info->who_has.count(worker.id()) != 0) continue;
    if (dep_info->who_has.empty()) continue;
    // Nearest replica.
    Duration best = std::numeric_limits<double>::infinity();
    for (const WorkerId holder : dep_info->who_has) {
      const Worker* held = workers_.at(holder);
      best = std::min(best,
                      network_.estimate(held->node(), worker.node(),
                                        dep_info->spec.work.output_bytes));
    }
    cost += best;
  }
  return cost;
}

Duration Scheduler::compute_estimate(const TaskInfo& info) const {
  const auto it = prefix_durations_.find(info.spec.key.prefix());
  if (it == prefix_durations_.end() || it->second.second == 0) {
    return config_.default_task_duration;
  }
  return it->second.first / static_cast<double>(it->second.second);
}

Worker* Scheduler::decide_worker(const TaskInfo& info) {
  // Score = expected dep-transfer cost + occupancy penalty. The occupancy
  // penalty uses the observed mean duration of each worker's queue depth,
  // matching Dask's occupancy-based tie-breaking.
  //
  // Per-dependency replica sets are hoisted out of the per-worker scan, and
  // the compute estimate (pure during the scan) is evaluated once. The
  // floating-point evaluation order inside the scan is unchanged, so the
  // hoisted form picks the identical worker.
  struct DepTransfer {
    const std::set<WorkerId>* who_has;
    std::uint64_t bytes;
  };
  std::vector<DepTransfer> dep_transfers;
  dep_transfers.reserve(info.spec.dependencies.size());
  for (const auto& dep : info.spec.dependencies) {
    const TaskInfo* dep_info = find_task(dep);
    if (dep_info == nullptr || dep_info->who_has.empty()) continue;
    dep_transfers.push_back(
        {&dep_info->who_has, dep_info->spec.work.output_bytes});
  }
  const double est = compute_estimate(info);
  Worker* best = nullptr;
  double best_score = std::numeric_limits<double>::infinity();
  const std::size_t offset = rr_counter_++;
  if (dep_transfers.empty()) {
    // No remote-replica dependencies: the transfer term is identically zero
    // for every worker (0.0 * bias + occ * est == occ * est), so the scan
    // reduces to pure occupancy.
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const std::size_t index = (i + offset) % workers_.size();
      if (!worker_alive_[index]) continue;
      Worker* worker = workers_[index];
      const double occupancy = static_cast<double>(in_flight_[index]) /
                               static_cast<double>(worker->nthreads());
      const double score = occupancy * est;
      if (score < best_score) {
        best_score = score;
        best = worker;
      }
    }
    return best;
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const std::size_t index = (i + offset) % workers_.size();
    if (!worker_alive_[index]) continue;
    Worker* worker = workers_[index];
    Duration cost = 0.0;
    for (const DepTransfer& dep : dep_transfers) {
      if (dep.who_has->count(worker->id()) != 0) continue;
      Duration dep_best = std::numeric_limits<double>::infinity();
      for (const WorkerId holder : *dep.who_has) {
        const Worker* held = workers_.at(holder);
        dep_best = std::min(
            dep_best, network_.estimate(held->node(), worker->node(),
                                        dep.bytes));
      }
      cost += dep_best;
    }
    const double occupancy = static_cast<double>(in_flight_[index]) /
                             static_cast<double>(worker->nthreads());
    const double score = cost * config_.locality_bias + occupancy * est;
    if (score < best_score) {
      best_score = score;
      best = worker;
    }
  }
  return best;
}

void Scheduler::dispatch(TaskInfo& info, const std::string& stimulus) {
  Worker* worker = workers_.empty() ? nullptr : decide_worker(info);
  if (worker == nullptr) {
    transition(info, SchedulerTaskState::kNoWorker, stimulus);
    return;
  }
  const double saturation_limit =
      static_cast<double>(worker->nthreads()) * config_.saturation_factor;
  if (static_cast<double>(in_flight_[worker->id()]) >= saturation_limit) {
    transition(info, SchedulerTaskState::kQueued, stimulus);
    queued_.push_back(info.spec.key);
    return;
  }
  send_to_worker(info, worker, stimulus, /*stolen=*/false);
}

void Scheduler::send_to_worker(TaskInfo& info, Worker* worker,
                               const std::string& stimulus, bool stolen) {
  transition(info, SchedulerTaskState::kProcessing, stimulus);
  // A steal re-sends a task already counted in flight on the victim; it is
  // removed there and re-assigned here.
  if (stolen && info.assigned != nullptr) {
    --in_flight_[info.assigned->id()];
  }
  ++in_flight_[worker->id()];
  info.assigned = worker;
  info.stolen = stolen;

  // Locations of dependencies the worker must gather from peers.
  std::vector<DepLocation> deps;
  for (const auto& dep : info.spec.dependencies) {
    const TaskInfo* dep_info = find_task(dep);
    if (dep_info == nullptr) continue;
    if (dep_info->who_has.count(worker->id()) != 0) continue;
    if (dep_info->who_has.empty()) {
      throw std::logic_error("dispatching task with unmet dependency " +
                             dep.to_string() + " [stimulus=" + stimulus +
                             " stolen=" + (stolen ? "1" : "0") + "]");
    }
    // Nearest replica serves the transfer.
    WorkerId holder = *dep_info->who_has.begin();
    Duration best = std::numeric_limits<double>::infinity();
    for (const WorkerId candidate : dep_info->who_has) {
      const Duration est =
          network_.estimate(workers_.at(candidate)->node(), worker->node(),
                            dep_info->spec.work.output_bytes);
      if (est < best) {
        best = est;
        holder = candidate;
      }
    }
    DepLocation loc{dep, holder, workers_.at(holder)->node(),
                    dep_info->spec.work.output_bytes, /*oob=*/false, {}};
    // Results published to the datastore travel by reference: the worker
    // gets a proxy and pulls the payload from the holder's shard directly.
    if (datastore_ != nullptr) {
      if (const auto proxy = datastore_->proxy_for(dep.to_string())) {
        loc.oob = true;
        loc.proxy = *proxy;
      }
    }
    deps.push_back(loc);
  }

  const TaskSpec spec = info.spec;
  const std::string graph = info.graph;
  engine_.schedule_after(config_.control_latency,
                         [worker, spec, graph, deps, stolen] {
                           worker->assign_task(spec, graph, deps, stolen);
                         });
}

void Scheduler::on_task_finished(const TaskKey& key, const TaskRecord& record,
                                 bool failed) {
  TaskInfo* found = find_task(key);
  if (found == nullptr) return;
  TaskInfo& info = *found;
  // Stale completion from a worker that lost the assignment (failure
  // recovery re-dispatched the task elsewhere).
  if (info.assigned != nullptr && info.assigned->id() != record.worker) {
    return;
  }
  if (info.state != SchedulerTaskState::kProcessing) return;
  if (info.assigned != nullptr) {
    --in_flight_[info.assigned->id()];
    info.assigned = nullptr;
  }

  if (failed) {
    transition(info, SchedulerTaskState::kErred, "task-erred");
    if (info.retries < config_.max_retries) {
      ++info.retries;
      transition(info, SchedulerTaskState::kWaiting, "retry");
      dispatch(info, "retry");
    } else {
      dead_letter(info, "erred after " + std::to_string(info.retries) +
                            " retries");
    }
    return;
  }

  TaskRecord completed = record;
  completed.retries = info.retries;
  info.who_has.insert(record.worker);
  task_records_.push_back(completed);
  if (journal_ && !recovering_) {
    journal_record_.clear();
    put_journal_record(journal_record_, completed);
    journal_append(journal_record_);
  }
  transition(info, SchedulerTaskState::kMemory, "task-finished");

  // Update per-prefix duration statistics.
  auto& [sum, count] = prefix_durations_[key.prefix()];
  sum += record.end_time - record.start_time;
  ++count;

  // Workers parked on a failed proxy fetch for this key (every replica had
  // died) can now pull the recomputed result from the new holder.
  const auto waiters = pending_fetch_waiters_.find(key);
  if (waiters != pending_fetch_waiters_.end()) {
    for (const WorkerId waiter : waiters->second) {
      if (waiter >= workers_.size() || !worker_alive_[waiter]) continue;
      schedule_refetch(key, record.worker, workers_.at(waiter));
    }
    pending_fetch_waiters_.erase(waiters);
  }

  // Unblock dependents. The incremental waiting_on counter can drift low:
  // recompute_lost pulls an already-counted-done dependency back out of
  // memory without reaching into waiting dependents' counters. Dispatch
  // therefore recounts from ground truth — a zero counter is a trigger to
  // check, not proof of readiness.
  for (const auto& dependent_key : info.dependents) {
    TaskInfo& dependent = tasks_.at(dependent_key);
    if (dependent.waiting_on == 0) continue;  // already released (retry path)
    if (--dependent.waiting_on == 0) {
      const std::size_t unmet = unmet_dependencies(dependent);
      if (unmet == 0) {
        dispatch(dependent, "task-finished");
      } else {
        dependent.waiting_on = unmet;
      }
    }
  }

  // Reference-counted release of this task's own dependencies.
  for (const auto& dep_key : info.spec.dependencies) {
    TaskInfo* dep_info = find_task(dep_key);
    if (dep_info == nullptr) continue;
    if (dep_info->remaining_dependents > 0) {
      --dep_info->remaining_dependents;
    }
    maybe_release(*dep_info);
  }

  // Workers freed capacity: reconsider the scheduler queue.
  drain_queue();

  auto& graph = graphs_.at(info.graph);
  if (--graph.remaining == 0) graph_completed(graph);
}

void Scheduler::graph_completed(GraphInfo& graph) {
  logs_.log(LogLevel::kInfo, "scheduler", "Graph " + graph.name + " done");
  graph.done_fired = true;
  if (graph.on_done) {
    // Fire once: recovery recomputation may re-count completions later.
    GraphDoneFn on_done = std::move(graph.on_done);
    graph.on_done = nullptr;
    on_done(graph.name);
  }
  // A graph boundary is the natural quiescent point: snapshot the control
  // state so a restart replays at most one graph's worth of journal.
  if (journal_ && !recovering_) checkpoint();
  // Process-crash fault site. The crash is deferred one event so the
  // current call stack (possibly deep inside on_task_finished) unwinds over
  // valid state; at a graph boundary no other event precedes it.
  if (injector_ != nullptr && journal_ != nullptr && !recovering_) {
    const auto fault = injector_->decide(chaos::sites::kSchedulerProcess);
    if (fault.action == chaos::FaultAction::kProcessCrashRestart) {
      engine_.schedule_after(0.0, [this] {
        if (!stopped_) crash_and_recover();
      });
    }
  }
}

std::size_t Scheduler::unmet_dependencies(const TaskInfo& info) const {
  std::size_t unmet = 0;
  for (const auto& dep : info.spec.dependencies) {
    const TaskInfo* dep_info = find_task(dep);
    if (dep_info == nullptr) continue;  // external (validated in memory)
    if (dep_info->state == SchedulerTaskState::kMemory &&
        !dep_info->who_has.empty()) {
      continue;
    }
    ++unmet;
  }
  return unmet;
}

void Scheduler::maybe_release(TaskInfo& info) {
  if (!info.spec.work.releasable) return;
  if (info.state != SchedulerTaskState::kMemory) return;
  if (info.dependents.empty() || info.remaining_dependents > 0) return;
  // memory -> released -> forgotten, then drop every replica.
  transition(info, SchedulerTaskState::kReleased, "release-key");
  transition(info, SchedulerTaskState::kForgotten, "forget-key");
  const TaskKey key = info.spec.key;
  for (const WorkerId holder : info.who_has) {
    Worker* worker = workers_.at(holder);
    engine_.schedule_after(config_.control_latency,
                           [worker, key] { worker->drop_data(key); });
  }
  info.who_has.clear();
  // Unpin and drop the out-of-band copies alongside the worker replicas.
  if (datastore_ != nullptr) datastore_->release(key.to_string());
}

bool Scheduler::requeue_if_deps_lost(TaskInfo& info) {
  if (unmet_dependencies(info) == 0) return false;
  // A worker failure wiped the only replica of a dependency while this task
  // sat in the queue; dispatching it now would reference missing data. Send
  // it back to waiting and recover the lost inputs, mirroring
  // requeue_after_failure (but without charging a resubmission: the task
  // never reached a worker).
  transition(info, SchedulerTaskState::kWaiting, "lost-dependency");
  redispatch_waiting(info, "lost-dependency");
  return true;
}

void Scheduler::drain_queue() {
  std::size_t remaining = queued_.size();
  while (remaining-- > 0 && !queued_.empty()) {
    const TaskKey key = queued_.front();
    queued_.pop_front();
    TaskInfo& info = tasks_.at(key);
    if (info.state != SchedulerTaskState::kQueued) continue;
    if (requeue_if_deps_lost(info)) continue;
    Worker* worker = decide_worker(info);
    if (worker == nullptr) {
      queued_.push_back(key);
      continue;
    }
    const double saturation_limit =
        static_cast<double>(worker->nthreads()) * config_.saturation_factor;
    if (static_cast<double>(in_flight_[worker->id()]) < saturation_limit) {
      send_to_worker(info, worker, "queue-pop", /*stolen=*/false);
    } else {
      queued_.push_back(key);
    }
  }
}

void Scheduler::schedule_refetch(const TaskKey& key, WorkerId holder,
                                 Worker* requester) {
  const TaskInfo* info = find_task(key);
  if (info == nullptr) return;
  DepLocation loc{key, holder, workers_.at(holder)->node(),
                  info->spec.work.output_bytes, /*oob=*/false, {}};
  if (datastore_ != nullptr) {
    if (const auto proxy = datastore_->proxy_for(key.to_string())) {
      loc.oob = true;
      loc.proxy = *proxy;
    }
  }
  engine_.schedule_after(config_.control_latency,
                         [requester, loc] { requester->refetch_dep(loc); });
}

void Scheduler::on_missing_dep(const TaskKey& key, WorkerId requester,
                               WorkerId failed_holder) {
  TaskInfo* found = find_task(key);
  if (found == nullptr) return;
  TaskInfo& info = *found;
  // The failed holder's copy is unusable (evicted, lost, or its worker
  // died): stop routing fetches at it.
  info.who_has.erase(failed_holder);
  if (datastore_ != nullptr) {
    datastore_->drop_replica(key.to_string(), failed_holder);
  }
  logs_.log(LogLevel::kError, "scheduler",
            "missing dep " + key.to_string() + ": " +
                workers_.at(requester)->address() + " could not fetch from " +
                workers_.at(failed_holder)->address());
  if (requester >= workers_.size() || !worker_alive_[requester]) return;
  Worker* req = workers_.at(requester);

  // Redirect to the nearest surviving replica, if any.
  WorkerId fallback = 0;
  Duration best = std::numeric_limits<double>::infinity();
  bool found_replica = false;
  for (const WorkerId candidate : info.who_has) {
    if (!worker_alive_[candidate]) continue;
    const Duration est =
        network_.estimate(workers_.at(candidate)->node(), req->node(),
                          info.spec.work.output_bytes);
    if (est < best) {
      best = est;
      fallback = candidate;
      found_replica = true;
    }
  }
  if (found_replica) {
    schedule_refetch(key, fallback, req);
    return;
  }
  // No replica survives: park the requester until the result is
  // recomputed, and push the key through the normal lost-key path.
  pending_fetch_waiters_[key].insert(requester);
  if (info.state == SchedulerTaskState::kMemory) {
    info.who_has.clear();
    recompute_lost(info);
  }
}

void Scheduler::start_stealing_loop() {
  if (!config_.work_stealing || stopped_) return;
  engine_.schedule_after(config_.work_stealing_interval, [this] {
    if (stopped_) return;
    stealing_round();
    start_stealing_loop();
  });
}

void Scheduler::stealing_round() {
  const JournalGroup group(*this);
  // Idle thieves pull ready tasks from saturated victims when the task's
  // estimated compute dominates the data movement it would cause.
  for (Worker* thief : workers_) {
    if (!worker_alive_[thief->id()]) continue;
    if (in_flight_[thief->id()] >= thief->nthreads()) continue;
    Worker* victim = nullptr;
    std::size_t victim_backlog = 0;
    for (Worker* candidate : workers_) {
      if (candidate == thief) continue;
      if (!worker_alive_[candidate->id()]) continue;
      const std::size_t backlog = candidate->ready_count();
      if (backlog > candidate->nthreads() && backlog > victim_backlog) {
        victim = candidate;
        victim_backlog = backlog;
      }
    }
    if (victim == nullptr) continue;
    const auto stealable = victim->stealable_tasks();
    if (stealable.empty()) continue;
    // Steal from the back: newest, least likely to start next.
    const TaskKey key = stealable.back();
    TaskInfo& info = tasks_.at(key);
    const Duration transfer = transfer_cost_estimate(info, *thief);
    const Duration compute = compute_estimate(info);
    if (compute < config_.steal_cost_ratio * transfer) continue;
    if (!victim->try_release_ready_task(key)) continue;

    StealRecord steal;
    steal.key = key;
    steal.victim = victim->id();
    steal.thief = thief->id();
    steal.time = engine_.now();
    steal.estimated_transfer_cost = transfer;
    steal.estimated_compute_cost = compute;
    steals_.push_back(steal);
    if (journal_ && !recovering_) {
      journal_record_.clear();
      put_journal_record(journal_record_, steal);
      journal_append(journal_record_);
    }
    for (auto* plugin : plugins_) plugin->on_steal(steal);
    logs_.log(LogLevel::kInfo, "scheduler",
              "steal " + key.to_string() + " from " + victim->address() +
                  " to " + thief->address());

    // Re-send through the normal path (records the processing->processing
    // transition with the "steal" stimulus and the new assignment).
    send_to_worker(info, thief, "steal", /*stolen=*/true);
  }
}

void Scheduler::heartbeat(WorkerId worker) {
  if (worker < last_heartbeat_.size()) {
    last_heartbeat_[worker] = engine_.now();
  }
}

void Scheduler::start_lease_loop() {
  if (!config_.lease_liveness || stopped_) return;
  engine_.schedule_after(config_.heartbeat_interval, [this] {
    if (stopped_) return;
    lease_round();
    start_lease_loop();
  });
}

void Scheduler::lease_round() {
  // Lease expiry catches workers that stopped making progress without ever
  // emitting a death notification (hung event loop, network partition). The
  // reclaim path is the same idempotent handler SSG death detection feeds,
  // so double detection is harmless.
  const Duration expiry = config_.lease_expiry();
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (!worker_alive_[i]) continue;
    if (engine_.now() - last_heartbeat_[i] <= expiry) continue;
    ++lease_expirations_;
    logs_.log(LogLevel::kError, "scheduler",
              "lease expired for " + workers_[i]->address() +
                  " (no heartbeat for " +
                  std::to_string(engine_.now() - last_heartbeat_[i]) + "s)");
    on_worker_failed(static_cast<WorkerId>(i));
  }
}

void Scheduler::recompute_lost(TaskInfo& info) {
  if (info.state != SchedulerTaskState::kMemory) return;
  transition(info, SchedulerTaskState::kReleased, "lost-data");
  transition(info, SchedulerTaskState::kWaiting, "recompute");
  graphs_.at(info.graph).remaining += 1;
  info.waiting_on = 0;
  for (const auto& dep : info.spec.dependencies) {
    TaskInfo* dep_info = find_task(dep);
    if (dep_info == nullptr) continue;
    if (dep_info->state == SchedulerTaskState::kMemory) {
      if (!dep_info->who_has.empty()) continue;
      recompute_lost(*dep_info);  // transitively lost
      if (info.state == SchedulerTaskState::kErred) return;
    }
    if (dep_info->state == SchedulerTaskState::kForgotten) {
      // A released dependency cannot be rebuilt: terminal error. Counted
      // before the journaled transition, so a checkpoint it triggers
      // already includes it.
      ++erred_;
      transition(info, SchedulerTaskState::kErred, "unrecoverable");
      logs_.log(LogLevel::kError, "scheduler",
                "cannot recompute " + info.spec.key.to_string() +
                    ": dependency " + dep.to_string() + " was released");
      settle_erred(info);
      return;
    }
    ++info.waiting_on;
  }
  if (info.waiting_on == 0) {
    dispatch(info, "recompute");
  }
}

void Scheduler::dead_letter(TaskInfo& info, const std::string& reason) {
  if (info.state != SchedulerTaskState::kErred) {
    transition(info, SchedulerTaskState::kErred, "dead-letter");
  }
  ++erred_;
  WarningRecord warning;
  warning.kind = "dead_letter";
  warning.location = "scheduler";
  warning.time = engine_.now();
  warning.message = "task " + info.spec.key.to_string() + ": " + reason;
  warnings_.push_back(warning);
  if (journal_ && !recovering_) {
    journal_record_.clear();
    put_journal_record(journal_record_, warning);
    journal_append(journal_record_);
  }
  for (auto* plugin : plugins_) plugin->on_warning(warning);
  logs_.log(LogLevel::kError, "scheduler", "dead-letter " + warning.message);
  settle_erred(info);
}

void Scheduler::settle_erred(TaskInfo& info) {
  if (info.assigned != nullptr) {
    std::size_t& in_flight = in_flight_[info.assigned->id()];
    if (in_flight > 0) --in_flight;
    info.assigned = nullptr;
  }
  // Like Dask, an erred task errs its dependents. Indexed: a graph
  // completing below may submit more dependents of this task, which err at
  // submission and are skipped here.
  for (std::size_t i = 0; i < info.dependents.size(); ++i) {
    TaskInfo& dependent = tasks_.at(info.dependents[i]);
    if (!unfinished(dependent.state)) continue;
    dead_letter(dependent,
                "dependency " + info.spec.key.to_string() + " erred");
  }
  // Terminal failure counts towards graph completion so runs finish.
  auto& graph = graphs_.at(info.graph);
  if (--graph.remaining == 0) graph_completed(graph);
}

void Scheduler::redispatch_waiting(TaskInfo& info,
                                   const std::string& stimulus) {
  info.waiting_on = 0;
  for (const auto& dep : info.spec.dependencies) {
    TaskInfo* dep_info = find_task(dep);
    if (dep_info == nullptr) continue;
    if (dep_info->state == SchedulerTaskState::kMemory) {
      if (!dep_info->who_has.empty()) continue;
      recompute_lost(*dep_info);
      if (info.state == SchedulerTaskState::kErred) return;
    }
    ++info.waiting_on;
  }
  if (info.waiting_on == 0) dispatch(info, stimulus);
}

void Scheduler::requeue_after_failure(TaskInfo& info) {
  if (++info.resubmissions > config_.max_resubmissions) {
    dead_letter(info, "resubmission cap (" +
                          std::to_string(config_.max_resubmissions) +
                          ") exhausted after repeated worker failures");
    return;
  }
  transition(info, SchedulerTaskState::kWaiting, "worker-failed");
  redispatch_waiting(info, "worker-failed");
}

void Scheduler::on_worker_failed(WorkerId worker) {
  if (worker >= workers_.size() || !worker_alive_[worker]) return;
  worker_alive_[worker] = false;
  Worker* dead = workers_[worker];
  in_flight_[worker] = 0;
  // Ownership transfer on worker death: entries owned by the dead shard
  // re-pin to a surviving replica; entries with no survivor are dropped
  // from the store and recomputed below like any other lost result.
  // Idempotent with Worker::kill()'s own kill_shard call — lease expiry
  // reaches here without the worker ever being told it died.
  if (datastore_ != nullptr) datastore_->kill_shard(worker);
  logs_.log(LogLevel::kError, "scheduler",
            "Remove worker " + dead->address() + " (failed)");
  for (auto* plugin : plugins_) {
    plugin->on_worker_removed(worker, dead->address(), engine_.now());
  }

  const JournalGroup group(*this);
  // Purge the dead worker's replicas everywhere (order-independent sweep).
  for (auto& [key, info] : tasks_) info.who_has.erase(worker);
  // Re-dispatch its in-flight tasks, then recompute results whose only
  // copies died with it (only those some dependent still needs). Both
  // sweeps bear side effects, so they run in global key order.
  for (TaskInfo* info : tasks_in_key_order()) {
    if (info->state == SchedulerTaskState::kProcessing &&
        info->assigned == dead) {
      info->assigned = nullptr;
      requeue_after_failure(*info);
    }
  }
  for (TaskInfo* info : tasks_in_key_order()) {
    if (info->state == SchedulerTaskState::kMemory && info->who_has.empty() &&
        info->remaining_dependents > 0) {
      recompute_lost(*info);
    }
  }
  drain_queue();
}

void Scheduler::enable_durability(SchedulerDurability durability) {
  journal_ = std::make_unique<wal::WalWriter>(durability.dir, durability.wal);
  // Resume-aware: the journal may already hold records from a previous
  // process. Checkpoint positions index the *logical* record stream (batch
  // groups expanded); each batch frame carries the logical index of its
  // first record, so the count re-syncs across compacted prefixes.
  std::size_t next = 0;
  std::size_t frames = 0;
  const wal::ReplayStats stats = wal::WalWriter::replay(
      durability.dir, [&next, &frames](std::string_view payload) {
        const json::Value frame = decode_journal_frame(payload);
        next = static_cast<std::size_t>(frame.get_int("base", 0)) +
               frame.at("recs").as_array().size();
        ++frames;
      });
  const auto compacted = static_cast<std::size_t>(stats.compacted_records);
  journal_records_ = frames == 0 ? compacted : next;
  journal_frames_ = compacted + frames;
  durability_ = std::move(durability);
}

void Scheduler::journal_append(std::string_view record) {
  if (journal_group_depth_ > 0) {
    if (journal_group_count_ == 0) journal_group_base_ = journal_records_;
    journal_group_bytes_.append(record);
    ++journal_group_count_;
  } else {
    // Outside any group a record still gets a (singleton) group, so every
    // frame carries its logical base — recovery re-syncs logical indices
    // from it after compaction.
    append_batch_frame(journal_records_, 1, record);
  }
  ++journal_records_;
  if (durability_->checkpoint_every > 0 && !recovering_ &&
      journal_records_ % durability_->checkpoint_every == 0) {
    checkpoint();
  }
}

void Scheduler::begin_journal_group() {
  if (journal_ == nullptr || recovering_) return;
  ++journal_group_depth_;
}

void Scheduler::end_journal_group() {
  if (journal_group_depth_ == 0) return;
  if (--journal_group_depth_ == 0) flush_journal_group();
}

void Scheduler::flush_journal_group() {
  if (journal_group_count_ == 0) return;
  append_batch_frame(journal_group_base_, journal_group_count_,
                     journal_group_bytes_);
  journal_group_bytes_.clear();
  journal_group_count_ = 0;
}

void Scheduler::append_batch_frame(std::size_t base, std::size_t count,
                                   std::string_view recs) {
  journal_frame_.clear();
  put_batch_frame(journal_frame_, base, count, recs);
  journal_->append(journal_frame_);
  ++journal_frames_;
}

void Scheduler::checkpoint() {
  if (!durability_) return;
  // Snapshots always land on a batch-group boundary: flush the open group
  // (mid-scope appends then open a fresh group with a new base), then make
  // sure everything the snapshot's journal position covers is readable.
  flush_journal_group();
  journal_->flush();

  // One wire-encoded object, keys in std::map order; recover() reads it
  // back through wire::decode_value.
  const bool compacting = durability_->compact_on_checkpoint;
  std::string out;
  wire::put_object(out, compacting ? 9 : 8);
  wire::put_str(out, "erred");
  wire::put_int(out, static_cast<std::int64_t>(erred_));
  wire::put_str(out, "graphs");
  wire::put_array(out, graphs_.size());
  for (const auto& [name, graph] : graphs_) {
    wire::put_object(out, 3);
    wire::put_str(out, "done_fired");
    wire::put_bool(out, graph.done_fired);
    wire::put_str(out, "name");
    wire::put_str(out, name);
    wire::put_str(out, "remaining");
    wire::put_int(out, static_cast<std::int64_t>(graph.remaining));
  }
  wire::put_str(out, "journal_frames");
  wire::put_int(out, static_cast<std::int64_t>(journal_frames_));
  wire::put_str(out, "journal_records");
  wire::put_int(out, static_cast<std::int64_t>(journal_records_));
  wire::put_str(out, "prefix_durations");
  wire::put_array(out, prefix_durations_.size());
  for (const auto& [prefix, stat] : prefix_durations_) {
    wire::put_object(out, 3);
    wire::put_str(out, "count");
    wire::put_int(out, static_cast<std::int64_t>(stat.second));
    wire::put_str(out, "prefix");
    wire::put_str(out, prefix);
    wire::put_str(out, "sum");
    wire::put_double(out, stat.first);
  }
  wire::put_str(out, "queued");
  wire::put_array(out, queued_.size());
  for (const TaskKey& key : queued_) to_wire(key, out);
  wire::put_str(out, "rr_counter");
  wire::put_int(out, static_cast<std::int64_t>(rr_counter_));
  if (compacting) {
    // Compaction deletes the journal prefix holding the spec records, so a
    // compacting checkpoint must carry every spec itself (in submission
    // order: dependent registration at recovery relies on it).
    wire::put_str(out, "specs");
    wire::put_array(out, spec_order_.size());
    for (const TaskKey& key : spec_order_) {
      const TaskInfo& info = tasks_.at(key);
      wire::put_object(out, 2);
      wire::put_str(out, "graph");
      wire::put_str(out, info.graph);
      wire::put_str(out, "spec");
      to_wire(info.spec, out);
    }
  }
  wire::put_str(out, "tasks");
  wire::put_array(out, tasks_.size());
  for (const TaskInfo* info : tasks_in_key_order()) {
    wire::put_object(out, 7);
    wire::put_str(out, "graph");
    wire::put_str(out, info->graph);
    wire::put_str(out, "key");
    to_wire(info->spec.key, out);
    wire::put_str(out, "remaining_dependents");
    wire::put_int(out, static_cast<std::int64_t>(info->remaining_dependents));
    wire::put_str(out, "resubmissions");
    wire::put_int(out, static_cast<std::int64_t>(info->resubmissions));
    wire::put_str(out, "retries");
    wire::put_int(out, static_cast<std::int64_t>(info->retries));
    wire::put_str(out, "state");
    wire::put_str(out, to_string(info->state));
    wire::put_str(out, "who_has");
    wire::put_array(out, info->who_has.size());
    for (const WorkerId holder : info->who_has) {
      wire::put_int(out, static_cast<std::int64_t>(holder));
    }
  }

  // Atomic replace: a crash or a failed write mid-checkpoint leaves the
  // previous snapshot.
  const auto dir = std::filesystem::path(durability_->dir);
  const auto tmp = dir / "checkpoint.tmp";
  const auto final_path = dir / "checkpoint.bin";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    file.write(out.data(), static_cast<std::streamsize>(out.size()));
    file.close();
    if (!file) {
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      throw wal::WalError("scheduler: cannot write checkpoint " +
                          tmp.string());
    }
  }
  // Compaction deletes journal segments on the strength of this snapshot,
  // so under it the snapshot and its rename are made durable first.
  if (compacting) wal::fsync_path(tmp.string());
  std::filesystem::rename(tmp, final_path);

  // Journal compaction bounded by checkpoint age: every record the snapshot
  // covers is redundant for recovery, so whole leading segments below that
  // watermark can go. The watermark counts physical frames — what the WAL
  // actually stores. Runs after the snapshot is durable — a crash in
  // between still has the old checkpoint and the uncompacted journal.
  if (compacting) {
    wal::fsync_path(dir.string());
    journal_->compact(journal_frames_);
  }
}

void Scheduler::recover() {
  if (!durability_) {
    throw std::logic_error("Scheduler::recover without durability enabled");
  }
  recovering_ = true;

  // Checkpoint, if one exists, grounds the control state; the journal
  // suffix past it is replayed on top.
  json::Value cp;
  bool have_cp = false;
  const auto cp_path =
      std::filesystem::path(durability_->dir) / "checkpoint.bin";
  if (std::filesystem::exists(cp_path)) {
    std::ifstream in(cp_path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    cp = wire::decode_value(bytes);
    have_cp = true;
  }
  const std::size_t cp_records =
      have_cp ? static_cast<std::size_t>(cp.get_int("journal_records", 0)) : 0;

  // Every frame is a wire-encoded batch group: other bytes are a typed
  // WireError, another value a WalError.
  std::vector<json::Value> frames;
  const wal::ReplayStats replay_stats = wal::WalWriter::replay(
      durability_->dir, [&frames](std::string_view payload) {
        frames.push_back(decode_journal_frame(payload));
      });
  const std::size_t compacted_frames =
      static_cast<std::size_t>(replay_stats.compacted_records);

  // Expand batch groups into the logical record stream. A torn tail drops
  // whole frames, so a batch group is atomically present or absent — a
  // crash mid-group can never replay half a batch. Each group frame carries
  // the logical index of its first record ("base"), which re-syncs logical
  // positions after compaction.
  std::vector<json::Value> records;
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t next_logical = compacted_frames;
  std::size_t first_logical = npos;
  for (json::Value& frame : frames) {
    next_logical = static_cast<std::size_t>(
        frame.get_int("base", static_cast<std::int64_t>(next_logical)));
    json::Array& recs = frame["recs"].as_array();
    if (first_logical == npos && !recs.empty()) first_logical = next_logical;
    for (json::Value& rec : recs) {
      records.push_back(std::move(rec));
      ++next_logical;
    }
  }
  journal_frames_ = compacted_frames + frames.size();
  journal_records_ = records.empty()
                         ? (have_cp ? std::max(cp_records, compacted_frames)
                                    : compacted_frames)
                         : next_logical;
  if (first_logical == npos) first_logical = journal_records_;
  if (cp_records > journal_records_) {
    throw wal::WalError("scheduler checkpoint is ahead of the journal (" +
                        std::to_string(cp_records) + " > " +
                        std::to_string(journal_records_) + " records)");
  }
  if (cp_records < first_logical) {
    throw wal::WalError("journal compacted past the checkpoint (" +
                        std::to_string(first_logical) + " > " +
                        std::to_string(cp_records) +
                        " records): specs before the snapshot are "
                        "unrecoverable");
  }

  // Pass 1 (surviving journal): record vectors are full-history provenance,
  // and task specs / dependents are structural, so both rebuild from the
  // oldest surviving record. A compacting checkpoint carries the specs its
  // compacted prefix used to hold — load those first (they precede every
  // surviving journal spec in submission order).
  std::vector<TaskKey> spec_order;
  if (have_cp && cp.contains("specs")) {
    for (const json::Value& s : cp.at("specs").as_array()) {
      TaskSpec spec = spec_from_json(s.at("spec"));
      const TaskKey key = spec.key;
      TaskInfo& info = tasks_[key];
      info.spec = std::move(spec);
      info.graph = s.get_string("graph", "");
      spec_order.push_back(key);
    }
  }
  for (const json::Value& rec : records) {
    const std::string type = rec.get_string("t", "");
    if (type == "graph") {
      const std::string name = rec.get_string("name", "");
      GraphInfo& graph = graphs_[name];
      graph.name = name;
    } else if (type == "spec") {
      TaskSpec spec = spec_from_json(rec.at("spec"));
      const TaskKey key = spec.key;
      const auto [it, inserted] = tasks_.try_emplace(key);
      if (!inserted) continue;  // already in checkpoint specs
      TaskInfo& info = it->second;
      info.spec = std::move(spec);
      info.graph = rec.get_string("graph", "");
      spec_order.push_back(key);
    } else if (type == "transition") {
      transitions_.push_back(transition_from_json(rec.at("r")));
    } else if (type == "task") {
      task_records_.push_back(task_from_json(rec.at("r")));
    } else if (type == "steal") {
      steals_.push_back(steal_from_json(rec.at("r")));
    } else if (type == "warning") {
      warnings_.push_back(warning_from_json(rec.at("r")));
    }
  }
  // Dependent registration follows journal order, which is submission
  // order, so release refcount replay below sees the original ordering.
  for (const TaskKey& key : spec_order) {
    TaskInfo& info = tasks_.at(key);
    for (const TaskKey& dep : info.spec.dependencies) {
      tasks_.at(dep).dependents.push_back(key);
    }
  }
  spec_order_ = std::move(spec_order);

  // Apply the checkpointed control state.
  std::vector<TaskKey> queued_cp;
  if (have_cp) {
    rr_counter_ = static_cast<std::size_t>(cp.get_int("rr_counter", 0));
    erred_ = static_cast<std::uint64_t>(cp.get_int("erred", 0));
    if (cp.contains("prefix_durations")) {
      for (const json::Value& p : cp.at("prefix_durations").as_array()) {
        prefix_durations_[p.get_string("prefix", "")] = {
            p.get_double("sum", 0.0),
            static_cast<std::uint64_t>(p.get_int("count", 0))};
      }
    }
    if (cp.contains("graphs")) {
      for (const json::Value& g : cp.at("graphs").as_array()) {
        GraphInfo& graph = graphs_[g.get_string("name", "")];
        graph.name = g.get_string("name", "");
        graph.remaining = static_cast<std::size_t>(g.get_int("remaining", 0));
        graph.done_fired = g.get_bool("done_fired", false);
      }
    }
    if (cp.contains("tasks")) {
      for (const json::Value& t : cp.at("tasks").as_array()) {
        const TaskKey key = key_from_json(t.at("key"));
        TaskInfo* info = find_task(key);
        if (info == nullptr) continue;
        info->state =
            scheduler_state_from_string(t.get_string("state", "released"));
        info->retries = static_cast<std::uint32_t>(t.get_int("retries", 0));
        info->resubmissions =
            static_cast<std::uint32_t>(t.get_int("resubmissions", 0));
        info->remaining_dependents =
            static_cast<std::size_t>(t.get_int("remaining_dependents", 0));
      }
    }
    if (cp.contains("queued")) {
      for (const json::Value& q : cp.at("queued").as_array()) {
        queued_cp.push_back(key_from_json(q));
      }
    }
  }

  // Pass 2 (journal suffix past the checkpoint): replay control-state
  // deltas — states from transitions, counters from their stimuli,
  // release refcounts from spec registration and task completion.
  // cp_records indexes the logical log; `records` starts at first_logical.
  std::vector<TaskKey> queued_post;
  for (std::size_t i = cp_records - first_logical; i < records.size(); ++i) {
    const json::Value& rec = records[i];
    const std::string type = rec.get_string("t", "");
    if (type == "transition") {
      const TransitionRecord tr = transition_from_json(rec.at("r"));
      TaskInfo* found = find_task(tr.key);
      if (found == nullptr) continue;
      TaskInfo& info = *found;
      info.state = scheduler_state_from_string(tr.to_state);
      if (tr.stimulus == "retry") ++info.retries;
      if (tr.stimulus == "worker-failed") ++info.resubmissions;
      if (tr.stimulus == "unrecoverable") ++erred_;
      if (info.state == SchedulerTaskState::kQueued) {
        queued_post.push_back(tr.key);
      }
      if (info.state == SchedulerTaskState::kMemory &&
          tr.stimulus == "task-finished") {
        for (const TaskKey& dep : info.spec.dependencies) {
          TaskInfo* dep_info = find_task(dep);
          if (dep_info != nullptr && dep_info->remaining_dependents > 0) {
            --dep_info->remaining_dependents;
          }
        }
      }
    } else if (type == "spec") {
      const TaskKey key = key_from_json(rec.at("spec").at("key"));
      for (const TaskKey& dep : tasks_.at(key).spec.dependencies) {
        TaskInfo* dep_info = find_task(dep);
        if (dep_info != nullptr) ++dep_info->remaining_dependents;
      }
    } else if (type == "task") {
      const TaskRecord tr = task_from_json(rec.at("r"));
      auto& [sum, count] = prefix_durations_[tr.key.prefix()];
      sum += tr.end_time - tr.start_time;
      ++count;
    } else if (type == "warning") {
      if (rec.at("r").get_string("kind", "") == "dead_letter") ++erred_;
    }
  }

  // Reconcile against the workers that survived the crash: they are the
  // ground truth for replica placement and still-executing tasks.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    worker_alive_[i] = workers_[i]->alive();
    in_flight_[i] = 0;
    last_heartbeat_[i] = engine_.now();  // fresh leases after restart
  }
  std::vector<TaskKey> orphaned;
  for (TaskInfo* info : tasks_in_key_order()) {
    const TaskKey& key = info->spec.key;
    info->assigned = nullptr;
    info->who_has.clear();
    if (info->state == SchedulerTaskState::kMemory) {
      for (std::size_t i = 0; i < workers_.size(); ++i) {
        if (worker_alive_[i] && workers_[i]->has_data(key)) {
          info->who_has.insert(static_cast<WorkerId>(i));
        }
      }
    } else if (info->state == SchedulerTaskState::kProcessing) {
      // Re-adopt the task if a surviving worker is still executing it;
      // otherwise it died with its worker (or the assignment was lost with
      // our process) and must be re-dispatched.
      for (std::size_t i = 0; i < workers_.size(); ++i) {
        if (worker_alive_[i] && workers_[i]->has_task(key)) {
          info->assigned = workers_[i];
          ++in_flight_[i];
          break;
        }
      }
      if (info->assigned == nullptr) orphaned.push_back(key);
    }
  }
  for (auto& [key, info] : tasks_) {
    if (info.state == SchedulerTaskState::kWaiting) {
      info.waiting_on = unmet_dependencies(info);
    }
  }
  // Queue order: checkpointed order first, then post-checkpoint arrivals,
  // keeping only tasks still queued (and each at most once).
  queued_.clear();
  std::set<TaskKey> enqueued;
  const auto enqueue_if_current = [this, &enqueued](const TaskKey& key) {
    const TaskInfo* info = find_task(key);
    if (info == nullptr) return;
    if (info->state != SchedulerTaskState::kQueued) return;
    if (!enqueued.insert(key).second) return;
    queued_.push_back(key);
  };
  for (const TaskKey& key : queued_cp) enqueue_if_current(key);
  for (const TaskKey& key : queued_post) enqueue_if_current(key);
  // Graph accounting from first principles: every task not terminal counts.
  for (auto& [name, graph] : graphs_) graph.remaining = 0;
  for (const auto& [key, info] : tasks_) {
    if (unfinished(info.state)) ++graphs_.at(info.graph).remaining;
  }
  for (auto& [name, graph] : graphs_) {
    // A drained graph completed before the crash; its on_done already fired
    // in the previous process, so never re-fire it here.
    if (graph.remaining == 0) graph.done_fired = true;
  }

  recovering_ = false;
  ++recoveries_;
  logs_.log(LogLevel::kInfo, "scheduler",
            "recovered from " + durability_->dir + ": " +
                std::to_string(records.size()) + " journal records (" +
                std::to_string(cp_records) + " checkpointed), " +
                std::to_string(tasks_.size()) + " tasks, " +
                std::to_string(orphaned.size()) + " orphaned");

  // Post-recovery fixups run through the normal (journaled, plugin-visible)
  // paths: these are new decisions of the restarted scheduler, not replay.
  for (const TaskKey& key : orphaned) {
    TaskInfo& info = tasks_.at(key);
    if (info.state != SchedulerTaskState::kProcessing) continue;
    transition(info, SchedulerTaskState::kWaiting, "scheduler-restart");
    redispatch_waiting(info, "scheduler-restart");
  }
  for (TaskInfo* info : tasks_in_key_order()) {
    if (info->state == SchedulerTaskState::kMemory && info->who_has.empty() &&
        info->remaining_dependents > 0) {
      recompute_lost(*info);
    }
  }
  // Proxy fetches whose requester was parked as a waiter died with our
  // process's waiter table. Re-register every stalled fetch whose data is
  // not available; fetches with an alive replica are left alone — their
  // transfer events survived the scheduler restart and will complete.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (!worker_alive_[i]) continue;
    for (const TaskKey& key : workers_[i]->pending_fetch_keys()) {
      TaskInfo* info = find_task(key);
      if (info == nullptr) continue;
      if (info->state == SchedulerTaskState::kMemory &&
          !info->who_has.empty()) {
        continue;
      }
      pending_fetch_waiters_[key].insert(static_cast<WorkerId>(i));
      if (info->state == SchedulerTaskState::kMemory) recompute_lost(*info);
    }
  }
  for (TaskInfo* info : tasks_in_key_order()) {
    if (info->state == SchedulerTaskState::kWaiting && info->waiting_on == 0) {
      dispatch(*info, "scheduler-restart");
    }
  }
  drain_queue();
  checkpoint();
}

void Scheduler::crash_and_recover() {
  if (!journal_) {
    throw std::logic_error("Scheduler::crash_and_recover requires durability");
  }
  logs_.log(LogLevel::kError, "scheduler",
            "simulated process crash (restarting from " + durability_->dir +
                ")");
  // What a real crash would leave on disk: whatever the journal had pushed
  // to the OS. flush() models the page cache surviving the process. An open
  // batch group (records buffered in this process's memory) dies with it —
  // recovery sees the group atomically absent.
  journal_->flush();
  tasks_.clear();
  graphs_.clear();
  queued_.clear();
  transitions_.clear();
  task_records_.clear();
  steals_.clear();
  warnings_.clear();
  prefix_durations_.clear();
  erred_ = 0;
  rr_counter_ = 0;
  journal_records_ = 0;
  journal_frames_ = 0;
  journal_group_depth_ = 0;
  journal_group_bytes_.clear();
  journal_group_count_ = 0;
  spec_order_.clear();
  pending_fetch_waiters_.clear();
  std::fill(in_flight_.begin(), in_flight_.end(), 0);
  recover();
}

void Scheduler::set_graph_done(const std::string& graph, GraphDoneFn on_done) {
  const auto it = graphs_.find(graph);
  if (it == graphs_.end()) {
    throw std::invalid_argument("set_graph_done: unknown graph " + graph);
  }
  if (it->second.done_fired) {
    if (on_done) on_done(graph);
    return;
  }
  it->second.on_done = std::move(on_done);
}

bool Scheduler::in_memory(const TaskKey& key) const {
  const TaskInfo* info = find_task(key);
  return info != nullptr && info->state == SchedulerTaskState::kMemory;
}

std::size_t Scheduler::tasks_in_memory() const {
  std::size_t count = 0;
  for (const auto& [key, info] : tasks_) {
    if (info.state == SchedulerTaskState::kMemory) ++count;
  }
  return count;
}

}  // namespace recup::dtr
