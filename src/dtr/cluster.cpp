#include "dtr/cluster.hpp"

#include <stdexcept>

namespace recup::dtr {

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  logs_.set_clock([this] { return engine_.now(); });

  topology_ = std::make_unique<platform::Topology>(
      platform::make_polaris_like(config_.job.nodes));
  network_ = std::make_unique<platform::Network>(
      engine_, *topology_, config_.network, rng_.substream("network"));
  pfs_ = std::make_unique<platform::Pfs>(engine_, config_.pfs,
                                         rng_.substream("pfs"));
  vfs_ = std::make_unique<Vfs>(engine_, *pfs_);

  // Mochi services bootstrapped via Bedrock: metadata KV + data blobs for
  // Mofka, and the worker membership group for SSG.
  services_ = std::make_unique<mochi::ServiceHandle>(
      mochi::ServiceHandle::from_string(R"({
        "providers": [
          {"type": "yokan",  "name": "mofka-metadata"},
          {"type": "warabi", "name": "mofka-data"},
          {"type": "ssg",    "name": "workers",
           "suspect_after": 2, "dead_after": 5}
        ]
      })"));
  if (config_.durability.broker_dir().empty()) {
    broker_ = std::make_unique<mofka::Broker>(
        services_->yokan("mofka-metadata"), services_->warabi("mofka-data"));
  } else {
    broker_ = std::make_unique<mofka::Broker>(
        services_->yokan("mofka-metadata"), services_->warabi("mofka-data"),
        mofka::BrokerDurability::from(config_.durability));
  }
  if (!config_.fault_plan.empty()) {
    injector_ = std::make_shared<chaos::FaultInjector>(config_.fault_plan);
    broker_->set_fault_injector(injector_);
  }
  create_wms_topics(*broker_);
  if (config_.enable_mofka) {
    mofka_scheduler_plugin_ =
        std::make_unique<MofkaSchedulerPlugin>(*broker_, config_.producer);
    mofka_worker_plugin_ =
        std::make_unique<MofkaWorkerPlugin>(*broker_, config_.producer);
  }

  SchedulerConfig sched_config = config_.scheduler;
  sched_config.work_stealing = config_.wms.work_stealing;
  sched_config.work_stealing_interval = config_.wms.work_stealing_interval_s;
  // One heartbeat cadence for everything: the platform profile's knob drives
  // the workers, the SSG membership loop, and the scheduler's lease layer.
  sched_config.heartbeat_interval = config_.wms.heartbeat_interval_s;
  scheduler_ = std::make_unique<Scheduler>(engine_, *network_, sched_config,
                                           rng_.substream("scheduler"), logs_);
  if (mofka_scheduler_plugin_) {
    scheduler_->add_plugin(mofka_scheduler_plugin_.get());
  }
  if (!config_.durability.scheduler_dir().empty()) {
    scheduler_->enable_durability(
        SchedulerDurability::from(config_.durability));
  }
  if (injector_) {
    scheduler_->set_fault_injector(injector_.get());
  }
  if (config_.datastore.enabled) {
    datastore_ = std::make_unique<datastore::DataStore>(config_.datastore,
                                                        injector_.get());
    scheduler_->set_datastore(datastore_.get());
  }

  WorkerConfig worker_config = config_.worker;
  worker_config.nthreads = config_.job.threads_per_worker;
  worker_config.event_loop_warn_threshold =
      config_.wms.event_loop_warn_threshold_s;
  worker_config.heartbeat_interval = config_.wms.heartbeat_interval_s;

  if (config_.enable_gpuprof) {
    gpus_ = std::make_unique<gpuprof::GpuSet>(
        engine_, topology_->node_count(), config_.gpu,
        rng_.substream("gpus"));
    gpu_collector_ = std::make_unique<gpuprof::Collector>();
  }

  // Per-run node performance factors (the allocation "lottery").
  RngStream node_rng = rng_.substream("node-speeds");
  std::vector<double> node_speed(topology_->node_count(), 1.0);
  for (double& speed : node_speed) {
    if (config_.node_speed_sigma > 0.0) {
      speed = node_rng.lognormal(1.0, config_.node_speed_sigma);
    }
    if (node_rng.chance(config_.slow_node_probability)) {
      speed *= config_.slow_node_factor;
    }
  }

  mochi::Group& group = services_->ssg("workers");
  const std::size_t total_workers = config_.job.total_workers();
  for (std::size_t i = 0; i < total_workers; ++i) {
    const auto node =
        static_cast<platform::NodeId>(i / config_.job.workers_per_node);
    worker_config.speed_factor = node_speed[node];
    const std::string address =
        "tcp://10.201." + std::to_string(node) + ".2:" +
        std::to_string(9000 + i % config_.job.workers_per_node);
    auto worker = std::make_unique<Worker>(
        engine_, *network_, *vfs_, static_cast<WorkerId>(i), node, address,
        worker_config, rng_.substream("worker-" + std::to_string(i)), logs_,
        config_.darshan);
    if (mofka_worker_plugin_) {
      worker->add_plugin(mofka_worker_plugin_.get());
    }
    if (gpus_) {
      worker->set_gpus(gpus_.get(), gpu_collector_.get());
    }
    if (injector_) {
      worker->set_fault_injector(injector_);
    }
    if (datastore_) {
      datastore_->add_shard(static_cast<datastore::ShardId>(i), node);
      worker->set_datastore(datastore_.get());
    }
    scheduler_->add_worker(worker.get());
    worker_members_.push_back(group.join(address));
    workers_.push_back(std::move(worker));
  }

  // SSG fault detection feeds the scheduler's recovery path: when the group
  // declares a member dead, the matching worker is failed over.
  group.add_observer([this](const mochi::Member& member,
                            mochi::MembershipUpdate update) {
    if (update != mochi::MembershipUpdate::kDied) return;
    for (std::size_t i = 0; i < worker_members_.size(); ++i) {
      if (worker_members_[i] == member.id) {
        scheduler_->on_worker_failed(static_cast<WorkerId>(i));
        return;
      }
    }
  });

  client_ = std::make_unique<Client>(engine_, *scheduler_, config_.client,
                                     rng_.substream("client"), logs_);
}

void Cluster::fail_worker_at(WorkerId id, TimePoint when) {
  if (id >= workers_.size()) throw std::out_of_range("unknown worker id");
  engine_.schedule_at(when, [this, id] { workers_[id]->kill(); });
}

Cluster::~Cluster() = default;

void Cluster::membership_loop() {
  if (done_) return;
  mochi::Group& group = services_->ssg("workers");
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i]->alive()) {
      group.heartbeat(worker_members_[i]);
    }
  }
  group.tick();
  engine_.schedule_after(config_.wms.heartbeat_interval_s * 2.0,
                         [this] { membership_loop(); });
}

RunData Cluster::run(std::vector<TaskGraph> graphs,
                     const std::string& workflow_name,
                     std::uint32_t run_index) {
  if (ran_) throw std::logic_error("Cluster::run may only be called once");
  ran_ = true;

  const std::size_t graph_count = graphs.size();
  // Later graphs may depend on results of earlier graphs, which persist in
  // distributed memory across submissions.
  std::vector<TaskKey> external;
  for (const auto& graph : graphs) {
    graph.validate(external);
    for (const auto& [key, spec] : graph.tasks()) external.push_back(key);
  }

  done_ = false;
  scheduler_->start_stealing_loop();
  scheduler_->start_lease_loop();
  membership_loop();
  for (auto& worker : workers_) worker->start_heartbeats();
  if (config_.enable_darshan_streaming) {
    std::vector<Worker*> worker_ptrs;
    for (auto& worker : workers_) worker_ptrs.push_back(worker.get());
    bridge_ = std::make_unique<DarshanMofkaBridge>(
        engine_, *broker_, std::move(worker_ptrs), config_.darshan_bridge);
    bridge_->start();
  }
  if (config_.enable_ldms) {
    ldms_ = std::make_unique<ldms::Sampler>(engine_, config_.ldms);
    for (platform::NodeId node = 0; node < topology_->node_count(); ++node) {
      std::vector<Worker*> node_workers;
      for (auto& worker : workers_) {
        if (worker->node() == node) node_workers.push_back(worker.get());
      }
      ldms_->add_provider([this, node_workers] {
        ldms::MetricSample sample;
        std::size_t busy = 0;
        std::size_t lanes = 0;
        for (const Worker* worker : node_workers) {
          busy += worker->executing_count();
          lanes += worker->nthreads();
          sample.memory_bytes += worker->memory_bytes();
        }
        sample.cpu_utilization =
            lanes > 0 ? static_cast<double>(busy) / static_cast<double>(lanes)
                      : 0.0;
        sample.network_transfers = network_->transfers_started();
        sample.pfs_ops = pfs_->ops_started();
        return sample;
      });
    }
    ldms_->start();
  }

  client_->run(std::move(graphs), workers_.size(), [this] {
    done_ = true;
    scheduler_->stop();
    for (auto& worker : workers_) worker->stop();
    if (bridge_) bridge_->stop();
    if (ldms_) ldms_->stop();
  });

  engine_.run();
  if (!done_) {
    throw std::runtime_error(
        "workflow deadlocked: engine drained before completion");
  }

  if (mofka_scheduler_plugin_) mofka_scheduler_plugin_->flush();
  if (mofka_worker_plugin_) mofka_worker_plugin_->flush();

  // Assemble RunData from every layer.
  RunData run;
  run.meta.workflow = workflow_name;
  run.meta.seed = config_.seed;
  run.meta.run_index = run_index;
  run.meta.wall_start = 0.0;
  run.meta.wall_end = engine_.now();
  run.job = config_.job;
  run.coordination_time = client_->coordination_time();
  run.graph_count = graph_count;

  run.transitions = scheduler_->transitions();
  run.tasks = scheduler_->task_records();
  run.steals = scheduler_->steals();
  const auto& sched_warns = scheduler_->warnings();
  run.warnings.insert(run.warnings.end(), sched_warns.begin(),
                      sched_warns.end());
  for (const auto& worker : workers_) {
    const auto& wt = worker->transitions();
    run.transitions.insert(run.transitions.end(), wt.begin(), wt.end());
    const auto& comms = worker->incoming_transfers();
    run.comms.insert(run.comms.end(), comms.begin(), comms.end());
    const auto& warns = worker->warnings();
    run.warnings.insert(run.warnings.end(), warns.begin(), warns.end());

    darshan::LogFile log;
    log.job.job_id = config_.job.job_id;
    log.job.executable = workflow_name;
    log.job.nprocs = static_cast<std::uint32_t>(workers_.size());
    log.job.start_time = 0.0;
    log.job.end_time = engine_.now();
    log.job.run_seed = config_.seed;
    log.posix = worker->darshan().posix_records();
    log.dxt = worker->darshan().dxt_records();
    run.darshan_logs.push_back(std::move(log));
  }
  run.logs = logs_.records();
  if (gpu_collector_) run.kernels = gpu_collector_->records();
  if (ldms_) run.system_metrics = ldms_->samples();

  json::Object environment;
  environment["hardware"] = topology_->to_json();
  environment["software"] = platform::SoftwareEnvironment{}.to_json();
  environment["job"] = config_.job.to_json();
  environment["wms_config"] = config_.wms.to_json();
  environment["mochi_config"] = services_->config();
  if (datastore_) {
    const datastore::DataStoreStats ds = datastore_->stats();
    json::Object d;
    d["inline_threshold"] = config_.datastore.inline_threshold;
    d["publishes"] = ds.publishes;
    d["republishes"] = ds.republishes;
    d["ownership_transfers"] = ds.ownership_transfers;
    d["repins"] = ds.repins;
    d["lost_entries"] = ds.lost_entries;
    d["oob_results"] = ds.oob_results;
    d["inline_results"] = ds.inline_results;
    d["oob_bytes"] = ds.oob_bytes;
    d["inline_bytes"] = ds.inline_bytes;
    d["proxy_wire_bytes"] = ds.proxy_wire_bytes;
    d["fetches"] = ds.fetches;
    d["fetch_retries"] = ds.fetch_retries;
    d["fetch_failures"] = ds.fetch_failures;
    d["validation_failures"] = ds.validation_failures;
    d["replicas_added"] = ds.replicas_added;
    d["replica_drops"] = ds.replica_drops;
    d["fetch_wire_bytes"] = ds.fetch_wire_bytes;
    environment["datastore"] = json::Value(std::move(d));
  }
  run.environment = json::Value(std::move(environment));
  return run;
}

}  // namespace recup::dtr
