// Cluster: assembles the full instrumented stack for one workflow run —
// topology, network, PFS, VFS, scheduler, workers, client, the Mochi
// providers (Yokan metadata and Warabi data for Mofka, the SSG membership
// group), the Mofka broker with scheduler/worker plugins, and the Darshan
// runtimes inside each worker. `run()` drives the discrete-event engine to
// completion and returns the collected RunData.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/durability.hpp"
#include "chaos/fault.hpp"
#include "datastore/store.hpp"
#include "dtr/client.hpp"
#include "dtr/darshan_bridge.hpp"
#include "dtr/mofka_plugins.hpp"
#include "dtr/recorder.hpp"
#include "dtr/scheduler.hpp"
#include "dtr/task.hpp"
#include "dtr/vfs.hpp"
#include "dtr/worker.hpp"
#include "gpuprof/collector.hpp"
#include "gpuprof/gpu.hpp"
#include "mochi/ssg.hpp"
#include "mochi/warabi.hpp"
#include "mochi/yokan.hpp"
#include "mofka/broker.hpp"
#include "platform/network.hpp"
#include "platform/pfs.hpp"
#include "platform/sysinfo.hpp"
#include "platform/topology.hpp"
#include "sim/engine.hpp"

namespace recup::dtr {

struct ClusterConfig {
  platform::JobConfiguration job;  ///< nodes / workers / threads
  platform::NetworkConfig network;
  platform::PfsConfig pfs;
  platform::WmsConfiguration wms;
  WorkerConfig worker;        ///< nthreads is overridden from `job`
  SchedulerConfig scheduler;  ///< stealing flags overridden from `wms`
  darshan::RuntimeConfig darshan;
  /// Streams provenance through the Mofka plugins when true.
  bool enable_mofka = true;
  /// Models the nodes' GPUs and collects NSIGHT-analog kernel traces.
  bool enable_gpuprof = true;
  /// Out-of-band data plane (recup::datastore): one store shard per worker;
  /// results of datastore::kInlineThreshold (4 KiB) or more travel the
  /// control plane as proxies and move peer-to-peer instead. False keeps
  /// every result inline (the pre-datastore path).
  bool enable_datastore = true;
  gpuprof::GpuConfig gpu;
  /// Streams Darshan records through Mofka at runtime (the paper's "fully
  /// online system" future work). Off by default: the paper's evaluated
  /// configuration collects Darshan logs post hoc.
  bool enable_darshan_streaming = false;
  DarshanBridgeConfig darshan_bridge;
  /// Mofka producer batching. Batches flush when full, and everything left
  /// is flushed at run end.
  mofka::ProducerConfig producer{/*batch_size=*/128};
  /// Deterministic fault injection (recup::chaos). When non-empty, a
  /// FaultInjector seeded from the plan is installed on the Mofka broker
  /// (push, pull and process sites) and on every worker (dtr.worker site).
  /// Any failing run replays from (plan.seed, plan).
  chaos::FaultPlan fault_plan;
  /// Unified durability config (common/durability.hpp). When
  /// durability.dir is non-empty the control plane becomes durable: the
  /// broker WALs events/offsets under
  /// `<dir>/broker` and the scheduler journals + checkpoints under
  /// `<dir>/scheduler`. Required for the chaos process.{broker,scheduler}
  /// crash sites to fire.
  DurabilityConfig durability;
  std::uint64_t seed = 42;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- Dataset preparation (before run) -------------------------------------
  Vfs& vfs() { return *vfs_; }
  sim::Engine& engine() { return engine_; }
  [[nodiscard]] const platform::Topology& topology() const {
    return *topology_;
  }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }
  Scheduler& scheduler() { return *scheduler_; }
  mofka::Broker& broker() { return *broker_; }
  /// Non-null only when config.fault_plan is non-empty.
  [[nodiscard]] const std::shared_ptr<chaos::FaultInjector>&
  fault_injector() const {
    return injector_;
  }
  mochi::Group& worker_group() { return worker_group_; }
  /// Non-null only when config.enable_datastore (the default).
  datastore::DataStore* datastore() { return datastore_.get(); }
  /// Non-null only when enable_darshan_streaming is set.
  DarshanMofkaBridge* darshan_bridge() { return bridge_.get(); }

  /// Executes the graphs in sequence and returns all collected data.
  /// `workflow_name` and `run_index` stamp the RunMetadata.
  RunData run(std::vector<TaskGraph> graphs, const std::string& workflow_name,
              std::uint32_t run_index = 0);

  /// Fault injection: kills worker `id` at virtual time `when`. SSG's
  /// heartbeat misses detect the death and the scheduler recovers (requeue
  /// + lost-key recomputation). Call before run().
  void fail_worker_at(WorkerId id, TimePoint when);

 private:
  void membership_loop();

  ClusterConfig config_;
  sim::Engine engine_;
  RngStream rng_;
  LogCollector logs_;
  std::unique_ptr<platform::Topology> topology_;
  std::unique_ptr<platform::Network> network_;
  std::unique_ptr<platform::Pfs> pfs_;
  std::unique_ptr<Vfs> vfs_;
  // Mochi providers: Mofka's metadata KV and data blobs, and the SSG group
  // of workers. Their names and thresholds are recorded as mochi_config.
  mochi::KeyValueStore mofka_metadata_;
  mochi::BlobStore mofka_data_;
  mochi::Group worker_group_;
  std::unique_ptr<mofka::Broker> broker_;
  std::shared_ptr<chaos::FaultInjector> injector_;
  std::unique_ptr<datastore::DataStore> datastore_;
  std::unique_ptr<gpuprof::GpuSet> gpus_;
  std::unique_ptr<gpuprof::Collector> gpu_collector_;
  std::unique_ptr<DarshanMofkaBridge> bridge_;
  std::unique_ptr<MofkaSchedulerPlugin> mofka_scheduler_plugin_;
  std::unique_ptr<MofkaWorkerPlugin> mofka_worker_plugin_;
  std::unique_ptr<Scheduler> scheduler_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<mochi::MemberId> worker_members_;
  std::unique_ptr<Client> client_;
  bool done_ = false;
  bool ran_ = false;
};

}  // namespace recup::dtr
