// recup::chaos — deterministic seeded fault injection for the streaming
// provenance pipeline.
//
// A FaultPlan assigns each named *injection site* (e.g. "mofka.push",
// "mofka.consumer.pull", "process.broker", "dtr.worker") a
// probability per fault action plus an optional deterministic schedule
// ("the Nth hit of this site faults"). A FaultInjector executes the plan:
// every time an instrumented component reaches a site it calls decide(),
// which draws from a per-site RNG substream derived from (plan seed, site
// name). Any failing run is therefore replayable from (seed, plan): the
// same plan object — or its JSON round-trip — reproduces the exact same
// decision sequence at every site, provided the per-site call order is
// deterministic (true under the discrete-event engine and for
// single-threaded transports; concurrent callers serialize on the
// injector's mutex, so per-site decisions stay well-defined but their
// assignment to callers follows thread interleaving).
//
// What each action means is defined by the instrumented layer:
//   drop                  — the request is lost before taking effect
//   duplicate             — the effect happens but the ack is lost (push)
//   reorder               — delivery displaced relative to peers (push:
//                           lost-then-retried)
//   delay                 — bounded latency injection
//   transient_error       — the component reports a retryable error
//   partition_unavailable — one partition refuses service for a window
//                           of subsequent hits
//   thread_kill           — the worker process dies
//   process_crash_restart — the whole component process crashes and
//                           restarts from its on-disk (WAL/checkpoint)
//                           state; without durable state this is data loss
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "json/json.hpp"

namespace recup::chaos {

enum class FaultAction {
  kNone,
  kDrop,
  kDuplicate,
  kReorder,
  kDelay,
  kTransientError,
  kPartitionUnavailable,
  kThreadKill,
  kProcessCrashRestart,
};

const char* to_string(FaultAction action);
FaultAction action_from_string(const std::string& name);

/// Thrown by instrumented transports when an injected (or real) fault is
/// retryable: the caller may safely retry the operation, relying on
/// sequence-number dedup for idempotency.
class TransientFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The verdict for one site hit.
struct FaultDecision {
  FaultAction action = FaultAction::kNone;
  /// Injected latency for kDelay (real time for threaded transports; sim
  /// layers map it onto the virtual clock).
  std::chrono::microseconds delay{0};

  [[nodiscard]] bool none() const { return action == FaultAction::kNone; }
};

/// A deterministic fault: fires on exactly the `at_hit`-th time the site is
/// reached (1-based), regardless of probabilities.
struct ScheduledFault {
  std::uint64_t at_hit = 0;
  FaultAction action = FaultAction::kNone;
};

/// Per-site fault configuration. Probabilities are evaluated in the order
/// listed below; their sum should stay <= 1.
struct SiteSpec {
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double delay = 0.0;
  double transient_error = 0.0;
  double partition_unavailable = 0.0;
  double thread_kill = 0.0;
  double process_crash_restart = 0.0;
  std::chrono::microseconds delay_min{50};
  std::chrono::microseconds delay_max{500};
  /// Length of a partition-unavailable outage, counted in subsequent hits
  /// of the same (site, partition).
  std::uint64_t unavailable_hits = 6;
  std::vector<ScheduledFault> schedule;

  [[nodiscard]] double total_probability() const {
    return drop + duplicate + reorder + delay + transient_error +
           partition_unavailable + thread_kill + process_crash_restart;
  }
};

/// Seed + per-site specs. Value type: copy it, serialize it, replay it.
struct FaultPlan {
  std::uint64_t seed = 0;
  std::map<std::string, SiteSpec> sites;

  [[nodiscard]] const SiteSpec* find(const std::string& site) const;
  [[nodiscard]] bool empty() const { return sites.empty(); }

  [[nodiscard]] json::Value to_json() const;
  static FaultPlan from_json(const json::Value& v);
  /// One-line human summary ("seed=7 mofka.push{drop=0.05,...} ...").
  [[nodiscard]] std::string describe() const;

  /// A plan that exercises every transport fault kind each Mofka site
  /// honours (push: drop, duplicate, reorder, transient error, partition
  /// outage, delay; pull: drop, delay) with per-action probability
  /// ~`intensity`. The DTR worker site is left untouched so the simulated
  /// workflow itself is unperturbed — the plan attacks only the provenance
  /// transport.
  static FaultPlan randomized_transport(std::uint64_t seed,
                                        double intensity = 0.05);

  /// A plan attacking the out-of-band data plane: wire-level fetch faults
  /// (drop/truncate/transient) on sites::kDatastoreFetch, each with
  /// per-action probability ~`intensity`. Like randomized_transport, the
  /// workflow itself is left unperturbed — the plan stresses the data
  /// plane's wire retries and payload validation.
  static FaultPlan randomized_datastore(std::uint64_t seed,
                                        double intensity = 0.05);
};

/// Canonical site names used by the instrumented layers.
namespace sites {
inline constexpr const char* kMofkaPush = "mofka.push";
/// Consulted per partition a consumer tries. It honours drop and
/// partition_unavailable (the next event stays hidden for this pull) and
/// delay. A duplicate, or any other action, changes nothing: a consumer
/// reads by offset, so a redelivered earlier event could never reach the
/// application.
inline constexpr const char* kMofkaConsumerPull = "mofka.consumer.pull";
inline constexpr const char* kDtrWorker = "dtr.worker";
/// Whole-process crash/restart sites, consulted by the durable control
/// plane: the broker (per append batch), the scheduler (per completed
/// graph), and the query-tier ingestor (per poll).
inline constexpr const char* kBrokerProcess = "process.broker";
inline constexpr const char* kSchedulerProcess = "process.scheduler";
inline constexpr const char* kIngestorProcess = "process.ingestor";
/// Out-of-band data plane (recup::datastore), consulted per wire-level
/// fetch attempt (partition = source shard): drop-like actions lose the
/// frame, reorder truncates it in transit — both absorbed by the
/// datastore's bounded wire retries, with fingerprint validation
/// guaranteeing a corrupted payload is never installed.
inline constexpr const char* kDatastoreFetch = "datastore.fetch";
/// Durable segment store (recup::segstore). Each site is consulted twice
/// per operation — once before the segment files are written and once
/// after, before the manifest record commits — so a kProcessCrashRestart
/// exercises both halves of the manifest commit protocol: crash with
/// orphaned segment files (recovery must ignore + GC them) and crash with
/// nothing written. Any other fault action surfaces as a TransientFault
/// the store's bounded retry loop absorbs.
inline constexpr const char* kSegstoreFlush = "segstore.flush";
inline constexpr const char* kSegstoreCompact = "segstore.compact";
}  // namespace sites

/// Executes a FaultPlan. Thread-safe; per-site decision streams are
/// deterministic functions of (plan.seed, site name, hit index).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Consults the plan for one hit of `site`.
  FaultDecision decide(const std::string& site);
  /// Partition-scoped variant: hit counters, schedules, and outage windows
  /// are tracked per (site, partition); the SiteSpec is looked up under the
  /// base site name.
  FaultDecision decide(const std::string& site, std::uint32_t partition);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  /// Total hits of a (possibly partition-qualified) site so far.
  [[nodiscard]] std::uint64_t hits(const std::string& site) const;
  /// Injected-fault counts per action name (excludes kNone).
  [[nodiscard]] std::map<std::string, std::uint64_t> counts() const;
  [[nodiscard]] std::uint64_t faults_injected() const;

 private:
  struct SiteState {
    explicit SiteState(RngStream rng) : rng(rng) {}
    RngStream rng;
    std::uint64_t hits = 0;
    /// Hit index (exclusive) until which the site reports unavailable.
    std::uint64_t unavailable_until = 0;
  };

  FaultDecision decide_locked(const std::string& state_key,
                              const SiteSpec& spec);

  FaultPlan plan_;
  mutable std::mutex mutex_;
  std::map<std::string, SiteState> states_;
  std::map<std::string, std::uint64_t> counts_;
  std::uint64_t faults_ = 0;
};

}  // namespace recup::chaos
