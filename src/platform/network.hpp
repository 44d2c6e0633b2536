// Interconnect model on the virtual clock.
//
// Transfer cost = connection setup (first transfer between an endpoint pair
// only) + per-hop latency + serialized bytes / effective bandwidth, with
// multiplicative log-normal jitter. Each node's NICs are capacity-limited
// resources, so concurrent transfers queue — reproducing the contention and
// the "long small communications near workflow start" the paper observes in
// Figure 5 (connection establishment dominates small early transfers).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "platform/topology.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace recup::platform {

struct NetworkConfig {
  /// One-way latency for intra-node (loopback/shared-memory) transfers.
  Duration intra_node_latency = 5e-6;
  /// Per-hop latency across the fabric.
  Duration per_hop_latency = 1.5e-5;
  /// Effective intra-node bandwidth (shared-memory copy), bytes/s.
  double intra_node_bandwidth = 8.0e9;
  /// Effective inter-node bandwidth per transfer, bytes/s.
  double inter_node_bandwidth = 2.2e9;
  /// Multiplicative jitter sigma (log-normal, median 1.0).
  double jitter_sigma = 0.25;
  /// Median cost of establishing a new connection between two endpoints.
  Duration connection_setup_median = 0.25;
  /// Log-normal sigma of the connection setup cost.
  double connection_setup_sigma = 0.6;
  /// Concurrent transfers a node's NIC set can serve before queueing.
  std::size_t nic_capacity = 4;
};

/// Result of a completed transfer, delivered to the callback.
struct TransferResult {
  TimePoint start = 0.0;   ///< when the transfer actually began service
  TimePoint end = 0.0;     ///< completion time
  bool cross_node = false; ///< false when src and dst share a node
  bool cold_connection = false;  ///< true when connection setup was paid
};

/// Endpoints are identified by (node, endpoint id) — an endpoint is a worker
/// or the scheduler; connection state is tracked per endpoint pair just as
/// Dask keeps one TCP connection per worker pair.
struct Endpoint {
  NodeId node = 0;
  std::uint32_t endpoint_id = 0;
  auto operator<=>(const Endpoint&) const = default;
};

class Network {
 public:
  Network(sim::Engine& engine, const Topology& topology, NetworkConfig config,
          RngStream rng);

  /// Initiates a transfer of `bytes` from `src` to `dst`; `on_complete` is
  /// invoked at the virtual completion time.
  void transfer(Endpoint src, Endpoint dst, std::uint64_t bytes,
                std::function<void(const TransferResult&)> on_complete);

  /// Pure cost estimate without side effects (used by the scheduler's
  /// decide_worker data-locality heuristic, which reasons about expected
  /// transfer cost rather than measured cost).
  [[nodiscard]] Duration estimate(NodeId src, NodeId dst,
                                  std::uint64_t bytes) const;

  [[nodiscard]] std::uint64_t cold_connections() const { return cold_; }
  [[nodiscard]] const NetworkConfig& config() const { return config_; }

 private:
  sim::Engine& engine_;
  const Topology& topology_;
  NetworkConfig config_;
  RngStream rng_;
  std::vector<std::unique_ptr<sim::Resource>> nics_;  // one per node
  std::map<std::pair<Endpoint, Endpoint>, bool> connected_;
  std::uint64_t cold_ = 0;
};

}  // namespace recup::platform
