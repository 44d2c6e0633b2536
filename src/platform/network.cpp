#include "platform/network.hpp"

#include <algorithm>

namespace recup::platform {

Network::Network(sim::Engine& engine, const Topology& topology,
                 NetworkConfig config, RngStream rng)
    : engine_(engine),
      topology_(topology),
      config_(std::move(config)),
      rng_(rng) {
  nics_.reserve(topology_.node_count());
  for (std::size_t i = 0; i < topology_.node_count(); ++i) {
    nics_.push_back(
        std::make_unique<sim::Resource>(engine_, config_.nic_capacity));
  }
}

Duration Network::estimate(NodeId src, NodeId dst,
                           std::uint64_t bytes) const {
  const int hops = topology_.hops(src, dst);
  if (hops == 0) {
    return config_.intra_node_latency +
           static_cast<double>(bytes) / config_.intra_node_bandwidth;
  }
  return config_.per_hop_latency * hops +
         static_cast<double>(bytes) / config_.inter_node_bandwidth;
}

void Network::transfer(Endpoint src, Endpoint dst, std::uint64_t bytes,
                       std::function<void(const TransferResult&)> on_complete) {
  const bool cross_node = src.node != dst.node;
  Duration service = estimate(src.node, dst.node, bytes);
  service *= rng_.lognormal(1.0, config_.jitter_sigma);

  // Connection setup: paid once per ordered endpoint pair, as with Dask's
  // persistent worker-to-worker TCP connections.
  bool cold = false;
  const auto key = std::make_pair(std::min(src, dst), std::max(src, dst));
  if (!connected_[key]) {
    connected_[key] = true;
    cold = true;
    ++cold_;
    service += rng_.lognormal(config_.connection_setup_median,
                              config_.connection_setup_sigma);
  }

  // Intra-node transfers bypass the NIC (shared memory); inter-node
  // transfers contend for the *destination* NIC, matching Dask where
  // gather_dep pulls data into the requesting worker.
  if (!cross_node) {
    const TimePoint start = engine_.now();
    engine_.schedule_after(
        service, [start, cold, cross_node, on_complete = std::move(on_complete),
                  this] {
          on_complete(TransferResult{start, engine_.now(), cross_node, cold});
        });
    return;
  }
  nics_[dst.node]->request(
      service, [cold, cross_node, on_complete = std::move(on_complete)](
                   TimePoint start, TimePoint end) {
        on_complete(TransferResult{start, end, cross_node, cold});
      });
}

}  // namespace recup::platform
