// Unit tests for the platform models: topology, network (cold connections,
// NIC contention, hop costs), and the Lustre-like PFS (striping, stragglers,
// queueing).
#include <gtest/gtest.h>

#include "platform/network.hpp"
#include "platform/pfs.hpp"
#include "platform/sysinfo.hpp"
#include "platform/topology.hpp"

namespace recup::platform {
namespace {

TEST(Topology, PolarisLikeShape) {
  const Topology topo = make_polaris_like(4, 2);
  EXPECT_EQ(topo.node_count(), 4u);
  EXPECT_TRUE(topo.same_switch(0, 1));
  EXPECT_FALSE(topo.same_switch(1, 2));
  EXPECT_EQ(topo.hops(0, 0), 0);
  EXPECT_EQ(topo.hops(0, 1), 1);
  EXPECT_EQ(topo.hops(0, 2), 2);
}

TEST(Topology, HostnamesUniqueAndJsonComplete) {
  const Topology topo = make_polaris_like(6, 2);
  std::set<std::string> names;
  for (const auto& node : topo.nodes()) names.insert(node.hostname);
  EXPECT_EQ(names.size(), 6u);
  const auto j = topo.to_json();
  EXPECT_EQ(j.at("nodes").size(), 6u);
  EXPECT_EQ(j.at("nodes").at(0).at("cpu_model").as_string(),
            "AMD EPYC Milan 7543P");
}

TEST(Topology, RejectsBadIds) {
  std::vector<NodeSpec> nodes(2);
  nodes[0].id = 0;
  nodes[1].id = 5;  // not dense
  EXPECT_THROW(Topology(std::move(nodes)), std::invalid_argument);
  EXPECT_THROW(Topology({}), std::invalid_argument);
  const Topology topo = make_polaris_like(2);
  EXPECT_THROW(topo.node(9), std::out_of_range);
}

TEST(Network, EstimateScalesWithBytesAndHops) {
  sim::Engine engine;
  const Topology topo = make_polaris_like(4, 2);
  NetworkConfig config;
  Network net(engine, topo, config, RngStream(1));
  const Duration intra = net.estimate(0, 0, 1 << 20);
  const Duration same_switch = net.estimate(0, 1, 1 << 20);
  const Duration cross_switch = net.estimate(0, 2, 1 << 20);
  EXPECT_LT(intra, same_switch);
  EXPECT_LT(same_switch, cross_switch);
  EXPECT_LT(net.estimate(0, 2, 1 << 10), net.estimate(0, 2, 1 << 24));
}

TEST(Network, FirstTransferPaysConnectionSetup) {
  sim::Engine engine;
  const Topology topo = make_polaris_like(2, 2);
  NetworkConfig config;
  config.jitter_sigma = 0.0;
  Network net(engine, topo, config, RngStream(7));
  std::vector<TransferResult> results;
  const Endpoint a{0, 1};
  const Endpoint b{1, 2};
  net.transfer(a, b, 1024, [&](const TransferResult& r) {
    results.push_back(r);
    // Second transfer on the warm connection.
    net.transfer(a, b, 1024, [&](const TransferResult& r2) {
      results.push_back(r2);
    });
  });
  engine.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].cold_connection);
  EXPECT_FALSE(results[1].cold_connection);
  const Duration cold = results[0].end - results[0].start;
  const Duration warm = results[1].end - results[1].start;
  EXPECT_GT(cold, warm * 5);  // setup dominates small transfers
  EXPECT_EQ(net.cold_connections(), 1u);
}

TEST(Network, ConnectionIsSymmetricPerPair) {
  sim::Engine engine;
  const Topology topo = make_polaris_like(2, 2);
  Network net(engine, topo, NetworkConfig{}, RngStream(7));
  const Endpoint a{0, 1};
  const Endpoint b{1, 2};
  bool second_cold = true;
  net.transfer(a, b, 10, [&](const TransferResult&) {
    net.transfer(b, a, 10, [&](const TransferResult& r) {
      second_cold = r.cold_connection;
    });
  });
  engine.run();
  EXPECT_FALSE(second_cold);  // reverse direction reuses the connection
}

TEST(Network, IntraNodeSkipsNic) {
  sim::Engine engine;
  const Topology topo = make_polaris_like(2, 2);
  NetworkConfig config;
  config.nic_capacity = 1;
  config.jitter_sigma = 0.0;
  config.connection_setup_median = 0.0001;
  Network net(engine, topo, config, RngStream(3));
  int done = 0;
  // Many concurrent intra-node transfers should not queue behind each other.
  std::vector<TimePoint> ends;
  for (int i = 0; i < 8; ++i) {
    net.transfer(Endpoint{0, 1}, Endpoint{0, 2}, 1024,
                 [&](const TransferResult& r) {
                   ++done;
                   ends.push_back(r.end);
                 });
  }
  engine.run();
  EXPECT_EQ(done, 8);
  // All complete at (nearly) the same time: no serialization.
  EXPECT_NEAR(ends.front(), ends.back(), 0.05);
}

TEST(Network, CrossNodeMarksFlag) {
  sim::Engine engine;
  const Topology topo = make_polaris_like(2, 2);
  Network net(engine, topo, NetworkConfig{}, RngStream(3));
  bool cross = false;
  bool intra = true;
  net.transfer(Endpoint{0, 1}, Endpoint{1, 2}, 10,
               [&](const TransferResult& r) { cross = r.cross_node; });
  net.transfer(Endpoint{0, 1}, Endpoint{0, 3}, 10,
               [&](const TransferResult& r) { intra = r.cross_node; });
  engine.run();
  EXPECT_TRUE(cross);
  EXPECT_FALSE(intra);
}

TEST(Pfs, IoCompletesAndCountsOps) {
  sim::Engine engine;
  PfsConfig config;
  Pfs pfs(engine, config, RngStream(5));
  int done = 0;
  pfs.io("/data/x", 0, 4 << 20, false, [&](const IoResult&) { ++done; });
  pfs.io("/data/x", 0, 1 << 20, true, [&](const IoResult&) { ++done; });
  pfs.metadata_op([&](const IoResult&) { ++done; });
  engine.run();
  EXPECT_EQ(done, 3);
}

TEST(Pfs, LargerIoTakesLonger) {
  // Isolated instances so the two ops don't contend on shared OSTs.
  const auto timed_read = [](std::uint64_t bytes) {
    sim::Engine engine;
    PfsConfig config;
    config.read_jitter_sigma = 0.0;
    config.straggler_probability = 0.0;
    Pfs pfs(engine, config, RngStream(5));
    Duration duration = 0.0;
    pfs.io("/f", 0, bytes, false,
           [&](const IoResult& r) { duration = r.end - r.start; });
    engine.run();
    return duration;
  };
  const Duration small = timed_read(64 << 10);
  const Duration large = timed_read(64 << 20);
  EXPECT_GT(large, small * 5);
}

TEST(Pfs, StragglersOccurAtConfiguredRate) {
  sim::Engine engine;
  PfsConfig config;
  config.straggler_probability = 0.5;
  Pfs pfs(engine, config, RngStream(5));
  int stragglers = 0;
  for (int i = 0; i < 200; ++i) {
    pfs.io("/f" + std::to_string(i), 0, 1024, false,
           [&](const IoResult& r) {
             if (r.straggler) ++stragglers;
           });
  }
  engine.run();
  EXPECT_GT(stragglers, 50);
  EXPECT_LT(stragglers, 150);
  EXPECT_GT(pfs.straggler_ops(), 0u);
}

TEST(Pfs, ZeroLengthIoCompletes) {
  sim::Engine engine;
  Pfs pfs(engine, PfsConfig{}, RngStream(5));
  bool done = false;
  pfs.io("/empty", 0, 0, false, [&](const IoResult&) { done = true; });
  engine.run();
  EXPECT_TRUE(done);
}

TEST(Pfs, ContentionQueuesOnOsts) {
  sim::Engine engine;
  PfsConfig config;
  config.ost_count = 1;
  config.stripe_count = 1;
  config.ost_capacity = 1;
  config.read_jitter_sigma = 0.0;
  config.straggler_probability = 0.0;
  Pfs pfs(engine, config, RngStream(5));
  std::vector<Duration> spans;
  for (int i = 0; i < 4; ++i) {
    pfs.io("/same", 0, 16 << 20, false, [&](const IoResult& r) {
      spans.push_back(r.end);
    });
  }
  engine.run();
  ASSERT_EQ(spans.size(), 4u);
  // Strictly serialized on the single OST.
  EXPECT_GT(spans[3], spans[0] * 3);
  EXPECT_GT(pfs.total_queue_delay(), 0.0);
}

TEST(Pfs, RejectsInvalidConfig) {
  sim::Engine engine;
  PfsConfig config;
  config.ost_count = 0;
  EXPECT_THROW(Pfs(engine, config, RngStream(1)), std::invalid_argument);
}

TEST(Sysinfo, JsonShapes) {
  const SoftwareEnvironment sw;
  const auto sw_json = sw.to_json();
  EXPECT_TRUE(sw_json.contains("packages"));
  EXPECT_EQ(sw_json.at("packages").at("dask").as_string(), "2024.4.1");

  JobConfiguration job;
  EXPECT_EQ(job.total_workers(), 8u);
  EXPECT_EQ(job.to_json().at("threads_per_worker").as_int(), 8);

  const WmsConfiguration wms;
  EXPECT_DOUBLE_EQ(
      wms.to_json().at("event_loop_warn_threshold_s").as_double(), 3.0);
}

}  // namespace
}  // namespace recup::platform
