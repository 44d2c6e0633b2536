// Provenance tests: layered chart assembly and Figure-8 task lineage.
#include <gtest/gtest.h>

#include "dtr/cluster.hpp"
#include "prov/chart.hpp"
#include "prov/lineage.hpp"

namespace recup::prov {
namespace {

dtr::RunData make_run(std::uint64_t seed = 11, std::uint32_t index = 0) {
  dtr::ClusterConfig config;
  config.job.nodes = 2;
  config.job.workers_per_node = 2;
  config.job.threads_per_worker = 2;
  config.seed = seed;
  dtr::Cluster cluster(config);
  cluster.vfs().register_file("/data/input", 16ULL << 20);

  dtr::TaskGraph g1("graph-one");
  for (int i = 0; i < 8; ++i) {
    dtr::TaskSpec t;
    t.key = {"load-abc123", i};
    t.work.compute = 0.02;
    t.work.output_bytes = 2 << 20;
    t.work.reads.push_back({"/data/input",
                            static_cast<std::uint64_t>(i) * (2 << 20),
                            2 << 20, false});
    g1.add_task(t);
  }
  dtr::TaskGraph g2("graph-two");
  for (int i = 0; i < 8; ++i) {
    dtr::TaskSpec t;
    t.key = {"getitem-24266c", i};
    t.dependencies.push_back({"load-abc123", i});
    t.dependencies.push_back({"load-abc123", (i + 1) % 8});
    t.work.compute = 0.02;
    t.work.output_bytes = 1 << 20;
    g2.add_task(t);
  }
  std::vector<dtr::TaskGraph> graphs;
  graphs.push_back(std::move(g1));
  graphs.push_back(std::move(g2));
  return cluster.run(std::move(graphs), "prov-test", index);
}

TEST(Chart, ThreeLayersPresent) {
  const dtr::RunData run = make_run();
  const json::Value chart = provenance_chart(run);
  EXPECT_TRUE(chart.contains("hardware_infrastructure"));
  EXPECT_TRUE(chart.contains("system_software_and_job"));
  EXPECT_TRUE(chart.contains("application"));
  const auto& app = chart.at("application");
  EXPECT_EQ(app.at("wms").at("tasks").as_int(), 16);
  EXPECT_EQ(app.at("wms").at("task_graphs").as_int(), 2);
  EXPECT_GT(app.at("profiler").at("dxt_segments").as_int(), 0);
  const auto& system = chart.at("system_software_and_job");
  EXPECT_TRUE(system.contains("job_configuration"));
  EXPECT_TRUE(system.contains("wms_configuration"));
  // The Mochi providers the cluster deploys, byte for byte as the committed
  // Figure 8 chart records them.
  EXPECT_EQ(system.at("data_services_configuration").dump(),
            R"({"providers":[{"name":"mofka-metadata","type":"yokan"},)"
            R"({"name":"mofka-data","type":"warabi"},)"
            R"({"dead_after":5,"name":"workers","suspect_after":2,)"
            R"("type":"ssg"}]})");
  const std::string rendered = render_chart(chart);
  EXPECT_NE(rendered.find("application"), std::string::npos);
}

TEST(Lineage, FullSummaryForExecutedTask) {
  const dtr::RunData run = make_run();
  const dtr::TaskKey key{"getitem-24266c", 3};
  const auto lineage = task_lineage(run, key);
  ASSERT_TRUE(lineage.has_value());
  EXPECT_EQ(lineage->at("key").as_string(), "('getitem-24266c', 3)");
  EXPECT_EQ(lineage->at("prefix").as_string(), "getitem");
  EXPECT_EQ(lineage->at("graph").as_string(), "graph-two");

  // Dependencies resolved with status and holder.
  const auto& deps = lineage->at("dependencies").as_array();
  ASSERT_EQ(deps.size(), 2u);
  for (const auto& dep : deps) {
    EXPECT_EQ(dep.at("status").as_string(), "memory");
    EXPECT_FALSE(dep.at("worker").as_string().empty());
  }

  // States captured in chronological order, ending in-memory/memory.
  const auto& states = lineage->at("states").as_array();
  EXPECT_GE(states.size(), 4u);
  double prev = -1.0;
  for (const auto& s : states) {
    EXPECT_GE(s.at("time").as_double(), prev);
    prev = s.at("time").as_double();
    EXPECT_FALSE(s.at("location").as_string().empty());
  }

  // Execution summary fields.
  const auto& exec = lineage->at("execution");
  EXPECT_GT(exec.at("end").as_double(), exec.at("start").as_double());
  EXPECT_GT(exec.at("thread_id").as_int(), 0);

  EXPECT_GE(lineage->at("data_locations").size(), 1u);
  const std::string rendered = render_lineage(*lineage);
  EXPECT_NE(rendered.find("getitem"), std::string::npos);
}

TEST(Lineage, IoRecordsAttributedToReadingTask) {
  const dtr::RunData run = make_run();
  const dtr::TaskKey key{"load-abc123", 2};
  const auto lineage = task_lineage(run, key);
  ASSERT_TRUE(lineage.has_value());
  const auto& io = lineage->at("io_records").as_array();
  ASSERT_GE(io.size(), 1u);
  for (const auto& rec : io) {
    EXPECT_EQ(rec.at("file").as_string(), "/data/input");
    EXPECT_EQ(rec.at("type").as_string(), "read");
    EXPECT_EQ(rec.at("size").as_int(), 2 << 20);
    EXPECT_TRUE(rec.contains("offset"));
    EXPECT_TRUE(rec.contains("pfs"));
  }
}

TEST(Lineage, UnknownTaskReturnsNullopt) {
  const dtr::RunData run = make_run();
  EXPECT_FALSE(task_lineage(run, {"nonexistent-000000", 0}).has_value());
}

TEST(Lineage, DataMovementsMatchComms) {
  const dtr::RunData run = make_run();
  // Pick a task whose output was transferred at least once, if any.
  for (const auto& comm : run.comms) {
    const auto lineage = task_lineage(run, comm.key);
    if (!lineage) continue;  // dependency from within same graph only
    const auto& movements = lineage->at("data_movements").as_array();
    std::size_t expected = 0;
    for (const auto& c : run.comms) {
      if (c.key == comm.key) ++expected;
    }
    EXPECT_EQ(movements.size(), expected);
    // Replicas: locations = producer + destinations.
    EXPECT_EQ(lineage->at("data_locations").size(), 1 + expected);
    break;
  }
}

}  // namespace
}  // namespace recup::prov
