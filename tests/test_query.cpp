// Query service tests: IR parsing/validation, planner explain output,
// predicate masks, catalog epochs, the result cache, wire framing, the
// concurrent server (backpressure, deadlines, drain-on-shutdown), live
// ingestion from Mofka topics, and a multi-threaded smoke test with clients
// querying while runs are being ingested.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dtr/mofka_plugins.hpp"
#include "mochi/bedrock.hpp"
#include "mofka/broker.hpp"
#include "mofka/producer.hpp"
#include "query/cache.hpp"
#include "query/catalog.hpp"
#include "query/client.hpp"
#include "query/ingest.hpp"
#include "query/ir.hpp"
#include "query/plan.hpp"
#include "query/server.hpp"
#include "query/wire.hpp"

namespace recup::query {
namespace {

using analysis::Column;
using analysis::ColumnType;
using analysis::DataFrame;

/// Synthetic run with deterministic records: `n` tasks alternating between
/// two prefixes on two workers, a transition pair per task, one comm per
/// even task, and one warning.
dtr::RunData make_run(const std::string& workflow, std::uint32_t index,
                      int n = 8) {
  dtr::RunData run;
  run.meta.workflow = workflow;
  run.meta.run_index = index;
  for (int i = 0; i < n; ++i) {
    dtr::TaskRecord t;
    t.key = {"job-" + workflow, i};
    t.graph = "g0";
    t.prefix = (i % 2 == 0) ? "ingest" : "train";
    t.worker = static_cast<dtr::WorkerId>(i % 2);
    t.worker_address = "tcp://10.0.0." + std::to_string(i % 2);
    t.thread_id = 100 + static_cast<std::uint64_t>(i);
    t.start_time = 1.0 * i;
    t.end_time = 1.0 * i + 0.5 + 0.1 * (i % 2);
    t.compute_time = 0.4;
    t.output_bytes = 1024u * static_cast<std::uint64_t>(i + 1);
    run.tasks.push_back(t);

    dtr::TransitionRecord tr;
    tr.key = t.key;
    tr.graph = "g0";
    tr.from_state = "processing";
    tr.to_state = "memory";
    tr.stimulus = "task-finished";
    tr.location = t.worker_address;
    tr.time = t.end_time;
    run.transitions.push_back(tr);
    tr.from_state = "released";
    tr.to_state = "processing";
    tr.stimulus = "compute-task";
    tr.time = t.start_time;
    run.transitions.push_back(tr);

    if (i % 2 == 0) {
      dtr::CommRecord c;
      c.key = t.key;
      c.source = 0;
      c.destination = 1;
      c.bytes = 4096;
      c.start = t.end_time;
      c.end = t.end_time + 0.01;
      run.comms.push_back(c);
    }
  }
  dtr::WarningRecord w;
  w.kind = "gc_collection";
  w.location = "scheduler";
  w.time = 0.5;
  w.blocked_for = 0.2;
  run.warnings.push_back(w);
  return run;
}

// ---------------------------------------------------------------------------
// IR parsing and canonical form

TEST(QueryIr, ParsesFullGrammar) {
  const Query q = parse_query(std::string(R"({
    "from": "tasks",
    "workflow": "XGBOOST",
    "run": 3,
    "where": [{"col": "duration", "op": ">", "value": 0.5},
              {"col": "prefix", "op": "contains", "value": "read"}],
    "group_by": ["prefix"],
    "aggregates": [{"col": "duration", "op": "mean", "as": "mean_d"},
                   {"col": "key", "op": "count_distinct", "as": "n"}],
    "order_by": {"col": "mean_d", "desc": true},
    "limit": 10,
    "select": ["prefix", "mean_d", "n"]
  })"));
  EXPECT_EQ(q.from, "tasks");
  ASSERT_TRUE(q.workflow.has_value());
  EXPECT_EQ(*q.workflow, "XGBOOST");
  ASSERT_TRUE(q.run.has_value());
  EXPECT_EQ(*q.run, 3);
  ASSERT_EQ(q.where.size(), 2u);
  EXPECT_EQ(q.where[0].op, CmpOp::kGt);
  EXPECT_EQ(q.where[1].op, CmpOp::kContains);
  ASSERT_EQ(q.aggregates.size(), 2u);
  EXPECT_EQ(q.aggregates[1].op, analysis::Agg::kCountDistinct);
  ASSERT_TRUE(q.order_by.has_value());
  EXPECT_TRUE(q.order_by->descending);
  ASSERT_TRUE(q.limit.has_value());
  EXPECT_EQ(*q.limit, 10);
}

TEST(QueryIr, RejectsMalformedDocuments) {
  // Not an object / missing from.
  EXPECT_THROW(parse_query(std::string("[1,2]")), QueryError);
  EXPECT_THROW(parse_query(std::string(R"({"where": []})")), QueryError);
  // Unknown fields are rejected, not ignored.
  EXPECT_THROW(parse_query(std::string(R"({"from": "tasks", "havign": 1})")),
               QueryError);
  // Bad operator names.
  EXPECT_THROW(parse_query(std::string(
                   R"({"from": "tasks",
                       "where": [{"col": "x", "op": "===", "value": 1}]})")),
               QueryError);
  // contains needs a string value.
  EXPECT_THROW(
      parse_query(std::string(
          R"({"from": "tasks",
              "where": [{"col": "x", "op": "contains", "value": 3}]})")),
      QueryError);
  // group_by and aggregates must be used together.
  EXPECT_THROW(parse_query(std::string(
                   R"({"from": "tasks", "group_by": ["prefix"]})")),
               QueryError);
  EXPECT_THROW(
      parse_query(std::string(
          R"({"from": "tasks",
              "aggregates": [{"col": "x", "op": "sum", "as": "s"}]})")),
      QueryError);
  // Malformed asof by-pair.
  EXPECT_THROW(
      parse_query(std::string(
          R"({"from": "tasks",
              "asof_join": {"right": "comms", "left_on": "a",
                            "right_on": "b", "by": [["only_left"]]}})")),
      QueryError);
  // Negative limit / run.
  EXPECT_THROW(parse_query(std::string(R"({"from": "tasks", "limit": -1})")),
               QueryError);
  EXPECT_THROW(parse_query(std::string(R"({"from": "tasks", "run": -2})")),
               QueryError);
}

TEST(QueryIr, FingerprintIsCanonical) {
  // Same query, different JSON field order -> same fingerprint.
  const Query a = parse_query(std::string(
      R"({"from": "tasks", "limit": 5,
          "where": [{"col": "duration", "op": ">", "value": 0.5}]})"));
  const Query b = parse_query(std::string(
      R"({"where": [{"value": 0.5, "col": "duration", "op": ">"}],
          "limit": 5, "from": "tasks"})"));
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  // Round trip through the canonical form is stable.
  EXPECT_EQ(fingerprint(parse_query(to_json(a))), fingerprint(a));
  // Different query -> different fingerprint.
  const Query c = parse_query(std::string(R"({"from": "tasks", "limit": 6})"));
  EXPECT_NE(fingerprint(a), fingerprint(c));
}

// ---------------------------------------------------------------------------
// Predicate evaluation

TEST(QueryPlan, TypedPredicateMasks) {
  DataFrame df({{"name", ColumnType::kString},
                {"count", ColumnType::kInt64},
                {"score", ColumnType::kDouble}});
  df.add_row({"read_parquet", std::int64_t{1}, 0.5});
  df.add_row({"train_model", std::int64_t{2}, 1.5});
  df.add_row({"read_csv", std::int64_t{3}, 2.5});

  const auto rows = [](const DataFrame& f) { return f.rows(); };
  EXPECT_EQ(rows(apply_predicates(
                df, {{"name", CmpOp::kContains, std::string("read")}})),
            2u);
  EXPECT_EQ(rows(apply_predicates(df, {{"count", CmpOp::kGe,
                                        std::int64_t{2}}})),
            2u);
  // Double literal against an int column widens the column.
  EXPECT_EQ(rows(apply_predicates(df, {{"count", CmpOp::kGt, 1.5}})), 2u);
  EXPECT_EQ(rows(apply_predicates(df, {{"score", CmpOp::kLt, 2.0},
                                       {"name", CmpOp::kNe,
                                        std::string("train_model")}})),
            1u);
  EXPECT_THROW(
      apply_predicates(df, {{"missing", CmpOp::kEq, std::int64_t{1}}}),
      QueryError);
  EXPECT_THROW(
      apply_predicates(df, {{"count", CmpOp::kContains, std::string("1")}}),
      QueryError);
}

// ---------------------------------------------------------------------------
// Catalog

TEST(QueryCatalog, EpochAndVisibility) {
  StoreCatalog catalog;
  EXPECT_EQ(catalog.snapshot().epoch(), 0u);
  catalog.add_run(make_run("A", 0));
  catalog.add_run(make_run("A", 1));
  catalog.add_run(make_run("B", 0));
  EXPECT_EQ(catalog.snapshot().epoch(), 3u);

  const StoreCatalog::Snapshot snap = catalog.snapshot();
  EXPECT_EQ(snap.runs(std::nullopt, std::nullopt).size(), 3u);
  EXPECT_EQ(snap.runs(std::string("A"), std::nullopt).size(), 2u);
  EXPECT_EQ(snap.runs(std::string("A"), std::int64_t{1}).size(), 1u);
  EXPECT_TRUE(snap.runs(std::string("C"), std::nullopt).empty());

  const auto frame = snap.frame(ViewId::kTasks, {"A", 1});
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->rows(), 8u);
  EXPECT_EQ(frame->col("workflow").str(0), "A");
  EXPECT_EQ(frame->col("run").i64(0), 1);
  EXPECT_EQ(snap.estimated_rows(ViewId::kTransitions, {"A", 1}), 16u);
  // Memoized: the same frame object comes back.
  EXPECT_EQ(frame.get(), snap.frame(ViewId::kTasks, {"A", 1}).get());
}

TEST(QueryCatalog, ViewRegistry) {
  EXPECT_EQ(view_from_name("task_io"), ViewId::kTaskIo);
  EXPECT_THROW(view_from_name("tasksz"), QueryError);
  const DataFrame schema = empty_view_frame(ViewId::kTasks);
  EXPECT_EQ(schema.rows(), 0u);
  EXPECT_TRUE(schema.has_column("duration"));
  EXPECT_TRUE(schema.has_column("workflow"));
  EXPECT_TRUE(schema.has_column("run"));
}

// ---------------------------------------------------------------------------
// Planner

TEST(QueryPlan, ExplainShowsPushdownAndSteps) {
  StoreCatalog catalog;
  catalog.add_run(make_run("A", 0));
  catalog.add_run(make_run("A", 1));
  catalog.add_run(make_run("B", 0));
  const Query q = parse_query(std::string(R"({
    "from": "tasks", "workflow": "A",
    "where": [{"col": "run", "op": "==", "value": 1},
              {"col": "duration", "op": ">", "value": 0.2}],
    "group_by": ["prefix"],
    "aggregates": [{"col": "duration", "op": "mean", "as": "mean_d"}],
    "order_by": {"col": "mean_d", "desc": true},
    "limit": 5,
    "select": ["prefix", "mean_d"]
  })"));
  const StoreCatalog::Snapshot snap = catalog.snapshot();
  const Plan plan = plan_query(q, snap);
  EXPECT_EQ(plan.runs.size(), 1u);
  EXPECT_EQ(plan.total_runs, 3u);
  const std::string text = plan.to_string();
  EXPECT_NE(text.find("plan: tasks over 1/3 runs"), std::string::npos) << text;
  EXPECT_NE(text.find("pushdown: workflow == 'A' run == 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("filter: duration > 0.2"), std::string::npos) << text;
  EXPECT_NE(text.find("group_by: keys=[prefix]"), std::string::npos) << text;
  EXPECT_NE(text.find("sort: mean_d desc"), std::string::npos) << text;
  EXPECT_NE(text.find("limit: 5"), std::string::npos) << text;
  EXPECT_NE(text.find("project: [prefix, mean_d]"), std::string::npos) << text;

  // Contradictory pushdown prunes every run.
  const Query contradiction = parse_query(std::string(
      R"({"from": "tasks", "workflow": "A",
          "where": [{"col": "workflow", "op": "==", "value": "B"}]})"));
  const Plan empty = plan_query(contradiction, snap);
  EXPECT_TRUE(empty.runs.empty());
  EXPECT_NE(empty.to_string().find("contradictory"), std::string::npos);
}

TEST(QueryPlan, ValidationErrors) {
  StoreCatalog catalog;
  catalog.add_run(make_run("A", 0));
  const StoreCatalog::Snapshot snap = catalog.snapshot();
  const auto plan_text = [&](const std::string& text) {
    return plan_query(parse_query(text), snap);
  };
  EXPECT_THROW(plan_text(R"({"from": "nope"})"), QueryError);
  EXPECT_THROW(plan_text(R"({"from": "tasks",
      "where": [{"col": "nope", "op": "==", "value": 1}]})"),
               QueryError);
  // String column with a numeric literal.
  EXPECT_THROW(plan_text(R"({"from": "tasks",
      "where": [{"col": "prefix", "op": "==", "value": 1}]})"),
               QueryError);
  EXPECT_THROW(plan_text(R"({"from": "tasks", "group_by": ["nope"],
      "aggregates": [{"col": "duration", "op": "sum", "as": "s"}]})"),
               QueryError);
  // asof left_on must be numeric.
  EXPECT_THROW(plan_text(R"({"from": "tasks",
      "asof_join": {"right": "comms", "left_on": "prefix",
                    "right_on": "start"}})"),
               QueryError);
}

// ---------------------------------------------------------------------------
// Execution

TEST(QueryExec, GroupByAggregatesMatchRecords) {
  StoreCatalog catalog;
  catalog.add_run(make_run("A", 0));
  catalog.add_run(make_run("A", 1));
  const ExecutionResult result = execute_query(
      parse_query(std::string(R"({
        "from": "tasks", "workflow": "A",
        "group_by": ["prefix"],
        "aggregates": [{"col": "key", "op": "count", "as": "n"},
                       {"col": "key", "op": "count_distinct", "as": "uniq"},
                       {"col": "duration", "op": "mean", "as": "mean_d"}],
        "order_by": {"col": "prefix"}
      })")),
      catalog, nullptr);
  const DataFrame& df = *result.frame;
  ASSERT_EQ(df.rows(), 2u);
  EXPECT_EQ(df.col("prefix").str(0), "ingest");
  // 4 even tasks per run, 2 runs.
  EXPECT_EQ(df.col("n").i64(0), 8);
  // Task keys repeat across the two runs of workflow A.
  EXPECT_EQ(df.col("uniq").i64(0), 4);
  EXPECT_NEAR(df.col("mean_d").f64(0), 0.5, 1e-9);
  EXPECT_EQ(df.col("prefix").str(1), "train");
  EXPECT_NEAR(df.col("mean_d").f64(1), 0.6, 1e-9);
  EXPECT_EQ(result.epoch, 2u);
  EXPECT_FALSE(result.cached);
}

TEST(QueryExec, AsofJoinAttachesNearestEarlierRow) {
  StoreCatalog catalog;
  catalog.add_run(make_run("A", 0, 4));
  // For each comm (starting at task end), the nearest earlier task start on
  // the same key is that task itself.
  const ExecutionResult result = execute_query(
      parse_query(std::string(R"({
        "from": "comms",
        "asof_join": {"right": "tasks", "left_on": "start",
                      "right_on": "start_time", "by": [["key", "key"]]},
        "order_by": {"col": "start"}
      })")),
      catalog, nullptr);
  const DataFrame& df = *result.frame;
  ASSERT_EQ(df.rows(), 2u);  // comms exist for even tasks only
  ASSERT_TRUE(df.has_column("prefix"));
  EXPECT_EQ(df.col("prefix").str(0), "ingest");
  EXPECT_DOUBLE_EQ(df.col("start_time").f64(0), 0.0);
  EXPECT_DOUBLE_EQ(df.col("start_time").f64(1), 2.0);
}

TEST(QueryExec, EmptyStoreYieldsSchemaOnlyFrame) {
  StoreCatalog catalog;
  const ExecutionResult result = execute_query(
      parse_query(std::string(R"({"from": "warnings"})")), catalog, nullptr);
  EXPECT_EQ(result.frame->rows(), 0u);
  EXPECT_TRUE(result.frame->has_column("kind"));
  EXPECT_EQ(result.epoch, 0u);
}

// ---------------------------------------------------------------------------
// Result cache

TEST(QueryCache, HitRefreshAndEpochSeparation) {
  StoreCatalog catalog;
  catalog.add_run(make_run("A", 0));
  const StoreCatalog::Snapshot snap1 = catalog.snapshot();
  catalog.add_run(make_run("A", 1));
  const StoreCatalog::Snapshot snap2 = catalog.snapshot();
  ResultCache cache;
  auto frame = std::make_shared<const DataFrame>(
      DataFrame({{"x", ColumnType::kInt64}}));
  cache.put("q1", snap1, frame);
  EXPECT_EQ(cache.get("q1", snap1).get(), frame.get());
  // Another snapshot is another key.
  EXPECT_EQ(cache.get("q1", snap2), nullptr);
  EXPECT_EQ(cache.get("q2", snap1), nullptr);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(QueryCache, ByteBudgetEvictsLru) {
  StoreCatalog catalog;
  catalog.add_run(make_run("A", 0));
  const StoreCatalog::Snapshot snap = catalog.snapshot();
  ResultCache::Config config;
  config.shards = 1;
  DataFrame big({{"x", ColumnType::kInt64}});
  for (int i = 0; i < 100; ++i) big.add_row({std::int64_t{i}});
  const std::size_t entry = approx_frame_bytes(big);
  config.byte_budget = entry * 3 + entry / 2;  // room for three entries
  ResultCache cache(config);
  for (int i = 0; i < 4; ++i) {
    cache.put("q" + std::to_string(i), snap,
              std::make_shared<const DataFrame>(big));
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  // q0 was least recently used.
  EXPECT_EQ(cache.get("q0", snap), nullptr);
  EXPECT_NE(cache.get("q3", snap), nullptr);
  EXPECT_LE(cache.stats().bytes, config.byte_budget);
}

// ---------------------------------------------------------------------------
// Wire framing

TEST(QueryWire, BinaryFrameRoundTrip) {
  DataFrame df({{"name", ColumnType::kString},
                {"count", ColumnType::kInt64},
                {"score", ColumnType::kDouble}});
  df.add_row({"alpha", std::int64_t{1}, 0.25});
  df.add_row({"beta", std::int64_t{-7}, 1e9});
  df.add_row({"alpha", std::int64_t{1} << 40, -0.0});
  const std::string bytes = frame_to_binary(df);
  const DataFrame back = frame_from_binary(bytes);
  ASSERT_EQ(back.rows(), 3u);
  ASSERT_EQ(back.width(), 3u);
  EXPECT_EQ(back.col("name").str(0), "alpha");
  EXPECT_EQ(back.col("name").str(2), "alpha");
  EXPECT_EQ(back.col("count").i64(2), std::int64_t{1} << 40);
  EXPECT_DOUBLE_EQ(back.col("score").f64(1), 1e9);
  // Repeated strings ship once (dictionary), so binary beats the JSON text.
  EXPECT_LT(bytes.size(), frame_to_json(df).dump().size());
  // Zero-row frames keep their schema.
  DataFrame empty({{"only", ColumnType::kDouble}});
  const DataFrame empty_back = frame_from_binary(frame_to_binary(empty));
  EXPECT_EQ(empty_back.rows(), 0u);
  EXPECT_EQ(empty_back.width(), 1u);
  EXPECT_EQ(empty_back.col("only").type(), ColumnType::kDouble);
}

TEST(QueryWire, BinaryFrameRejectsCorruptInput) {
  DataFrame df({{"k", ColumnType::kString}, {"v", ColumnType::kInt64}});
  df.add_row({"x", std::int64_t{5}});
  const std::string bytes = frame_to_binary(df);
  // Every truncation fails loudly rather than yielding a partial frame.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW((void)frame_from_binary(bytes.substr(0, cut)), QueryError)
        << "prefix " << cut;
  }
  // Trailing garbage is rejected too.
  EXPECT_THROW((void)frame_from_binary(bytes + "!"), QueryError);
  EXPECT_THROW((void)frame_from_binary("not a frame"), QueryError);
}

TEST(QueryWire, FromDictValidatesCodes) {
  const Column col = Column::from_dict("states", {"DONE", "FAILED"},
                                       {0, 1, 1, 0});
  ASSERT_EQ(col.size(), 4u);
  EXPECT_EQ(col.str(2), "FAILED");
  EXPECT_THROW((void)Column::from_dict("bad", {"only"}, {0, 1}),
               analysis::DataFrameError);
}

// ---------------------------------------------------------------------------
// Server + client

TEST(QueryServer, ExecutesAndCachesWithEpochTags) {
  StoreCatalog catalog;
  catalog.add_run(make_run("A", 0));
  QueryServer server(catalog);
  QueryClient client(server);

  const std::string q =
      R"({"from": "tasks", "group_by": ["prefix"],
          "aggregates": [{"col": "duration", "op": "mean", "as": "m"}],
          "order_by": {"col": "prefix"}})";
  const QueryResponse first = client.query(q);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.epoch, 1u);
  EXPECT_FALSE(first.cached);
  ASSERT_EQ(first.frame.rows(), 2u);

  const QueryResponse second = client.query(q);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.epoch, 1u);

  // Ingesting a run bumps the epoch and invalidates the cached entry.
  catalog.add_run(make_run("A", 1));
  const QueryResponse third = client.query(q);
  ASSERT_TRUE(third.ok);
  EXPECT_FALSE(third.cached);
  EXPECT_EQ(third.epoch, 2u);

  const QueryResponse plan = client.explain(parse_query(q));
  ASSERT_TRUE(plan.ok);
  EXPECT_NE(plan.explain.find("plan: tasks"), std::string::npos);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.cache.hits, 1u);
}

TEST(QueryServer, NegotiatesBinaryResultsAndFallsBackToJson) {
  StoreCatalog catalog;
  catalog.add_run(make_run("A", 0));
  QueryServer server(catalog);

  const json::Value query = json::parse(
      R"({"from": "tasks", "group_by": ["prefix"],
          "aggregates": [{"col": "duration", "op": "mean", "as": "m"}],
          "order_by": {"col": "prefix"}})");
  json::Object request;
  request["id"] = 1;
  request["query"] = query;
  // A raw request names no format: the result always rides as the
  // columnar frame.
  const json::Value response =
      server.submit(json::Value(std::move(request))).get();
  ASSERT_TRUE(response.get_bool("ok", false)) << response.dump();
  EXPECT_FALSE(response.contains("result"));
  ASSERT_TRUE(response.contains("result_bin"));
  const DataFrame via_server =
      frame_from_binary(response.at("result_bin").as_string());
  const ExecutionResult direct =
      execute_query(parse_query(query), catalog, nullptr);
  EXPECT_EQ(frame_to_json(via_server).dump(),
            frame_to_json(*direct.frame).dump());
  EXPECT_EQ(via_server.rows(), 2u);
}

TEST(QueryServer, ErrorsComeBackAsResponses) {
  StoreCatalog catalog;
  QueryServer server(catalog);
  QueryClient client(server);

  const QueryResponse bad = client.query(json::parse(R"({"from": "nope"})"));
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("nope"), std::string::npos);

  // A request without a query field is an error, not a crash.
  json::Object raw;
  raw["id"] = 42;
  const json::Value response = server.submit(json::Value(raw)).get();
  EXPECT_FALSE(response.get_bool("ok", true));
  EXPECT_EQ(response.get_int("id", 0), 42);
  EXPECT_TRUE(response.contains("epoch"));
  EXPECT_GE(server.stats().failed, 2u);
}

TEST(QueryServer, BackpressureRejectsWhenQueueIsFull) {
  StoreCatalog catalog;
  catalog.add_run(make_run("A", 0, 512));
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  config.cache.byte_budget = 0;  // force every query to execute
  QueryServer server(catalog, config);

  const json::Value query = json::parse(
      R"({"from": "transitions", "group_by": ["key"],
          "aggregates": [{"col": "time", "op": "max", "as": "t"}]})");
  std::vector<std::future<json::Value>> futures;
  for (int i = 0; i < 64; ++i) {
    json::Object request;
    request["id"] = i;
    request["query"] = query;
    futures.push_back(server.submit(json::Value(std::move(request))));
  }
  std::size_t ok = 0;
  std::size_t overloaded = 0;
  for (auto& f : futures) {
    const json::Value response = f.get();
    if (response.get_bool("ok", false)) {
      ++ok;
    } else {
      EXPECT_NE(response.get_string("error", "").find("overloaded"),
                std::string::npos);
      ++overloaded;
    }
    EXPECT_TRUE(response.contains("epoch"));
  }
  EXPECT_EQ(ok + overloaded, 64u);
  EXPECT_GT(overloaded, 0u);
  EXPECT_EQ(server.stats().rejected_overload, overloaded);
}

TEST(QueryServer, QueuedRequestPastDeadlineTimesOut) {
  StoreCatalog catalog;
  catalog.add_run(make_run("A", 0, 512));
  ServerConfig config;
  config.workers = 1;
  config.cache.byte_budget = 0;
  QueryServer server(catalog, config);

  const json::Value heavy = json::parse(
      R"({"from": "transitions", "group_by": ["key"],
          "aggregates": [{"col": "time", "op": "max", "as": "t"}]})");
  std::vector<std::future<json::Value>> futures;
  for (int i = 0; i < 8; ++i) {
    json::Object request;
    request["query"] = heavy;
    futures.push_back(server.submit(json::Value(std::move(request))));
  }
  json::Object probe;
  probe["query"] = json::parse(R"({"from": "warnings"})");
  probe["timeout_ms"] = 0.01;  // expires while queued behind the heavy ones
  const json::Value response = server.submit(json::Value(probe)).get();
  EXPECT_FALSE(response.get_bool("ok", true));
  EXPECT_NE(response.get_string("error", "").find("deadline"),
            std::string::npos);
  EXPECT_EQ(server.stats().timed_out, 1u);
  for (auto& f : futures) f.wait();
}

TEST(QueryServer, ShutdownDrainsThenRejects) {
  StoreCatalog catalog;
  catalog.add_run(make_run("A", 0));
  QueryServer server(catalog);
  std::vector<std::future<json::Value>> futures;
  for (int i = 0; i < 16; ++i) {
    json::Object request;
    request["query"] = json::parse(R"({"from": "tasks"})");
    futures.push_back(server.submit(json::Value(std::move(request))));
  }
  server.shutdown();
  EXPECT_FALSE(server.running());
  // Every accepted request was drained, not dropped.
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().contains("ok"));
  }
  json::Object late;
  late["query"] = json::parse(R"({"from": "tasks"})");
  const json::Value response = server.submit(json::Value(late)).get();
  EXPECT_FALSE(response.get_bool("ok", true));
  EXPECT_NE(response.get_string("error", "").find("shut down"),
            std::string::npos);
  server.shutdown();  // idempotent
}

// ---------------------------------------------------------------------------
// Live ingestion

class QueryIngestTest : public ::testing::Test {
 protected:
  QueryIngestTest() : broker_(kv_, blobs_) {
    dtr::create_wms_topics(broker_);
  }

  /// Replays a run's records into the WMS topics, as the Mofka plugins
  /// would during execution.
  void produce(const dtr::RunData& run) {
    const mofka::ProducerConfig config{16, std::chrono::milliseconds(5),
                                       false};
    mofka::Producer transitions(broker_, "wms_transitions", config);
    mofka::Producer tasks(broker_, "wms_tasks", config);
    mofka::Producer comms(broker_, "wms_comms", config);
    mofka::Producer warnings(broker_, "wms_warnings", config);
    for (const auto& r : run.transitions) transitions.push(dtr::to_json(r));
    for (const auto& r : run.tasks) tasks.push(dtr::to_json(r));
    for (const auto& r : run.comms) comms.push(dtr::to_json(r));
    for (const auto& r : run.warnings) warnings.push(dtr::to_json(r));
    transitions.flush();
    tasks.flush();
    comms.flush();
    warnings.flush();
  }

  mochi::KeyValueStore kv_;
  mochi::BlobStore blobs_;
  mofka::Broker broker_;
  StoreCatalog catalog_;
};

TEST_F(QueryIngestTest, TailsTopicsAcrossRuns) {
  LiveIngestor ingestor(broker_, catalog_);
  const dtr::RunData run0 = make_run("A", 0);
  produce(run0);
  EXPECT_GT(ingestor.poll(), 0u);
  EXPECT_EQ(ingestor.pending_events(),
            run0.transitions.size() + run0.tasks.size() + run0.comms.size() +
                run0.warnings.size());
  EXPECT_EQ(ingestor.publish(run0.meta), 1u);
  EXPECT_EQ(ingestor.pending_events(), 0u);

  // The same consumer group keeps tailing: a second run's events arrive
  // after the first publish and land in the second run only.
  const dtr::RunData run1 = make_run("A", 1, 4);
  produce(run1);
  EXPECT_EQ(ingestor.publish(run1.meta), 2u);

  const StoreCatalog::Snapshot snap = catalog_.snapshot();
  EXPECT_EQ(snap.frame(ViewId::kTasks, {"A", 0})->rows(), run0.tasks.size());
  EXPECT_EQ(snap.frame(ViewId::kTasks, {"A", 1})->rows(), run1.tasks.size());
  EXPECT_EQ(snap.frame(ViewId::kWarnings, {"A", 1})->rows(),
            run1.warnings.size());
  const IngestStats stats = ingestor.stats();
  EXPECT_EQ(stats.runs_published, 2u);
  EXPECT_GT(stats.events_consumed, 0u);
}

/// The reference canonical order, kept apart from the ingestor's keys:
/// ascending byte order of each record's compact JSON.
template <typename Record>
void sort_by_json(std::vector<Record>& records) {
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              return dtr::to_json(a).dump() < dtr::to_json(b).dump();
            });
}

// The published order is pinned, not merely repeatable: records pushed in a
// seeded shuffle over several partitions and across polls, exact duplicates
// included, are published in the reference order, view for view.
TEST_F(QueryIngestTest, PublishesRecordsInCanonicalJsonOrder) {
  mochi::KeyValueStore kv;
  mochi::BlobStore blobs;
  mofka::Broker broker(kv, blobs);
  dtr::create_wms_topics(broker, 3);

  dtr::RunData run = make_run("Order", 0, 24);
  for (int i = 0; i < 4; ++i) {
    dtr::StealRecord s;
    s.key = run.tasks[static_cast<std::size_t>(i)].key;
    s.victim = static_cast<dtr::WorkerId>(i % 2);
    s.thief = static_cast<dtr::WorkerId>(1 - i % 2);
    s.time = 0.1 * i;
    run.steals.push_back(s);
  }
  // Exact duplicates: their keys tie.
  run.transitions.push_back(run.transitions[5]);
  run.tasks.push_back(run.tasks[7]);
  run.comms.push_back(run.comms[2]);
  run.warnings.push_back(run.warnings[0]);
  run.steals.push_back(run.steals[1]);

  std::vector<std::pair<std::string, json::Value>> events;
  for (const auto& r : run.transitions) {
    events.emplace_back("wms_transitions", dtr::to_json(r));
  }
  for (const auto& r : run.tasks) {
    events.emplace_back("wms_tasks", dtr::to_json(r));
  }
  for (const auto& r : run.comms) {
    events.emplace_back("wms_comms", dtr::to_json(r));
  }
  for (const auto& r : run.warnings) {
    events.emplace_back("wms_warnings", dtr::to_json(r));
  }
  for (const auto& r : run.steals) {
    events.emplace_back("wms_cluster", dtr::to_json(r));
  }
  std::mt19937 rng(20241016);
  std::shuffle(events.begin(), events.end(), rng);

  LiveIngestor ingestor(broker, catalog_);
  {
    const mofka::ProducerConfig config{4, std::chrono::milliseconds(5),
                                       false};
    std::map<std::string, mofka::Producer> producers;
    for (const char* topic : {"wms_transitions", "wms_tasks", "wms_comms",
                              "wms_warnings", "wms_cluster"}) {
      producers.try_emplace(topic, broker, topic, config);
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
      producers.at(events[i].first).push(events[i].second);
      if (i % 16 == 15) ingestor.poll();
    }
    for (auto& [topic, producer] : producers) producer.flush();
  }
  ingestor.publish(run.meta);

  dtr::RunData reference = run;
  sort_by_json(reference.transitions);
  sort_by_json(reference.tasks);
  sort_by_json(reference.comms);
  sort_by_json(reference.warnings);
  sort_by_json(reference.steals);
  StoreCatalog expected;
  expected.add_run(std::move(reference));

  const StoreCatalog::Snapshot got = catalog_.snapshot();
  const StoreCatalog::Snapshot want = expected.snapshot();
  const prov::RunId id{"Order", 0};
  ASSERT_EQ(got.frame(ViewId::kSteals, id)->rows(), run.steals.size());
  for (const std::string& name : view_names()) {
    const ViewId view = view_from_name(name);
    EXPECT_EQ(frame_to_json(*got.frame(view, id)).dump(),
              frame_to_json(*want.frame(view, id)).dump())
        << name;
  }
}

// The headline concurrency test: >= 8 client threads issue mixed queries
// (aggregations, filters, explains, and invalid queries) against the server
// while runs are being produced, tailed by the background ingestor thread,
// and published. Run under RECUP_SANITIZE to check for races.
TEST_F(QueryIngestTest, ConcurrentClientsDuringLiveIngestion) {
  ServerConfig config;
  config.workers = 4;
  config.queue_capacity = 256;
  QueryServer server(catalog_, config);
  LiveIngestor ingestor(broker_, catalog_);
  ingestor.start(std::chrono::milliseconds(1));

  constexpr int kRuns = 4;
  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 12;

  std::atomic<bool> producing{true};
  std::thread producer([&] {
    for (int r = 0; r < kRuns; ++r) {
      const dtr::RunData run = make_run("Live", static_cast<std::uint32_t>(r));
      produce(run);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ingestor.publish(run.meta);
    }
    producing.store(false);
  });

  const std::vector<std::string> queries = {
      R"({"from": "tasks", "group_by": ["prefix"],
          "aggregates": [{"col": "duration", "op": "mean", "as": "m"}]})",
      R"({"from": "tasks", "where": [{"col": "duration", "op": ">",
                                      "value": 0.55}]})",
      R"({"from": "transitions", "group_by": ["to"],
          "aggregates": [{"col": "key", "op": "count_distinct", "as": "n"}]})",
      R"({"from": "warnings"})",
  };
  std::atomic<std::uint64_t> successes{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      QueryClient client(server);
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const int pick = (c + i) % (static_cast<int>(queries.size()) + 2);
        if (pick == static_cast<int>(queries.size())) {
          // Deliberately invalid: must come back as an error response.
          const QueryResponse r = client.query(std::string(
              R"({"from": "no_such_view"})"));
          EXPECT_FALSE(r.ok);
          failures.fetch_add(1);
        } else if (pick == static_cast<int>(queries.size()) + 1) {
          const QueryResponse r =
              client.explain(json::parse(queries[0]));
          EXPECT_TRUE(r.ok) << r.error;
          successes.fetch_add(1);
        } else {
          const QueryResponse r = client.query(queries[pick]);
          ASSERT_TRUE(r.ok) << r.error;
          // Every response is tagged with a plausible epoch.
          EXPECT_LE(r.epoch, static_cast<Epoch>(kRuns));
          successes.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  producer.join();
  ingestor.stop();

  EXPECT_EQ(successes.load() + failures.load(),
            static_cast<std::uint64_t>(kClients * kQueriesPerClient));
  EXPECT_EQ(catalog_.snapshot().epoch(), static_cast<Epoch>(kRuns));

  // Settled state: a query at the final epoch is served and then cached.
  QueryClient client(server);
  const QueryResponse cold = client.query(std::string(
      R"({"from": "tasks", "group_by": ["workflow"],
          "aggregates": [{"col": "key", "op": "count", "as": "n"}]})"));
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.epoch, static_cast<Epoch>(kRuns));
  ASSERT_EQ(cold.frame.rows(), 1u);
  EXPECT_EQ(cold.frame.col("n").i64(0), 8 * kRuns);
  const QueryResponse warm = client.query(std::string(
      R"({"from": "tasks", "group_by": ["workflow"],
          "aggregates": [{"col": "key", "op": "count", "as": "n"}]})"));
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.cached);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, stats.completed + stats.failed + stats.timed_out +
                                static_cast<std::uint64_t>(
                                    server.stats().queue_depth));
}

}  // namespace
}  // namespace recup::query
