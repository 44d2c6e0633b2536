// Query service tests: IR parsing/validation, planner explain output and
// scan column sets, predicate masks, catalog epochs, executor equivalence
// (pinned result bytes, and late materialization against the scan /
// filter / concat executor it replaced), the result cache, wire framing, the
// concurrent server (backpressure, deadlines, drain-on-shutdown), live
// ingestion from Mofka topics, and a multi-threaded smoke test with clients
// querying while runs are being ingested.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dtr/mofka_plugins.hpp"
#include "mochi/warabi.hpp"
#include "mochi/yokan.hpp"
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
#include "workloads/image_processing.hpp"
#include "workloads/resnet152.hpp"
#include "workloads/workload.hpp"
#include "workloads/xgboost.hpp"

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
  EXPECT_EQ(fingerprint(parse_query(fingerprint(a))), fingerprint(a));
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
  // Every later stage is checked against the frame it applies to, so
  // explain rejects what execution would, naming the column.
  const auto plan_error = [&](const std::string& text) {
    try {
      plan_text(text);
    } catch (const QueryError& e) {
      return std::string(e.what());
    }
    return std::string("(planned)");
  };
  EXPECT_NE(plan_error(R"({"from": "tasks", "order_by": {"col": "nope"}})")
                .find("'nope'"),
            std::string::npos);
  EXPECT_NE(plan_error(R"({"from": "tasks", "select": ["key", "nope"]})")
                .find("'nope'"),
            std::string::npos);
  EXPECT_NE(plan_error(R"({"from": "tasks", "group_by": ["prefix"],
      "aggregates": [{"col": "key", "op": "sum", "as": "s"}]})")
                .find("'key'"),
            std::string::npos);
  EXPECT_NE(plan_error(R"({"from": "tasks", "group_by": ["prefix"],
      "aggregates": [{"col": "duration", "op": "mean", "as": "m"}],
      "order_by": {"col": "duration"}})")
                .find("'duration'"),
            std::string::npos);
  EXPECT_NE(plan_error(R"({"from": "tasks", "select": ["key", "key"]})")
                .find("'key'"),
            std::string::npos);
}

TEST(QueryPlan, RunPushdownComparesTheFullIndex) {
  // 2^32 truncates to run index 0; it must match no stored run instead.
  const std::string beyond = "4294967296";
  const std::vector<std::string> spellings = {
      R"({"from": "tasks", "run": )" + beyond + "}",
      R"({"from": "tasks", "where": [{"col": "run", "op": "==", "value": )" +
          beyond + "}]}"};
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("recup_query_pushdown_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  {
    segstore::SegmentStoreConfig config;
    config.dir = dir;
    StoreCatalog segment(config);
    StoreCatalog memory;
    for (StoreCatalog* catalog : {&memory, &segment}) {
      catalog->add_run(make_run("A", 0));
      for (const std::string& text : spellings) {
        const Query q = parse_query(text);
        const Plan plan = plan_query(q, catalog->snapshot());
        EXPECT_TRUE(plan.runs.empty()) << text;
        EXPECT_NE(plan.to_string().find("runs=[(none)]"), std::string::npos)
            << plan.to_string();
        EXPECT_EQ(execute_query(q, *catalog, nullptr).frame->rows(), 0u)
            << text;
      }
      // The index that is stored still matches.
      EXPECT_EQ(execute_query(parse_query(std::string(
                                  R"({"from": "tasks", "run": 0})")),
                              *catalog, nullptr)
                    .frame->rows(),
                8u);
      EXPECT_EQ(execute_query(parse_query(
                                  R"({"from": "tasks", "where": [{"col": "run",
                                      "op": ">=", "value": )" +
                                  beyond + "}]}"),
                              *catalog, nullptr)
                    .frame->rows(),
                0u);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(QueryPlan, ScanCopiesOnlyTheColumnsTheQueryReads) {
  StoreCatalog catalog;
  catalog.add_run(make_run("A", 0));
  const StoreCatalog::Snapshot snap = catalog.snapshot();
  const auto plan_of = [&](const std::string& text) {
    return plan_query(parse_query(text), snap);
  };
  using Names = std::vector<std::string>;
  // Group keys plus aggregate inputs; count reads no column and a
  // predicate-only column is evaluated in place.
  const Plan grouped = plan_of(R"({"from": "transitions",
      "where": [{"col": "time", "op": ">=", "value": 1.0}],
      "group_by": ["from", "to"],
      "aggregates": [{"col": "key", "op": "count", "as": "n"},
                     {"col": "graph", "op": "count_distinct", "as": "g"}],
      "order_by": {"col": "n", "desc": true}})");
  EXPECT_EQ(grouped.columns, (Names{"graph", "from", "to"}));
  EXPECT_TRUE(grouped.right_columns.empty());
  EXPECT_NE(grouped.to_string().find("columns=[graph, from, to]"),
            std::string::npos)
      << grouped.to_string();
  // Selected columns plus the sort column.
  const Plan selected = plan_of(R"({"from": "tasks",
      "order_by": {"col": "duration", "desc": true}, "limit": 5,
      "select": ["key", "worker"]})");
  EXPECT_EQ(selected.columns, (Names{"key", "worker", "duration"}));
  // Neither: every column.
  EXPECT_EQ(plan_of(R"({"from": "warnings"})").columns,
            empty_view_frame(ViewId::kWarnings).column_names());
  // asof_join: each side supplies what it matches on; `duration_right`
  // reads the right `duration`, which keeps its left namesake so the merge
  // still names it `duration_right`.
  const Plan joined = plan_of(R"({"from": "comms",
      "asof_join": {"right": "tasks", "left_on": "start",
                    "right_on": "start_time", "by": [["key", "key"]],
                    "right_valid_until": "end_time"},
      "group_by": ["prefix"],
      "aggregates": [{"col": "duration_right", "op": "sum", "as": "d"}]})");
  EXPECT_EQ(joined.columns, (Names{"key", "start", "duration", "workflow",
                                   "run"}));
  EXPECT_EQ(joined.right_columns,
            (Names{"key", "prefix", "start_time", "end_time", "duration",
                   "workflow", "run"}));
  EXPECT_NE(joined.to_string().find("right columns=["), std::string::npos);
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

TEST(QueryExec, OrderByLimitPutsNaNLast) {
  dtr::RunData run = make_run("A", 0);
  run.tasks[1].end_time = std::numeric_limits<double>::quiet_NaN();
  run.tasks[4].end_time = std::numeric_limits<double>::quiet_NaN();
  StoreCatalog catalog;
  catalog.add_run(std::move(run));
  const ExecutionResult plain = execute_query(
      parse_query(std::string(R"({"from": "tasks"})")), catalog, nullptr);
  std::vector<std::string> nan_keys;  // in view row order
  for (std::size_t r = 0; r < plain.frame->rows(); ++r) {
    if (std::isnan(plain.frame->col("duration").f64(r))) {
      nan_keys.push_back(plain.frame->col("key").str(r));
    }
  }
  ASSERT_EQ(nan_keys.size(), 2u);
  for (const bool desc : {false, true}) {
    const std::string order = R"({"from": "tasks", "order_by": {"col":
        "duration", "desc": )" + std::string(desc ? "true" : "false") + "}";
    const ExecutionResult top = execute_query(
        parse_query(order + R"(, "limit": 6, "select": ["key", "duration"]})"),
        catalog, nullptr);
    ASSERT_EQ(top.frame->rows(), 6u);
    for (std::size_t r = 0; r < 6; ++r) {
      const double d = top.frame->col("duration").f64(r);
      EXPECT_FALSE(std::isnan(d)) << "row " << r;
      if (r > 0) {
        const double prev = top.frame->col("duration").f64(r - 1);
        EXPECT_TRUE(desc ? prev >= d : prev <= d) << "row " << r;
      }
    }
    // The full order ends with the NaN rows, in row order.
    const ExecutionResult all =
        execute_query(parse_query(order + "}"), catalog, nullptr);
    ASSERT_EQ(all.frame->rows(), 8u);
    EXPECT_TRUE(std::isnan(all.frame->col("duration").f64(6)));
    EXPECT_TRUE(std::isnan(all.frame->col("duration").f64(7)));
    EXPECT_EQ(all.frame->col("key").str(6), nan_keys[0]);
    EXPECT_EQ(all.frame->col("key").str(7), nan_keys[1]);
  }
}

// ---------------------------------------------------------------------------
// Executor equivalence: result bytes pinned, and late materialization
// against the scan / filter / concat executor it replaced

/// Hand-built first run: every WMS view populated and no Darshan logs (its
/// io_segments / task_io views are empty), task durations all under 0.1 s
/// (a duration threshold leaves it without rows or zone-prunes it), prefixes
/// without a '-' (a `contains "-"` filter empties it without pruning), and
/// 34,000 transitions, so the scan's mask, selection and gather loops run
/// over a long frame.
dtr::RunData alpha_run() {
  dtr::RunData run;
  run.meta.workflow = "Alpha";
  run.meta.run_index = 0;
  const std::vector<std::string> prefixes = {"load", "parse", "train",
                                             "score", "write"};
  const std::vector<std::string> states = {"released", "waiting",
                                           "processing", "memory",
                                           "forgotten"};
  constexpr int kTasks = 1200;
  for (int i = 0; i < kTasks; ++i) {
    dtr::TaskRecord t;
    t.key = {"alpha-" + prefixes[i % 5], i};
    t.graph = "alpha-g" + std::to_string(i % 3);
    t.prefix = prefixes[i % 5];
    t.worker = static_cast<dtr::WorkerId>(i % 6);
    t.worker_address = "tcp://10.1.0." + std::to_string(i % 6);
    t.thread_id = 2000 + static_cast<std::uint64_t>(i % 12);
    t.lane = static_cast<std::uint32_t>(i % 2);
    t.received_time = 0.002 * i;
    t.ready_time = t.received_time + 0.0005;
    t.start_time = t.ready_time + 0.0005;
    t.end_time = t.start_time + 0.02 + 0.0002 * (i % 300);
    t.compute_time = 0.8 * (t.end_time - t.start_time);
    t.io_time = 0.1 * (t.end_time - t.start_time);
    t.output_bytes = 512u * static_cast<std::uint64_t>(i % 97);
    t.bytes_read = 4096u * static_cast<std::uint64_t>(i % 5);
    t.retries = i % 13 == 0 ? 1 : 0;
    t.stolen = i % 17 == 0;
    run.tasks.push_back(t);

    if (i % 4 == 0) {
      dtr::CommRecord c;
      c.key = t.key;
      c.source = t.worker;
      c.destination = static_cast<dtr::WorkerId>((i + 1) % 6);
      c.bytes = 1000u * static_cast<std::uint64_t>(i % 50);
      c.start = t.end_time;
      c.end = t.end_time + 0.001;
      c.cross_node = i % 8 == 0;
      run.comms.push_back(c);
    }
    if (i % 40 == 0) {
      dtr::StealRecord s;
      s.key = t.key;
      s.victim = t.worker;
      s.thief = static_cast<dtr::WorkerId>((i + 2) % 6);
      s.time = t.ready_time;
      s.estimated_transfer_cost = 0.001 * (i % 7);
      s.estimated_compute_cost = 0.01 * (i % 5);
      run.steals.push_back(s);
    }
    if (i % 50 == 0) {
      dtr::WarningRecord w;
      w.kind = i % 100 == 0 ? "gc_collection" : "event_loop_unresponsive";
      w.location = i % 150 == 0 ? "scheduler" : t.worker_address;
      w.time = t.start_time;
      w.blocked_for = 0.1 * (i % 7);
      w.message = "blocked " + std::to_string(i % 7);
      run.warnings.push_back(w);
    }
  }
  for (int i = 0; i < 34000; ++i) {
    const dtr::TaskRecord& t = run.tasks[static_cast<std::size_t>(i % kTasks)];
    dtr::TransitionRecord tr;
    tr.key = t.key;
    tr.graph = t.graph;
    tr.from_state = states[static_cast<std::size_t>(i % 4)];
    tr.to_state = states[static_cast<std::size_t>(i % 4 + 1)];
    tr.stimulus = i % 4 == 2 ? "task-finished" : "compute-task";
    tr.location = i % 3 == 0 ? "scheduler" : t.worker_address;
    tr.time = 0.00007 * i;
    run.transitions.push_back(tr);
  }
  return run;
}

/// The same five runs on both backends, built once per process: Alpha#0,
/// then miniature ImageProcessing#0, ResNet152#0 and XGBOOST#1/#2 runs.
struct ExecCatalogs {
  ExecCatalogs()
      : dir((std::filesystem::temp_directory_path() /
             ("recup_query_exec_" + std::to_string(::getpid())))
                .string()) {
    std::filesystem::remove_all(dir);
    segstore::SegmentStoreConfig config;
    config.dir = dir;
    segment = std::make_unique<StoreCatalog>(config);
    workloads::ImageProcessingParams images;
    images.images = 6;
    images.extra_chunk_images = 3;
    workloads::ResNet152Params resnet;
    resnet.files = 60;
    workloads::XgboostParams xgboost;
    xgboost.partitions = 4;
    xgboost.boosting_rounds = 2;
    std::vector<dtr::RunData> runs;
    runs.push_back(alpha_run());
    runs.push_back(workloads::execute(
        workloads::make_image_processing(5, images), 0));
    runs.push_back(
        workloads::execute(workloads::make_resnet152(5, resnet), 0));
    runs.push_back(
        workloads::execute(workloads::make_xgboost(5, xgboost), 1));
    runs.push_back(
        workloads::execute(workloads::make_xgboost(6, xgboost), 2));
    for (dtr::RunData& run : runs) {
      memory.add_run(run);
      segment->add_run(std::move(run));
    }
  }
  ExecCatalogs(const ExecCatalogs&) = delete;
  ExecCatalogs& operator=(const ExecCatalogs&) = delete;
  ~ExecCatalogs() {
    segment.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  std::string dir;
  StoreCatalog memory;
  std::unique_ptr<StoreCatalog> segment;
};

const ExecCatalogs& exec_catalogs() {
  static const ExecCatalogs catalogs;
  return catalogs;
}

/// FNV-1a over a result's binary frame.
void digest_into(std::uint64_t& h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Seeded random queries over the catalog's views: every view and
/// predicate operator with int / double literals, asof joins (by,
/// valid-until window, tolerance, keep_unmatched, a right-side filter,
/// `_right` collisions), 1-3 group keys of every type with every
/// aggregate, ascending / descending sorts, limits and projections.
/// With `edge_cases`, about 5% of the queries are broken on purpose in a
/// way planning must reject, and about 2% push down a run index beyond the
/// stored uint32 range.
class QueryGenerator {
 public:
  QueryGenerator(std::uint64_t seed, const StoreCatalog& catalog,
                 bool edge_cases)
      : state_(seed), edge_cases_(edge_cases) {
    const StoreCatalog::Snapshot snap = catalog.snapshot();
    const std::vector<prov::RunId> runs = snap.runs(std::nullopt, std::nullopt);
    for (const prov::RunId& id : runs) {
      if (std::find(workflows_.begin(), workflows_.end(), id.workflow) ==
          workflows_.end()) {
        workflows_.push_back(id.workflow);
      }
    }
    // A few literal candidates per (view, column) from the stored rows.
    for (std::size_t v = 0; v < view_names().size(); ++v) {
      const auto view = static_cast<ViewId>(v);
      schemas_.push_back(empty_view_frame(view));
      std::map<std::string, std::vector<analysis::Cell>> samples;
      for (const prov::RunId& id : runs) {
        const auto frame = snap.frame(view, id);
        for (std::size_t c = 0; c < frame->width(); ++c) {
          const Column& col = frame->col(c);
          for (int k = 0; k < 4 && frame->rows() > 0; ++k) {
            samples[col.name()].push_back(col.cell(below(frame->rows())));
          }
        }
      }
      samples_.push_back(std::move(samples));
    }
  }

  Query next() {
    Query q;
    const auto view = static_cast<ViewId>(below(view_names().size()));
    q.from = view_name(view);
    if (chance(0.25)) {
      q.workflow = chance(0.9) ? pick(workflows_) : std::string("Nope");
    }
    if (chance(0.2)) q.run = static_cast<std::int64_t>(below(4));
    const std::size_t n_where = below(4);
    for (std::size_t i = 0; i < n_where; ++i) q.where.push_back(predicate(view));
    if (edge_cases_ && chance(0.02)) {
      q.where.push_back({"run", CmpOp::kEq, std::int64_t{1} << 32});
    }

    DataFrame frame = schemas_[static_cast<std::size_t>(view)];
    if (chance(0.3)) {
      const auto right = static_cast<ViewId>(below(view_names().size()));
      AsofJoin join = asof_join(view, right);
      analysis::AsofSpec spec;
      spec.left_on = join.left_on;
      spec.right_on = join.right_on;
      for (const auto& [l, r] : join.by) {
        spec.left_by.push_back(l);
        spec.right_by.push_back(r);
      }
      for (const char* id : {"workflow", "run"}) {
        spec.left_by.emplace_back(id);
        spec.right_by.emplace_back(id);
      }
      spec.right_valid_until = join.right_valid_until;
      frame = frame.asof_merge(schemas_[static_cast<std::size_t>(right)], spec);
      q.asof_join = std::move(join);
    }
    const DataFrame post_join = frame;

    if (chance(0.5)) {
      std::vector<std::string> names = frame.column_names();
      shuffle(names);
      names.resize(1 + below(std::min<std::size_t>(3, names.size())));
      q.group_by = names;
      const std::size_t n_aggs = 1 + below(3);
      std::vector<analysis::AggSpec> specs;
      for (std::size_t i = 0; i < n_aggs; ++i) {
        AggregateTerm a;
        a.op = static_cast<analysis::Agg>(below(8));
        a.as = "agg" + std::to_string(i);
        const bool numeric_only = a.op == analysis::Agg::kSum ||
                                  a.op == analysis::Agg::kMean ||
                                  a.op == analysis::Agg::kStd;
        if (a.op == analysis::Agg::kCount && chance(0.5)) {
          a.column.clear();
        } else {
          a.column = column_of(frame, numeric_only);
        }
        specs.push_back({a.column, a.op, a.as});
        q.aggregates.push_back(std::move(a));
      }
      frame = frame.group_by(q.group_by, specs);
    }
    if (chance(0.6)) {
      q.order_by = OrderBy{pick(frame.column_names()), chance(0.5)};
    }
    if (chance(0.5)) {
      static const std::vector<std::int64_t> kLimits = {0,  1,   2,    3,
                                                        7,  10,  25,   100,
                                                        999, 5000, 100000};
      q.limit = pick(kLimits);
    }
    if (chance(0.3)) {
      std::vector<std::string> names = frame.column_names();
      shuffle(names);
      names.resize(1 + below(std::min<std::size_t>(4, names.size())));
      q.select = names;
    }
    if (edge_cases_ && chance(0.05)) break_query(q, post_join, frame);
    return q;
  }

 private:
  std::uint64_t next_u64() { return splitmix64(state_); }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next_u64() % n);
  }
  bool chance(double p) {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53 < p;
  }
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[below(v.size())];
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

  std::string column_of(const DataFrame& frame, bool numeric) {
    std::vector<std::string> names;
    for (std::size_t c = 0; c < frame.width(); ++c) {
      if (!numeric || frame.col(c).type() != ColumnType::kString) {
        names.push_back(frame.col(c).name());
      }
    }
    return pick(names);
  }

  Predicate predicate(ViewId view) {
    const DataFrame& schema = schemas_[static_cast<std::size_t>(view)];
    const auto& samples = samples_[static_cast<std::size_t>(view)];
    Predicate p;
    p.column = pick(schema.column_names());
    const ColumnType type = schema.col(p.column).type();
    const auto it = samples.find(p.column);
    const bool sampled = it != samples.end() && !it->second.empty();
    if (type == ColumnType::kString) {
      p.op = static_cast<CmpOp>(below(7));
      std::string value =
          sampled ? std::get<std::string>(pick(it->second)) : "zzz";
      if (p.op == CmpOp::kContains && !value.empty() && chance(0.7)) {
        const std::size_t from = below(value.size());
        value = value.substr(from, 1 + below(value.size() - from));
      }
      p.value = chance(0.05) ? std::string("-") : value;
      return p;
    }
    p.op = static_cast<CmpOp>(below(6));
    const analysis::Cell cell =
        sampled ? pick(it->second) : analysis::Cell(std::int64_t{0});
    if (type == ColumnType::kInt64) {
      const std::int64_t i = std::get<std::int64_t>(cell);
      p.value = chance(0.7) ? analysis::Cell(i)
                            : analysis::Cell(static_cast<double>(i) + 0.5);
    } else {
      const double d =
          std::holds_alternative<double>(cell) ? std::get<double>(cell) : 0.0;
      p.value = chance(0.7)
                    ? analysis::Cell(d)
                    : analysis::Cell(static_cast<std::int64_t>(std::floor(d)));
    }
    return p;
  }

  AsofJoin asof_join(ViewId left, ViewId right) {
    const DataFrame& ls = schemas_[static_cast<std::size_t>(left)];
    const DataFrame& rs = schemas_[static_cast<std::size_t>(right)];
    AsofJoin join;
    join.right_view = view_name(right);
    join.left_on = column_of(ls, true);
    join.right_on = column_of(rs, true);
    const std::size_t n_by = below(3);
    for (std::size_t i = 0; i < n_by; ++i) {
      const std::string l = pick(ls.column_names());
      const bool l_string = ls.col(l).type() == ColumnType::kString;
      std::vector<std::string> partners;
      for (const std::string& r : rs.column_names()) {
        if (r == "workflow" || r == "run") continue;
        if ((rs.col(r).type() == ColumnType::kString) == l_string) {
          partners.push_back(r);
        }
      }
      if (l == "workflow" || l == "run" || partners.empty()) continue;
      join.by.emplace_back(l, pick(partners));
    }
    if (chance(0.4)) join.right_valid_until = column_of(rs, true);
    if (chance(0.3)) {
      static const std::vector<double> kTolerances = {0.0, 0.05, 1.0, 10.0};
      join.tolerance = pick(kTolerances);
    }
    join.keep_unmatched = chance(0.4);
    const std::size_t n_where = below(3);
    for (std::size_t i = 0; i < n_where; ++i) {
      join.where.push_back(predicate(right));
    }
    return join;
  }

  /// One deliberate defect: names missing from the frame they apply to,
  /// duplicate projections, string sums, a pre-aggregation sort column or
  /// a predicate literal of the wrong type.
  void break_query(Query& q, const DataFrame& post_join,
                   const DataFrame& shaped) {
    switch (below(5)) {
      case 0:
        q.select = {pick(shaped.column_names()), "nope"};
        break;
      case 1: {
        const std::string c = pick(shaped.column_names());
        q.select = {c, c};
        break;
      }
      case 2:
        q.order_by = OrderBy{"nope", chance(0.5)};
        break;
      case 3: {
        std::vector<std::string> strings;
        for (std::size_t c = 0; c < post_join.width(); ++c) {
          if (post_join.col(c).type() == ColumnType::kString) {
            strings.push_back(post_join.col(c).name());
          }
        }
        if (q.group_by.empty()) q.group_by = {pick(strings)};
        q.aggregates = {{pick(strings), analysis::Agg::kSum, "s"}};
        q.order_by.reset();
        q.select.clear();
        break;
      }
      default:
        if (!q.group_by.empty()) {
          for (const std::string& c : post_join.column_names()) {
            if (!shaped.has_column(c)) {
              q.order_by = OrderBy{c, false};
              break;
            }
          }
        } else {
          q.where.push_back({"workflow", CmpOp::kEq, std::int64_t{1}});
        }
        break;
    }
  }

  std::uint64_t state_;
  bool edge_cases_;
  std::vector<std::string> workflows_;
  std::vector<DataFrame> schemas_;
  std::vector<std::map<std::string, std::vector<analysis::Cell>>> samples_;
};

/// The executor before late materialization, kept as the reference: every
/// column of every planned run filtered (apply_predicates) and concatenated
/// run by run (concat), then joined, grouped, sorted, limited, projected.
DataFrame reference_scan(ViewId view, const std::vector<prov::RunId>& runs,
                         const std::vector<Predicate>& preds,
                         const StoreCatalog::Snapshot& snapshot) {
  if (runs.empty()) return empty_view_frame(view);
  bool first = true;
  DataFrame acc;
  for (const prov::RunId& id : runs) {
    DataFrame filtered = apply_predicates(*snapshot.frame(view, id), preds);
    acc = first ? std::move(filtered) : acc.concat(filtered);
    first = false;
  }
  return acc;
}

DataFrame reference_execute(const Query& query, const StoreCatalog& catalog) {
  const StoreCatalog::Snapshot snapshot = catalog.snapshot();
  const Plan plan = plan_query(query, snapshot);
  // Equality on the run identifier columns went into run pruning.
  std::vector<Predicate> residual;
  for (const Predicate& p : query.where) {
    const bool pushed =
        p.op == CmpOp::kEq &&
        ((p.column == "workflow" &&
          std::holds_alternative<std::string>(p.value)) ||
         (p.column == "run" && std::holds_alternative<std::int64_t>(p.value)));
    if (!pushed) residual.push_back(p);
  }
  DataFrame current = reference_scan(plan.view, plan.runs, residual, snapshot);
  if (query.asof_join) {
    const AsofJoin& join = *query.asof_join;
    const DataFrame right = reference_scan(view_from_name(join.right_view),
                                           plan.runs, join.where, snapshot);
    analysis::AsofSpec spec;
    spec.left_on = join.left_on;
    spec.right_on = join.right_on;
    for (const auto& [l, r] : join.by) {
      spec.left_by.push_back(l);
      spec.right_by.push_back(r);
    }
    for (const char* id : {"workflow", "run"}) {
      spec.left_by.emplace_back(id);
      spec.right_by.emplace_back(id);
    }
    spec.right_valid_until = join.right_valid_until;
    spec.tolerance = join.tolerance;
    spec.keep_unmatched = join.keep_unmatched;
    current = current.asof_merge(right, spec);
  }
  if (!query.group_by.empty()) {
    std::vector<analysis::AggSpec> aggs;
    for (const AggregateTerm& a : query.aggregates) {
      aggs.push_back({a.column, a.op, a.as});
    }
    current = current.group_by(query.group_by, aggs);
  }
  if (query.order_by) {
    current = current.sort_by(query.order_by->column,
                              !query.order_by->descending);
  }
  if (query.limit) {
    current = current.head(static_cast<std::size_t>(*query.limit));
  }
  if (!query.select.empty()) current = current.select(query.select);
  return current;
}

std::string query_text(const Query& q) { return fingerprint(q); }

/// One instance of each query_mix template (perfbench's Fig. 5-8 shapes)
/// under `scope`, with the k-th threshold / limit.
std::string template_query(const std::string& tmpl, const std::string& scope,
                           std::size_t k) {
  const std::string limit = std::to_string(std::vector<int>{5, 10, 20, 50}[k % 4]);
  const auto threshold = [&](const std::vector<std::string>& values) {
    return values[k % values.size()];
  };
  if (tmpl == "prefix_breakdown") {
    return R"({"from": "tasks", )" + scope +
           R"("group_by": ["prefix"], "aggregates": [)"
           R"({"col": "key", "op": "count", "as": "n"}, )"
           R"({"col": "duration", "op": "mean", "as": "mean_s"}, )"
           R"({"col": "io_time", "op": "sum", "as": "io_s"}], )"
           R"("order_by": {"col": "mean_s", "desc": true}, "limit": )" +
           limit + "}";
  }
  if (tmpl == "run_totals") {
    return R"({"from": "tasks", )" + scope +
           R"("where": [{"col": "duration", "op": ">=", "value": )" +
           threshold({"0.0", "0.01", "0.1", "1.0"}) +
           R"(}], "group_by": ["workflow", "run"], "aggregates": [)"
           R"({"col": "key", "op": "count", "as": "tasks"}, )"
           R"({"col": "duration", "op": "sum", "as": "busy_s"}, )"
           R"({"col": "worker", "op": "count_distinct", "as": "workers"}], )"
           R"("order_by": {"col": "run"}})";
  }
  if (tmpl == "transition_states") {
    return R"({"from": "transitions", )" + scope +
           R"("where": [{"col": "time", "op": ">=", "value": )" +
           threshold({"0.0", "1.0", "10.0", "100.0"}) +
           R"(}], "group_by": ["from", "to"], "aggregates": [)"
           R"({"col": "key", "op": "count", "as": "n"}, )"
           R"({"col": "key", "op": "count_distinct", "as": "keys"}], )"
           R"("order_by": {"col": "n", "desc": true}})";
  }
  if (tmpl == "task_io_hotfiles") {
    return R"({"from": "task_io", )" + scope +
           R"("where": [{"col": "length", "op": ">=", "value": )" +
           threshold({"0", "4096", "1048576"}) +
           R"(}], "group_by": ["file", "op"], "aggregates": [)"
           R"({"col": "duration", "op": "sum", "as": "total_s"}, )"
           R"({"col": "task_key", "op": "count_distinct", "as": "tasks"}], )"
           R"("order_by": {"col": "total_s", "desc": true}, "limit": )" +
           limit + "}";
  }
  if (tmpl == "slow_tasks") {
    return R"({"from": "tasks", )" + scope +
           R"("where": [{"col": "duration", "op": ">", "value": )" +
           threshold({"0.05", "0.5", "2.0", "10.0"}) +
           R"(}], "order_by": {"col": "duration", "desc": true}, "limit": )" +
           limit +
           R"(, "select": ["workflow", "run", "key", "prefix", "worker", )"
           R"("duration"]})";
  }
  if (tmpl == "comm_scatter") {
    return R"({"from": "comms", )" + scope +
           R"("where": [{"col": "bytes", "op": ">=", "value": )" +
           threshold({"0", "65536", "8388608"}) +
           R"(}], "group_by": ["source", "destination"], "aggregates": [)"
           R"({"col": "bytes", "op": "sum", "as": "total_bytes"}, )"
           R"({"col": "duration", "op": "mean", "as": "mean_s"}, )"
           R"({"col": "key", "op": "count", "as": "n"}], )"
           R"("order_by": {"col": "total_bytes", "desc": true}, "limit": )" +
           limit + "}";
  }
  if (tmpl == "warnings_by_worker") {
    return R"({"from": "warnings", )" + scope +
           R"("where": [{"col": "blocked_for", "op": ">=", "value": )" +
           threshold({"0.0", "1.0", "5.0"}) +
           R"(}], "group_by": ["location", "kind"], "aggregates": [)"
           R"({"col": "time", "op": "count", "as": "n"}, )"
           R"({"col": "blocked_for", "op": "sum", "as": "blocked_s"}], )"
           R"("order_by": {"col": "n", "desc": true}})";
  }
  // io_asof: Darshan segments fused onto tasks.
  return R"({"from": "io_segments", )" + scope +
         R"("where": [{"col": "length", "op": ">=", "value": )" +
         threshold({"0", "65536", "1048576"}) +
         R"(}], "asof_join": {"right": "tasks", "left_on": "start", )"
         R"("right_on": "start_time", "by": [["thread_id", "thread_id"]], )"
         R"("right_valid_until": "end_time"}, "group_by": ["prefix"], )"
         R"("aggregates": [{"col": "length", "op": "sum", "as": "bytes"}, )"
         R"({"col": "length", "op": "count", "as": "ops"}], )"
         R"("order_by": {"col": "bytes", "desc": true}})";
}

/// Named query groups, each pinned by one digest per backend: the eight
/// templates over every scope stratum ({every workflow, each workflow} x
/// {every run, one run}) at two thresholds, edge cases, and seeded random
/// queries.
std::vector<std::pair<std::string, std::vector<Query>>> pinned_query_set() {
  const std::vector<std::string> templates = {
      "prefix_breakdown", "run_totals",   "transition_states",
      "task_io_hotfiles", "slow_tasks",   "comm_scatter",
      "warnings_by_worker", "io_asof"};
  // (workflow, run) per stratum; "" = every workflow, -1 = every run.
  const std::vector<std::pair<std::string, int>> strata = {
      {"", -1}, {"Alpha", -1}, {"ImageProcessing", -1}, {"ResNet152", -1},
      {"XGBOOST", -1}, {"", 0}, {"Alpha", 0}, {"ImageProcessing", 0},
      {"ResNet152", 0}, {"XGBOOST", 2}};
  std::vector<std::pair<std::string, std::vector<Query>>> groups;
  for (const std::string& tmpl : templates) {
    std::vector<Query> queries;
    for (std::size_t s = 0; s < strata.size(); ++s) {
      std::string scope;
      if (!strata[s].first.empty()) {
        scope += R"("workflow": ")" + strata[s].first + R"(", )";
      }
      if (strata[s].second >= 0) {
        scope += R"("run": )" + std::to_string(strata[s].second) + ", ";
      }
      for (std::size_t k = s % 2; k < 4; k += 2) {
        queries.push_back(parse_query(template_query(tmpl, scope, k)));
      }
    }
    groups.emplace_back(tmpl, std::move(queries));
  }
  const std::vector<std::string> edge_cases = {
      // A bare limit still merges every run's dictionaries.
      R"({"from": "tasks", "limit": 7})",
      // Alpha keeps no rows: visited (memory) or zone-pruned (segments).
      R"({"from": "tasks", "where": [{"col": "duration", "op": ">",
          "value": 0.1}], "select": ["key", "prefix", "duration"],
          "order_by": {"col": "duration"}})",
      // Alpha keeps no rows and no zone map can tell.
      R"({"from": "tasks", "where": [{"col": "prefix", "op": "contains",
          "value": "-"}], "order_by": {"col": "end_time", "desc": true},
          "limit": 40})",
      R"({"from": "tasks", "where": [{"col": "prefix", "op": "contains",
          "value": "-"}], "group_by": ["prefix", "worker"],
          "aggregates": [{"col": "key", "op": "count_distinct", "as": "k"},
                         {"col": "worker_address", "op": "min", "as": "lo"},
                         {"col": "graph", "op": "first", "as": "g"}]})",
      // Views that are empty in some runs.
      R"({"from": "steals"})",
      R"({"from": "warnings", "group_by": ["kind", "run"],
          "aggregates": [{"col": "blocked_for", "op": "std", "as": "sd"},
                         {"col": "message", "op": "max", "as": "last"}]})",
      R"({"from": "task_io", "limit": 3})",
      // asof joins with `_right` collisions, a window and unmatched rows.
      R"({"from": "io_segments", "asof_join": {"right": "task_io",
          "left_on": "start", "right_on": "start",
          "by": [["thread_id", "thread_id"]], "keep_unmatched": true},
          "group_by": ["file_right"], "aggregates": [
          {"col": "length_right", "op": "sum", "as": "b"},
          {"col": "op_right", "op": "count_distinct", "as": "ops"}],
          "order_by": {"col": "b", "desc": true}})",
      R"({"from": "tasks", "asof_join": {"right": "tasks",
          "left_on": "end_time", "right_on": "start_time",
          "by": [["worker", "worker"]], "tolerance": 0.5,
          "keep_unmatched": true,
          "where": [{"col": "duration", "op": ">", "value": 0.05}]},
          "order_by": {"col": "end_time", "desc": true}, "limit": 25,
          "select": ["key", "key_right", "prefix_right", "end_time"]})",
      R"({"from": "comms", "asof_join": {"right": "tasks",
          "left_on": "start", "right_on": "start_time",
          "by": [["key", "key"]], "right_valid_until": "end_time"},
          "group_by": ["prefix"], "aggregates": [
          {"col": "duration_right", "op": "sum", "as": "d"},
          {"col": "bytes", "op": "mean", "as": "b"}]})"};
  std::vector<Query> edges;
  for (const std::string& text : edge_cases) edges.push_back(parse_query(text));
  groups.emplace_back("edge_cases", std::move(edges));

  QueryGenerator gen(20, exec_catalogs().memory, /*edge_cases=*/false);
  std::vector<Query> random;
  for (int i = 0; i < 200; ++i) random.push_back(gen.next());
  groups.emplace_back("random", std::move(random));
  return groups;
}

TEST(QueryExec, ResultBytesMatchPinnedDigests) {
  const ExecCatalogs& catalogs = exec_catalogs();
  // Sort keys hold no NaN: NaN ordering is its own (pinned) behavior.
  {
    const StoreCatalog::Snapshot snap = catalogs.memory.snapshot();
    for (std::size_t v = 0; v < view_names().size(); ++v) {
      for (const prov::RunId& id : snap.runs(std::nullopt, std::nullopt)) {
        const auto frame = snap.frame(static_cast<ViewId>(v), id);
        for (std::size_t c = 0; c < frame->width(); ++c) {
          if (frame->col(c).type() != ColumnType::kDouble) continue;
          for (const double d : frame->col(c).doubles()) {
            ASSERT_FALSE(std::isnan(d)) << frame->col(c).name();
          }
        }
      }
    }
  }
  // Recorded with the scan / filter / concat executor; every byte of every
  // result must come out unchanged.
  const std::map<std::string, std::string> pinned = {
      {"memory/comm_scatter", "fffdbaea1953a1b5"},
      {"memory/edge_cases", "3991ab0a26940691"},
      {"memory/io_asof", "151bfc35c1bd545f"},
      {"memory/prefix_breakdown", "60f79f1df85a9554"},
      {"memory/random", "d9eb25bbe5c25762"},
      {"memory/run_totals", "88e28b12f134a370"},
      {"memory/slow_tasks", "d695253f9952756e"},
      {"memory/task_io_hotfiles", "c9a0c8c6fd1175e3"},
      {"memory/transition_states", "a83b69336d7612c9"},
      {"memory/warnings_by_worker", "3e94224ca735b4d9"},
      {"segment/comm_scatter", "fffdbaea1953a1b5"},
      {"segment/edge_cases", "b8c2157defdf57b2"},
      {"segment/io_asof", "c00fe94a0da0a579"},
      {"segment/prefix_breakdown", "60f79f1df85a9554"},
      {"segment/random", "b5753026ce64fca1"},
      {"segment/run_totals", "1d2af68c7875d3e4"},
      {"segment/slow_tasks", "24f5c14661e11615"},
      {"segment/task_io_hotfiles", "0fe708a112821652"},
      {"segment/transition_states", "02d9b49a3851bbcc"},
      {"segment/warnings_by_worker", "c01dd8b83bb2549f"},
  };
  std::map<std::string, std::string> actual;
  std::size_t queries = 0;
  for (const auto& [group, group_queries] : pinned_query_set()) {
    for (const auto& [backend, catalog] :
         {std::pair<std::string, const StoreCatalog*>{"memory",
                                                      &catalogs.memory},
          {"segment", catalogs.segment.get()}}) {
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for (const Query& q : group_queries) {
        const ExecutionResult result = execute_query(q, *catalog, nullptr);
        digest_into(h, frame_to_binary(*result.frame));
        ++queries;
      }
      actual[backend + "/" + group] = hex64(h);
    }
  }
  std::string table;
  for (const auto& [key, hex] : actual) {
    table += "      {\"" + key + "\", \"" + hex + "\"},\n";
  }
  EXPECT_EQ(actual, pinned) << queries << " queries; actual digests:\n"
                            << table;
}

TEST(QueryExec, LateMaterializationMatchesReferenceExecutor) {
  const ExecCatalogs& catalogs = exec_catalogs();
  QueryGenerator gen(2026, catalogs.memory, /*edge_cases=*/true);
  std::size_t compared = 0;
  std::size_t errors = 0;
  std::size_t joins = 0;
  std::size_t grouped = 0;
  std::size_t nonempty = 0;
  for (int i = 0; i < 2000; ++i) {
    const Query q = gen.next();
    joins += q.asof_join ? 1 : 0;
    grouped += q.group_by.empty() ? 0 : 1;
    for (const StoreCatalog* catalog :
         {&catalogs.memory,
          static_cast<const StoreCatalog*>(catalogs.segment.get())}) {
      std::string late = "error";
      std::size_t rows = 0;
      try {
        const ExecutionResult result = execute_query(q, *catalog, nullptr);
        late = frame_to_binary(*result.frame);
        rows = result.frame->rows();
      } catch (const QueryError&) {
      }
      std::string reference = "error";
      try {
        reference = frame_to_binary(reference_execute(q, *catalog));
      } catch (const QueryError&) {
      } catch (const analysis::DataFrameError&) {
      }
      ASSERT_EQ(late, reference) << "query " << i << ": " << query_text(q);
      ++compared;
      errors += late == "error" ? 1 : 0;
      nonempty += rows > 0 ? 1 : 0;
    }
  }
  EXPECT_EQ(compared, 4000u);
  // The stream is not degenerate: joins, groups, rejections and non-empty
  // answers all show up in volume.
  EXPECT_GT(joins, 300u);
  EXPECT_GT(grouped, 700u);
  EXPECT_GT(errors, 100u);
  EXPECT_GT(nonempty, 1500u);
}

// ---------------------------------------------------------------------------
// Fingerprint against the canonical tree it replaced

json::Value reference_cell(const analysis::Cell& cell) {
  if (const auto* i = std::get_if<std::int64_t>(&cell)) return *i;
  if (const auto* d = std::get_if<double>(&cell)) return *d;
  return std::get<std::string>(cell);
}

json::Value reference_predicates(const std::vector<Predicate>& preds) {
  json::Array arr;
  for (const Predicate& p : preds) {
    json::Object o;
    o["col"] = p.column;
    o["op"] = cmp_op_name(p.op);
    o["value"] = reference_cell(p.value);
    arr.emplace_back(std::move(o));
  }
  return arr;
}

/// The canonical tree whose compact dump was the cache key before
/// fingerprint() wrote the text directly, kept as its reference.
/// json::Object is a std::map, so every level dumps in key byte order.
json::Value reference_tree(const Query& query) {
  json::Object o;
  o["from"] = query.from;
  if (query.workflow) o["workflow"] = *query.workflow;
  if (query.run) o["run"] = *query.run;
  if (!query.where.empty()) o["where"] = reference_predicates(query.where);
  if (query.asof_join) {
    const AsofJoin& j = *query.asof_join;
    json::Object join;
    join["right"] = j.right_view;
    join["left_on"] = j.left_on;
    join["right_on"] = j.right_on;
    if (!j.by.empty()) {
      json::Array by;
      for (const auto& [l, r] : j.by) by.emplace_back(json::Array{l, r});
      join["by"] = std::move(by);
    }
    if (!j.right_valid_until.empty()) {
      join["right_valid_until"] = j.right_valid_until;
    }
    if (j.tolerance >= 0.0) join["tolerance"] = j.tolerance;
    if (j.keep_unmatched) join["keep_unmatched"] = true;
    if (!j.where.empty()) join["where"] = reference_predicates(j.where);
    o["asof_join"] = std::move(join);
  }
  if (!query.group_by.empty()) {
    json::Array g;
    for (const std::string& c : query.group_by) g.emplace_back(c);
    o["group_by"] = std::move(g);
    json::Array aggs;
    for (const AggregateTerm& a : query.aggregates) {
      json::Object term;
      if (!a.column.empty()) term["col"] = a.column;
      term["op"] = agg_op_name(a.op);
      term["as"] = a.as;
      aggs.emplace_back(std::move(term));
    }
    o["aggregates"] = std::move(aggs);
  }
  if (query.order_by) {
    json::Object order;
    order["col"] = query.order_by->column;
    if (query.order_by->descending) order["desc"] = true;
    o["order_by"] = std::move(order);
  }
  if (query.limit) o["limit"] = *query.limit;
  if (!query.select.empty()) {
    json::Array s;
    for (const std::string& c : query.select) s.emplace_back(c);
    o["select"] = std::move(s);
  }
  return o;
}

/// Queries the generator never draws: escapes, non-finite and extreme
/// numbers, and shapes only code can build.
std::vector<Query> hand_built_queries() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denormal = std::numeric_limits<double>::denorm_min();
  const std::int64_t lowest = std::numeric_limits<std::int64_t>::min();
  const std::int64_t highest = std::numeric_limits<std::int64_t>::max();
  const std::string quoted = "say \"hi\" \\ back\nslash\ttab\rcr";
  const char kControl[] = "nul\0soh\x01us\x1f" "del\x7f";
  const std::string control(kControl, sizeof kControl - 1);
  const std::string utf8 =
      "caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac \xf0\x9f\x93\x88";
  std::vector<Query> out;
  for (const analysis::Cell& value :
       {analysis::Cell(quoted), analysis::Cell(control), analysis::Cell(utf8),
        analysis::Cell(std::string()), analysis::Cell(nan),
        analysis::Cell(inf), analysis::Cell(-inf), analysis::Cell(denormal),
        analysis::Cell(1e300), analysis::Cell(lowest),
        analysis::Cell(highest)}) {
    Query q;
    q.from = "tasks";
    q.where = {{"prefix", CmpOp::kEq, value}, {quoted, CmpOp::kGe, value}};
    out.push_back(q);
  }
  for (const double tolerance :
       {nan, inf, -inf, denormal, 1e300, 0.0, -1.0, -1e300}) {
    AsofJoin join;
    join.right_view = "tasks";
    join.left_on = "start";
    join.right_on = "start_time";
    join.tolerance = tolerance;
    Query q;
    q.from = "comms";
    q.asof_join = join;
    out.push_back(q);
  }
  {
    // An empty `by` list beside every other join member.
    AsofJoin join;
    join.right_view = utf8;
    join.left_on = control;
    join.right_on = quoted;
    join.right_valid_until = "end_time";
    join.keep_unmatched = true;
    join.where = {{"duration", CmpOp::kLt, 0.5}, {"key", CmpOp::kContains,
                                                   std::string("\"")}};
    Query q;
    q.from = "io_segments";
    q.asof_join = join;
    out.push_back(q);
  }
  {
    Query q;  // group_by without aggregates
    q.from = "tasks";
    q.group_by = {"prefix", quoted};
    out.push_back(q);
  }
  {
    Query q;  // aggregates without group_by
    q.from = "tasks";
    q.aggregates = {{"duration", analysis::Agg::kSum, "s"}};
    out.push_back(q);
  }
  {
    // count with an empty column, and every other member set.
    Query q;
    q.from = "transitions";
    q.workflow = std::string();
    q.run = highest;
    q.where = {{"time", CmpOp::kNe, lowest}};
    q.group_by = {"from", "to"};
    q.aggregates = {{"", analysis::Agg::kCount, "n"},
                    {"key", analysis::Agg::kCountDistinct, utf8}};
    q.order_by = OrderBy{"n", true};
    q.limit = highest;
    q.select = {"from", control, ""};
    out.push_back(q);
  }
  return out;
}

TEST(QueryIr, FingerprintMatchesTreeDump) {
  StoreCatalog catalog;
  catalog.add_run(alpha_run());
  catalog.add_run(make_run("A", 0));
  catalog.add_run(make_run("B", 1, 12));
  std::vector<Query> queries = hand_built_queries();
  const std::size_t hand_built = queries.size();
  QueryGenerator gen(2026, catalog, /*edge_cases=*/true);
  for (int i = 0; i < 2000; ++i) queries.push_back(gen.next());

  std::size_t reparsed = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::string key = fingerprint(queries[i]);
    ASSERT_EQ(key, reference_tree(queries[i]).dump()) << "query " << i;
    Query back;
    try {
      back = parse_query(key);
    } catch (const QueryError&) {
      continue;  // NaN and the infinities write as null
    }
    ++reparsed;
    EXPECT_EQ(fingerprint(back), key) << "query " << i;
  }
  EXPECT_GT(reparsed, hand_built);
  EXPECT_GE(reparsed, 2000u);

  // -0.0 writes as -0, which recup::json reads back as the integer 0: the
  // query returns with the key of its +0 twin.
  Query neg;
  neg.from = "tasks";
  neg.where = {{"d", CmpOp::kLt, -0.0}};
  EXPECT_EQ(fingerprint(neg), reference_tree(neg).dump());
  EXPECT_EQ(fingerprint(neg),
            R"({"from":"tasks","where":[{"col":"d","op":"<","value":-0}]})");
  EXPECT_EQ(fingerprint(parse_query(fingerprint(neg))),
            R"({"from":"tasks","where":[{"col":"d","op":"<","value":0}]})");
  AsofJoin join;
  join.right_view = "tasks";
  join.left_on = "a";
  join.right_on = "b";
  join.tolerance = -0.0;
  neg.where.clear();
  neg.asof_join = join;
  EXPECT_EQ(fingerprint(neg), reference_tree(neg).dump());
  EXPECT_EQ(fingerprint(neg),
            R"({"asof_join":{"left_on":"a","right":"tasks","right_on":"b",)"
            R"("tolerance":-0},"from":"tasks"})");
  EXPECT_EQ(fingerprint(parse_query(fingerprint(neg))),
            R"({"asof_join":{"left_on":"a","right":"tasks","right_on":"b",)"
            R"("tolerance":0},"from":"tasks"})");
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

  // A bare string literal, as README's example writes it, is query text.
  const QueryResponse literal =
      client.query(R"({"from": "tasks", "limit": 3})");
  ASSERT_TRUE(literal.ok) << literal.error;
  EXPECT_EQ(literal.frame.rows(), 3u);
}

TEST(QueryServer, ExplainRejectsWhatExecutionRejects) {
  StoreCatalog catalog;
  catalog.add_run(make_run("A", 0));
  QueryServer server(catalog);
  QueryClient client(server);
  const std::vector<std::pair<std::string, std::string>> invalid = {
      {R"({"from": "tasks", "order_by": {"col": "nope"}})", "'nope'"},
      {R"({"from": "tasks", "select": ["key", "nope"]})", "'nope'"},
      {R"({"from": "tasks", "group_by": ["prefix"],
           "aggregates": [{"col": "key", "op": "sum", "as": "s"}]})",
       "'key'"},
      {R"({"from": "tasks", "group_by": ["prefix"],
           "aggregates": [{"col": "duration", "op": "mean", "as": "m"}],
           "order_by": {"col": "duration"}})",
       "'duration'"}};
  for (const auto& [text, column] : invalid) {
    const Query query = parse_query(text);
    const QueryResponse plan = client.explain(query);
    const QueryResponse run = client.query(query);
    EXPECT_FALSE(plan.ok) << text;
    EXPECT_FALSE(run.ok) << text;
    EXPECT_NE(plan.error.find(column), std::string::npos) << plan.error;
    EXPECT_EQ(plan.error, run.error);
  }
  const QueryResponse plan = client.explain(parse_query(std::string(
      R"({"from": "tasks", "group_by": ["prefix"],
          "aggregates": [{"col": "duration", "op": "mean", "as": "m"}],
          "order_by": {"col": "m", "desc": true}, "limit": 1})")));
  ASSERT_TRUE(plan.ok) << plan.error;
  EXPECT_NE(plan.explain.find("columns=[prefix, duration]"), std::string::npos)
      << plan.explain;
}

TEST(QueryServer, ResultIsTheBinaryFrameOfExecuteQuery) {
  StoreCatalog catalog;
  catalog.add_run(make_run("A", 0));
  QueryServer server(catalog);

  const Query query = parse_query(std::string(
      R"({"from": "tasks", "group_by": ["prefix"],
          "aggregates": [{"col": "duration", "op": "mean", "as": "m"}],
          "order_by": {"col": "prefix"}})"));
  const QueryResponse response = server.submit({query}).get();
  ASSERT_TRUE(response.ok) << response.error;
  ASSERT_FALSE(response.result_bin.empty());
  const DataFrame via_server = frame_from_binary(response.result_bin);
  const ExecutionResult direct = execute_query(query, catalog, nullptr);
  EXPECT_EQ(response.result_bin, frame_to_binary(*direct.frame));
  EXPECT_EQ(frame_to_json(via_server).dump(),
            frame_to_json(*direct.frame).dump());
  EXPECT_EQ(via_server.rows(), 2u);
}

TEST(QueryServer, ErrorsComeBackAsResponses) {
  StoreCatalog catalog;
  catalog.add_run(make_run("A", 0));
  QueryServer server(catalog);
  QueryClient client(server);

  const QueryResponse bad =
      client.query(parse_query(std::string(R"({"from": "nope"})")));
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("nope"), std::string::npos);

  // A query no parser would produce (it names no view) is an error, not a
  // crash.
  const QueryResponse response = server.submit({Query{}}).get();
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.error.empty());
  EXPECT_EQ(response.epoch, 1u);
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

  const Query query = parse_query(std::string(
      R"({"from": "transitions", "group_by": ["key"],
          "aggregates": [{"col": "time", "op": "max", "as": "t"}]})"));
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 64; ++i) futures.push_back(server.submit({query}));
  std::size_t ok = 0;
  std::size_t overloaded = 0;
  for (auto& f : futures) {
    const QueryResponse response = f.get();
    if (response.ok) {
      ++ok;
    } else {
      EXPECT_NE(response.error.find("overloaded"), std::string::npos);
      EXPECT_TRUE(response.transient);
      ++overloaded;
    }
    EXPECT_EQ(response.epoch, 1u);
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

  const Query heavy = parse_query(std::string(
      R"({"from": "transitions", "group_by": ["key"],
          "aggregates": [{"col": "time", "op": "max", "as": "t"}]})"));
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(server.submit({heavy}));
  QueryRequest probe;
  probe.query = parse_query(std::string(R"({"from": "warnings"})"));
  probe.timeout_ms = 0.01;  // expires while queued behind the heavy ones
  const QueryResponse response = server.submit(probe).get();
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("deadline"), std::string::npos);
  EXPECT_EQ(server.stats().timed_out, 1u);
  for (auto& f : futures) f.wait();
}

// A deadline past the steady clock's range must not overflow into one that
// has already passed.
TEST(QueryServer, LongDeadlinesNeverExpire) {
  StoreCatalog catalog;
  QueryServer server(catalog);
  QueryRequest request;
  request.query = parse_query(std::string(R"({"from": "warnings"})"));
  for (const double timeout_ms :
       {1e13, 1e300, std::numeric_limits<double>::infinity()}) {
    request.timeout_ms = timeout_ms;
    const QueryResponse response = server.submit(request).get();
    EXPECT_TRUE(response.ok) << timeout_ms << ": " << response.error;
  }
  EXPECT_EQ(server.stats().timed_out, 0u);
  EXPECT_EQ(server.stats().completed, 3u);
}

TEST(QueryServer, ShutdownDrainsThenRejects) {
  StoreCatalog catalog;
  catalog.add_run(make_run("A", 0));
  QueryServer server(catalog);
  const Query query = parse_query(std::string(R"({"from": "tasks"})"));
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 16; ++i) futures.push_back(server.submit({query}));
  server.shutdown();
  EXPECT_FALSE(server.running());
  // Every accepted request was drained, not dropped.
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().ok);
  }
  const QueryResponse response = server.submit({query}).get();
  EXPECT_FALSE(response.ok);
  EXPECT_TRUE(response.transient);
  EXPECT_NE(response.error.find("shut down"), std::string::npos);
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
    const mofka::ProducerConfig config{16};
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
    const mofka::ProducerConfig config{4};
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
          const QueryResponse r = client.explain(parse_query(queries[0]));
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
