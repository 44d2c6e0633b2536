// Query IR: the JSON-expressible query language of the provenance query
// service (`recup::query`). A query names a registered view (tasks,
// transitions, io_segments, comms, warnings, steals, task_io), optionally
// restricts it to one workflow / run, filters it with typed predicates,
// optionally asof-joins a second view, then groups / orders / limits /
// projects. `parse_query` validates a JSON document into this IR;
// `fingerprint` writes it back as canonical JSON text, which keys the
// result cache.
//
// Grammar (all fields except "from" optional):
//   {
//     "from": "tasks",
//     "workflow": "XGBOOST",          // prune to runs of one workflow
//     "run": 3,                        // prune to one run index
//     "where": [
//       {"col": "duration", "op": ">", "value": 0.5},
//       {"col": "prefix", "op": "contains", "value": "read_parquet"}
//     ],
//     "asof_join": {                   // nearest-earlier join, per run
//       "right": "tasks",
//       "left_on": "start", "right_on": "start_time",
//       "by": [["worker", "worker"], ["thread_id", "thread_id"]],
//       "right_valid_until": "end_time",
//       "tolerance": 5.0,              // optional, seconds
//       "keep_unmatched": false,
//       "where": [ ...predicates on the right view... ]
//     },
//     "group_by": ["prefix"],
//     "aggregates": [
//       {"col": "duration", "op": "mean", "as": "mean_duration"},
//       {"col": "key", "op": "count_distinct", "as": "n_tasks"}
//     ],
//     "order_by": {"col": "mean_duration", "desc": true},
//     "limit": 10,
//     "select": ["prefix", "mean_duration", "n_tasks"]
//   }
//
// Aggregate ops: sum, mean, count, min, max, std, first, count_distinct.
// Predicate ops: ==, !=, <, <=, >, >=, contains (strings only).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/dataframe.hpp"
#include "json/json.hpp"

namespace recup::query {

class QueryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe, kContains };

/// One typed predicate: `column op value`. Values keep their JSON type
/// (int64 / double / string); the executor type-checks them against the
/// view schema at plan time.
struct Predicate {
  std::string column;
  CmpOp op = CmpOp::kEq;
  analysis::Cell value;
};

struct AggregateTerm {
  std::string column;  ///< empty allowed only for "count"
  analysis::Agg op = analysis::Agg::kCount;
  std::string as;
};

struct AsofJoin {
  std::string right_view;
  std::string left_on;
  std::string right_on;
  std::vector<std::pair<std::string, std::string>> by;  ///< (left, right)
  std::string right_valid_until;  ///< optional window column on the right
  double tolerance = -1.0;        ///< < 0 disables
  bool keep_unmatched = false;
  std::vector<Predicate> where;   ///< pushed onto the right view
};

struct OrderBy {
  std::string column;
  bool descending = false;
};

struct Query {
  std::string from;
  std::optional<std::string> workflow;
  std::optional<std::int64_t> run;
  std::vector<Predicate> where;
  std::optional<AsofJoin> asof_join;
  std::vector<std::string> group_by;
  std::vector<AggregateTerm> aggregates;
  std::optional<OrderBy> order_by;
  std::optional<std::int64_t> limit;
  std::vector<std::string> select;
};

/// Parses and validates a JSON query document; throws QueryError naming the
/// offending field. Validation covers structure and operator names only —
/// view/column existence is checked at plan time against the catalog.
Query parse_query(const json::Value& doc);
Query parse_query(const std::string& text);

/// Cache key: the query's canonical JSON text — keys in byte order at every
/// level, defaults omitted — so equal queries (after parsing) share a key,
/// and parse_query reads it back.
std::string fingerprint(const Query& query);

/// Spelled-out operator names, for error messages and explain output.
std::string cmp_op_name(CmpOp op);
std::string agg_op_name(analysis::Agg op);

}  // namespace recup::query
