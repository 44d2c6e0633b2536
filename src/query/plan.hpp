// Planner / executor: compiles a Query (IR) into a plan over the columnar
// DataFrame engine and runs it against one StoreCatalog snapshot.
//
// Plan shape, in order:
//   scan       — for every visible run, read the view's memoized frame.
//                Equality predicates on the `workflow` / `run` identifier
//                columns are *pushed down* here: they prune which runs are
//                read at all instead of filtering rows afterwards. The plan
//                names the columns the rest of the query reads (group keys
//                and aggregate inputs, else the selected and sort columns,
//                plus what an asof_join matches on); only those are copied.
//   filter     — residual predicates, evaluated with typed columnar loops
//                into a selection mask over each run's frame in place (no
//                per-row variant boxing); the scan then appends the
//                surviving rows of its columns once, run by run, straight
//                into the output columns.
//   asof_join  — nearest-earlier merge against a second view, scanned the
//                same way; the run identifier columns are appended to the
//                by-keys so rows never match across runs.
//   group_by   — aggregation on typed composite keys: dense ids straight
//                from dictionary codes / narrow int ranges, else hashed.
//   sort/limit/project — final shaping; a sort with a limit gathers only
//                the first `limit` rows of its permutation.
//
// `plan_query` only plans (explain); `execute_query` plans, consults the
// result cache keyed by (fingerprint, snapshot epoch), and executes on miss.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/dataframe.hpp"
#include "query/cache.hpp"
#include "query/catalog.hpp"
#include "query/ir.hpp"

namespace recup::query {

struct PlanStep {
  std::string op;      ///< "scan", "filter", "asof_join", ...
  std::string detail;  ///< human-readable cost note
};

struct Plan {
  ViewId view = ViewId::kTasks;
  std::vector<prov::RunId> runs;   ///< after pushdown + zone-map pruning
  std::size_t total_runs = 0;      ///< visible runs before pruning
  std::size_t estimated_rows = 0;  ///< scan-input rows across pruned runs
  /// Runs dropped because a residual predicate can never match their zone
  /// maps (segment backend only; 0 when no stats are available).
  std::size_t zone_pruned = 0;
  /// Columns the scan copies out of each run of `view`, in schema order. A
  /// column only a predicate reads is evaluated in place and not listed.
  std::vector<std::string> columns;
  /// The same for the asof_join right view (empty without a join).
  std::vector<std::string> right_columns;
  std::vector<PlanStep> steps;

  /// Deterministic multi-line rendering (the `explain` wire payload).
  [[nodiscard]] std::string to_string() const;
};

struct ExecutionResult {
  std::shared_ptr<const analysis::DataFrame> frame;
  Epoch epoch = 0;
  bool cached = false;
};

/// Builds the plan for a query against one snapshot; throws QueryError on
/// unknown views/columns or type mismatches — including `order_by` and
/// `select` columns missing from the frame they apply to, duplicate
/// `select` names and non-numeric sum/mean/std inputs — so explain rejects
/// what execution would.
Plan plan_query(const Query& query, const StoreCatalog::Snapshot& snapshot);

/// Executes a query against the catalog under one snapshot. `cache` may be
/// nullptr (always cold). The returned epoch is the snapshot's epoch — the
/// store state the result was computed at.
ExecutionResult execute_query(const Query& query, const StoreCatalog& catalog,
                              ResultCache* cache);

/// Typed columnar predicate filter over a frame: the scan's mask plus one
/// gather of every column (exposed for tests).
analysis::DataFrame apply_predicates(const analysis::DataFrame& frame,
                                     const std::vector<Predicate>& preds);

/// True when `p` could match at least one row of a column with zone map
/// `s`; false proves no row can match, so the chunk may be skipped without
/// decoding (exposed for the pruning-soundness tests). Conservative: any
/// uncertainty (NaN-poisoned range, type surprises) returns true.
bool stats_may_match(const segstore::ColumnStats& s, const Predicate& p);

}  // namespace recup::query
