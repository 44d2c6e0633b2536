#include "query/plan.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace recup::query {

namespace {

using analysis::Cell;
using analysis::ColumnType;
using analysis::DataFrame;

std::string cell_display(const Cell& cell) {
  if (const auto* i = std::get_if<std::int64_t>(&cell)) {
    return std::to_string(*i);
  }
  if (const auto* d = std::get_if<double>(&cell)) {
    std::ostringstream out;
    out << *d;
    return out.str();
  }
  return "'" + std::get<std::string>(cell) + "'";
}

std::string predicate_display(const Predicate& p) {
  return p.column + " " + cmp_op_name(p.op) + " " + cell_display(p.value);
}

std::string predicates_display(const std::vector<Predicate>& preds) {
  std::string out;
  for (const Predicate& p : preds) {
    if (!out.empty()) out += " && ";
    out += predicate_display(p);
  }
  return out;
}

template <typename T, typename U>
void narrow_mask(const std::vector<T>& values, U rhs, CmpOp op,
                 std::vector<char>& keep) {
  // Branch-free AND into the mask (keep holds 0/1); the typed inner loop
  // auto-vectorizes for int64/double columns.
  const auto apply = [&](auto cmp) {
    for (std::size_t r = 0; r < values.size(); ++r) {
      keep[r] = static_cast<char>(keep[r] &
                                  static_cast<char>(cmp(values[r], rhs)));
    }
  };
  switch (op) {
    case CmpOp::kEq:
      apply([](const T& a, const U& b) { return a == b; });
      break;
    case CmpOp::kNe:
      apply([](const T& a, const U& b) { return a != b; });
      break;
    case CmpOp::kLt:
      apply([](const T& a, const U& b) { return a < b; });
      break;
    case CmpOp::kLe:
      apply([](const T& a, const U& b) { return a <= b; });
      break;
    case CmpOp::kGt:
      apply([](const T& a, const U& b) { return a > b; });
      break;
    case CmpOp::kGe:
      apply([](const T& a, const U& b) { return a >= b; });
      break;
    case CmpOp::kContains:
      throw QueryError("'contains' applies to string columns only");
  }
}

void narrow_mask_one(const DataFrame& frame, const Predicate& p,
                     std::vector<char>& keep) {
  const analysis::Column* col = nullptr;
  try {
    col = &frame.col(p.column);
  } catch (const analysis::DataFrameError&) {
    throw QueryError("predicate references unknown column '" + p.column +
                     "'");
  }
  switch (col->type()) {
    case ColumnType::kString: {
      const auto* rhs = std::get_if<std::string>(&p.value);
      if (rhs == nullptr) {
        throw QueryError("predicate on string column '" + p.column +
                         "' needs a string value");
      }
      // Dictionary-encoded: evaluate the predicate once per distinct
      // value, then the per-row pass is a branch-free table lookup over
      // the 4-byte codes — string bytes are touched O(dict), not O(rows).
      const auto& dict = col->dict();
      const auto& codes = col->codes();
      std::vector<char> match(dict.size());
      for (std::size_t i = 0; i < dict.size(); ++i) {
        const std::string& v = dict[i];
        bool m = false;
        switch (p.op) {
          case CmpOp::kEq:
            m = v == *rhs;
            break;
          case CmpOp::kNe:
            m = v != *rhs;
            break;
          case CmpOp::kLt:
            m = v < *rhs;
            break;
          case CmpOp::kLe:
            m = v <= *rhs;
            break;
          case CmpOp::kGt:
            m = v > *rhs;
            break;
          case CmpOp::kGe:
            m = v >= *rhs;
            break;
          case CmpOp::kContains:
            m = v.find(*rhs) != std::string::npos;
            break;
        }
        match[i] = static_cast<char>(m);
      }
      for (std::size_t r = 0; r < codes.size(); ++r) {
        keep[r] = static_cast<char>(keep[r] & match[codes[r]]);
      }
      break;
    }
    case ColumnType::kInt64: {
      if (const auto* i = std::get_if<std::int64_t>(&p.value)) {
        narrow_mask(col->ints(), *i, p.op, keep);
      } else if (const auto* d = std::get_if<double>(&p.value)) {
        std::vector<char>& k = keep;
        const auto& values = col->ints();
        std::vector<double> widened(values.begin(), values.end());
        narrow_mask(widened, *d, p.op, k);
      } else {
        throw QueryError("predicate on numeric column '" + p.column +
                         "' needs a numeric value");
      }
      break;
    }
    case ColumnType::kDouble: {
      double rhs = 0.0;
      if (const auto* d = std::get_if<double>(&p.value)) {
        rhs = *d;
      } else if (const auto* i = std::get_if<std::int64_t>(&p.value)) {
        rhs = static_cast<double>(*i);
      } else {
        throw QueryError("predicate on numeric column '" + p.column +
                         "' needs a numeric value");
      }
      narrow_mask(col->doubles(), rhs, p.op, keep);
      break;
    }
  }
}

/// Validates one predicate against a (possibly empty) schema frame.
void check_predicate(const DataFrame& schema, const Predicate& p,
                     const std::string& view) {
  if (!schema.has_column(p.column)) {
    throw QueryError("view '" + view + "' has no column '" + p.column + "'");
  }
  const bool is_string =
      schema.col(p.column).type() == ColumnType::kString;
  const bool value_string = std::holds_alternative<std::string>(p.value);
  if (is_string != value_string) {
    throw QueryError("predicate '" + predicate_display(p) + "' on view '" +
                     view + "': " +
                     (is_string ? "string column needs a string value"
                                : "numeric column needs a numeric value"));
  }
  if (p.op == CmpOp::kContains && !is_string) {
    throw QueryError("'contains' applies to string columns only (column '" +
                     p.column + "')");
  }
}

void check_numeric_column(const DataFrame& schema, const std::string& column,
                          const std::string& view, const std::string& role) {
  if (!schema.has_column(column)) {
    throw QueryError("view '" + view + "' has no column '" + column +
                     "' (" + role + ")");
  }
  if (schema.col(column).type() == ColumnType::kString) {
    throw QueryError(role + " column '" + column + "' of view '" + view +
                     "' must be numeric");
  }
}

/// Equality predicates on the run identifier columns, folded into run
/// pruning (the pushdown path).
struct Pushdown {
  std::optional<std::string> workflow;
  std::optional<std::int64_t> run;
  std::vector<Predicate> residual;
  std::vector<std::string> notes;
  bool contradiction = false;
};

Pushdown extract_pushdown(const Query& q) {
  Pushdown push;
  push.workflow = q.workflow;
  push.run = q.run;
  if (q.workflow) push.notes.push_back("workflow == '" + *q.workflow + "'");
  if (q.run) push.notes.push_back("run == " + std::to_string(*q.run));
  for (const Predicate& p : q.where) {
    if (p.column == "workflow" && p.op == CmpOp::kEq &&
        std::holds_alternative<std::string>(p.value)) {
      const std::string& w = std::get<std::string>(p.value);
      if (push.workflow && *push.workflow != w) push.contradiction = true;
      push.workflow = w;
      push.notes.push_back(predicate_display(p));
      continue;
    }
    if (p.column == "run" && p.op == CmpOp::kEq &&
        std::holds_alternative<std::int64_t>(p.value)) {
      const std::int64_t r = std::get<std::int64_t>(p.value);
      if (push.run && *push.run != r) push.contradiction = true;
      push.run = r;
      push.notes.push_back(predicate_display(p));
      continue;
    }
    push.residual.push_back(p);
  }
  return push;
}

std::string run_list_display(const std::vector<prov::RunId>& runs) {
  std::string out;
  for (const prov::RunId& id : runs) {
    if (!out.empty()) out += ", ";
    out += id.workflow + "#" + std::to_string(id.run_index);
  }
  return out.empty() ? "(none)" : out;
}

template <typename T>
bool range_may_match(T lo, T hi, T rhs, CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return !(rhs < lo) && !(hi < rhs);
    case CmpOp::kNe:
      // Only an all-equal chunk (lo == hi == rhs) provably has no != row.
      return !(lo == hi && lo == rhs);
    case CmpOp::kLt:
      return lo < rhs;
    case CmpOp::kLe:
      return !(rhs < lo);
    case CmpOp::kGt:
      return hi > rhs;
    case CmpOp::kGe:
      return !(hi < rhs);
    case CmpOp::kContains:
      return true;  // not a range predicate
  }
  return true;
}

/// True when every residual predicate could match the chunk (AND
/// semantics: one provably-unsatisfiable predicate kills the chunk).
bool chunk_may_match(const segstore::ChunkMeta& chunk,
                     const std::vector<Predicate>& preds) {
  if (chunk.rows == 0) return false;
  for (const Predicate& p : preds) {
    const segstore::ColumnStats* stats = chunk.column(p.column);
    if (stats == nullptr) continue;  // unknown column: validation's problem
    if (!stats_may_match(*stats, p)) return false;
  }
  return true;
}

}  // namespace

bool stats_may_match(const segstore::ColumnStats& s, const Predicate& p) {
  if (s.rows == 0) return false;
  if (s.type == ColumnType::kString) {
    const auto* rhs = std::get_if<std::string>(&p.value);
    if (rhs == nullptr) return true;  // type mismatch: let validation throw
    if (!s.str_valid) return false;   // no referenced values
    if (p.op == CmpOp::kContains) {
      // A substring test has no range algebra; only a constant chunk
      // (min == max) can be decided from the zone map.
      return s.str_min != s.str_max ||
             s.str_min.find(*rhs) != std::string::npos;
    }
    return range_may_match(s.str_min, s.str_max, *rhs, p.op);
  }
  // Numeric columns. Exact int-vs-int first; everything else goes through
  // the widened double range (monotonic widening keeps it sound — the
  // filter itself compares in double when the rhs is a double).
  if (s.type == ColumnType::kInt64) {
    if (const auto* i = std::get_if<std::int64_t>(&p.value)) {
      return range_may_match(s.int_min, s.int_max, *i, p.op);
    }
  }
  const auto range = s.numeric_range();
  if (!range) return true;  // NaN-poisoned or non-numeric: conservative
  double rhs = 0.0;
  if (const auto* d = std::get_if<double>(&p.value)) {
    rhs = *d;
  } else if (const auto* i = std::get_if<std::int64_t>(&p.value)) {
    rhs = static_cast<double>(*i);
  } else {
    return true;
  }
  return range_may_match(range->first, range->second, rhs, p.op);
}

std::string Plan::to_string() const {
  std::ostringstream out;
  out << "plan: " << view_name(view) << " over " << runs.size() << "/"
      << total_runs << " runs (~" << estimated_rows << " input rows)\n";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    out << "  " << i + 1 << ". " << steps[i].op << ": " << steps[i].detail
        << "\n";
  }
  return out.str();
}

namespace {

/// The zero-row schema frame of every view, built once: plan-time
/// validation and the column types of the scan's output.
const DataFrame& view_schema(ViewId view) {
  static const std::vector<DataFrame> kSchemas = [] {
    std::vector<DataFrame> out;
    for (std::size_t v = 0; v < view_names().size(); ++v) {
      out.push_back(empty_view_frame(static_cast<ViewId>(v)));
    }
    return out;
  }();
  return kSchemas[static_cast<std::size_t>(view)];
}

/// The predicates ANDed into one 0/1 byte mask over `frame`.
std::vector<char> predicate_mask(const DataFrame& frame,
                                 const std::vector<Predicate>& preds) {
  std::vector<char> keep(frame.rows(), 1);
  for (const Predicate& p : preds) narrow_mask_one(frame, p, keep);
  return keep;
}

analysis::AsofSpec asof_spec(const AsofJoin& join) {
  analysis::AsofSpec spec;
  spec.left_on = join.left_on;
  spec.right_on = join.right_on;
  for (const auto& [l, r] : join.by) {
    spec.left_by.push_back(l);
    spec.right_by.push_back(r);
  }
  // Run identity joins implicitly: a row never matches across runs.
  spec.left_by.emplace_back("workflow");
  spec.right_by.emplace_back("workflow");
  spec.left_by.emplace_back("run");
  spec.right_by.emplace_back("run");
  spec.right_valid_until = join.right_valid_until;
  spec.tolerance = join.tolerance;
  spec.keep_unmatched = join.keep_unmatched;
  return spec;
}

std::string list_display(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

/// `schema`'s columns that are in `wanted`, in schema order.
std::vector<std::string> in_schema_order(const DataFrame& schema,
                                         const std::set<std::string>& wanted) {
  std::vector<std::string> out;
  for (std::string& name : schema.column_names()) {
    if (wanted.count(name) != 0) out.push_back(std::move(name));
  }
  return out;
}

/// Post-scan column names the query reads: the group keys and aggregate
/// inputs (count reads none), else the selected columns plus the sort
/// column, else every column.
std::vector<std::string> names_read(const Query& query,
                                    const DataFrame& post_join_schema) {
  if (!query.group_by.empty()) {
    std::vector<std::string> names = query.group_by;
    for (const AggregateTerm& a : query.aggregates) {
      if (a.op != analysis::Agg::kCount) names.push_back(a.column);
    }
    return names;
  }
  if (!query.select.empty()) {
    std::vector<std::string> names = query.select;
    if (query.order_by) names.push_back(query.order_by->column);
    return names;
  }
  return post_join_schema.column_names();
}

/// Fills plan.columns / plan.right_columns: which columns each scanned
/// view must supply for the post-scan names in `read`.
void plan_scan_columns(const Query& query, const std::vector<std::string>& read,
                       const DataFrame& schema, const DataFrame* right_schema,
                       Plan& plan) {
  if (!query.asof_join) {
    plan.columns =
        in_schema_order(schema, std::set<std::string>(read.begin(), read.end()));
    return;
  }
  const AsofJoin& join = *query.asof_join;
  const analysis::AsofSpec spec = asof_spec(join);
  const std::set<std::string> right_by(spec.right_by.begin(),
                                       spec.right_by.end());
  // asof_merge keeps every left column and appends the right's non-by
  // columns, renamed `<name>_right` when the left frame has `<name>`.
  std::map<std::string, std::string> from_right;
  for (const std::string& name : right_schema->column_names()) {
    if (right_by.count(name) != 0) continue;
    from_right[schema.has_column(name) ? name + "_right" : name] = name;
  }
  std::set<std::string> left;
  std::set<std::string> right;
  for (const std::string& name : read) {
    if (schema.has_column(name)) {
      left.insert(name);
    } else if (const auto it = from_right.find(name); it != from_right.end()) {
      right.insert(it->second);
    }
  }
  left.insert(spec.left_on);
  left.insert(spec.left_by.begin(), spec.left_by.end());
  right.insert(spec.right_on);
  right.insert(spec.right_by.begin(), spec.right_by.end());
  if (!spec.right_valid_until.empty()) right.insert(spec.right_valid_until);
  // The merge names a right column `<name>_right` only while the left frame
  // holds `<name>`, so a colliding right column keeps its namesake.
  for (const std::string& name : right) {
    if (right_by.count(name) == 0 && schema.has_column(name)) {
      left.insert(name);
    }
  }
  plan.columns = in_schema_order(schema, left);
  plan.right_columns = in_schema_order(*right_schema, right);
}

}  // namespace

DataFrame apply_predicates(const DataFrame& frame,
                           const std::vector<Predicate>& preds) {
  if (preds.empty()) return frame;
  return frame.filter_mask(predicate_mask(frame, preds));
}

Plan plan_query(const Query& query, const StoreCatalog::Snapshot& snapshot) {
  Plan plan;
  plan.view = view_from_name(query.from);
  const DataFrame& schema = view_schema(plan.view);

  Pushdown push = extract_pushdown(query);
  for (const Predicate& p : push.residual) {
    check_predicate(schema, p, query.from);
  }
  plan.total_runs = snapshot.runs(std::nullopt, std::nullopt).size();
  if (!push.contradiction) {
    plan.runs = snapshot.runs(push.workflow, push.run);
  }

  // Zone-map pruning (segment backend): drop runs whose manifest zone maps
  // prove a residual predicate can never match — before any segment byte
  // is decoded. Sound under asof_join too: right rows of a run only ever
  // match left rows of the same run, so a run with no surviving left rows
  // contributes nothing.
  if (!push.residual.empty()) {
    std::vector<prov::RunId> kept;
    kept.reserve(plan.runs.size());
    for (const prov::RunId& id : plan.runs) {
      const segstore::ChunkMeta* chunk = snapshot.stats(plan.view, id);
      if (chunk != nullptr && !chunk_may_match(*chunk, push.residual)) {
        ++plan.zone_pruned;
        continue;
      }
      kept.push_back(id);
    }
    plan.runs = std::move(kept);
  }

  for (const prov::RunId& id : plan.runs) {
    plan.estimated_rows += snapshot.estimated_rows(plan.view, id);
  }

  // Validate every later stage against the frame it applies to; the scan's
  // column sets derive from the same schemas.
  DataFrame post_join_schema = schema;
  const DataFrame* right_schema = nullptr;
  if (query.asof_join) {
    const AsofJoin& join = *query.asof_join;
    right_schema = &view_schema(view_from_name(join.right_view));
    for (const Predicate& p : join.where) {
      check_predicate(*right_schema, p, join.right_view);
    }
    check_numeric_column(schema, join.left_on, query.from, "asof left_on");
    check_numeric_column(*right_schema, join.right_on, join.right_view,
                         "asof right_on");
    if (!join.right_valid_until.empty()) {
      check_numeric_column(*right_schema, join.right_valid_until,
                           join.right_view, "asof right_valid_until");
    }
    for (const auto& [l, r] : join.by) {
      if (!schema.has_column(l)) {
        throw QueryError("view '" + query.from + "' has no column '" + l +
                         "' (asof by)");
      }
      if (!right_schema->has_column(r)) {
        throw QueryError("view '" + join.right_view + "' has no column '" +
                         r + "' (asof by)");
      }
    }
    // The merge's output schema, computed on the empty schema frames.
    try {
      post_join_schema = schema.asof_merge(*right_schema, asof_spec(join));
    } catch (const analysis::DataFrameError& e) {
      throw QueryError(std::string("asof_join: ") + e.what());
    }
  }

  std::vector<analysis::AggSpec> aggs;
  DataFrame shaped = post_join_schema;  // the frame order_by / select see
  if (!query.group_by.empty()) {
    for (const std::string& k : query.group_by) {
      if (!post_join_schema.has_column(k)) {
        throw QueryError("group_by column '" + k + "' does not exist");
      }
    }
    for (const AggregateTerm& a : query.aggregates) {
      if (!a.column.empty() && !post_join_schema.has_column(a.column)) {
        throw QueryError("aggregate column '" + a.column + "' does not exist");
      }
      const bool numeric_only = a.op == analysis::Agg::kSum ||
                                a.op == analysis::Agg::kMean ||
                                a.op == analysis::Agg::kStd;
      if (numeric_only &&
          post_join_schema.col(a.column).type() == ColumnType::kString) {
        throw QueryError(agg_op_name(a.op) + " needs a numeric column; '" +
                         a.column + "' is a string column");
      }
      aggs.push_back({a.column, a.op, a.as});
    }
    try {
      shaped = post_join_schema.group_by(query.group_by, aggs);
    } catch (const analysis::DataFrameError& e) {
      throw QueryError(std::string("group_by: ") + e.what());
    }
  }
  const char* shape = query.group_by.empty() ? "" : " after group_by";
  if (query.order_by && !shaped.has_column(query.order_by->column)) {
    throw QueryError("order_by column '" + query.order_by->column +
                     "' does not exist" + shape);
  }
  for (std::size_t i = 0; i < query.select.size(); ++i) {
    const std::string& c = query.select[i];
    if (!shaped.has_column(c)) {
      throw QueryError("select column '" + c + "' does not exist" + shape);
    }
    if (std::find(query.select.begin(), query.select.begin() + i, c) !=
        query.select.begin() + i) {
      throw QueryError("select names column '" + c + "' twice");
    }
  }
  plan_scan_columns(query, names_read(query, post_join_schema), schema,
                    right_schema, plan);

  {
    std::string detail = "view=" + query.from + " runs=[" +
                         run_list_display(plan.runs) + "] ~" +
                         std::to_string(plan.estimated_rows) + " rows";
    if (push.notes.empty()) {
      detail += "; no pushdown";
    } else {
      detail += "; pushdown:";
      for (const std::string& note : push.notes) detail += " " + note;
      if (push.contradiction) detail += " (contradictory -> empty scan)";
    }
    if (plan.zone_pruned > 0) {
      detail += "; zone-pruned " + std::to_string(plan.zone_pruned) +
                " runs via column min/max";
    }
    detail += "; columns=[" + list_display(plan.columns) + "]";
    plan.steps.push_back({"scan", detail});
  }
  if (!push.residual.empty()) {
    plan.steps.push_back({"filter", predicates_display(push.residual) +
                                        " (typed columnar mask)"});
  }
  if (query.asof_join) {
    const AsofJoin& join = *query.asof_join;
    std::string by_display;
    for (const auto& [l, r] : join.by) {
      if (!by_display.empty()) by_display += ", ";
      by_display += l + "=" + r;
    }
    std::size_t right_rows = 0;
    for (const prov::RunId& id : plan.runs) {
      right_rows += snapshot.estimated_rows(view_from_name(join.right_view),
                                            id);
    }
    std::string detail = "right=" + join.right_view + " ~" +
                         std::to_string(right_rows) + " rows; on " +
                         join.left_on + " >= right." + join.right_on +
                         "; by [" + by_display + "] + run identity";
    if (!join.where.empty()) {
      detail += "; right filter: " + predicates_display(join.where);
    }
    if (!join.right_valid_until.empty()) {
      detail += "; window until " + join.right_valid_until;
    }
    if (join.tolerance >= 0.0) {
      std::ostringstream tol;
      tol << join.tolerance;
      detail += "; tolerance " + tol.str();
    }
    if (join.keep_unmatched) detail += "; keep_unmatched";
    detail += "; right columns=[" + list_display(plan.right_columns) + "]";
    plan.steps.push_back({"asof_join", detail});
  }
  if (!query.group_by.empty()) {
    std::string agg_display;
    for (const AggregateTerm& a : query.aggregates) {
      if (!agg_display.empty()) agg_display += ", ";
      agg_display += agg_op_name(a.op) + "(" + a.column + ") as " + a.as;
    }
    plan.steps.push_back(
        {"group_by", "keys=[" + list_display(query.group_by) + "]; aggs=[" +
                         agg_display +
                         "] (typed keys: dense code ids or hashed)"});
  }
  if (query.order_by) {
    plan.steps.push_back({"sort", query.order_by->column +
                                      (query.order_by->descending ? " desc"
                                                                  : " asc")});
  }
  if (query.limit) {
    plan.steps.push_back({"limit", std::to_string(*query.limit)});
  }
  if (!query.select.empty()) {
    plan.steps.push_back({"project", "[" + list_display(query.select) + "]"});
  }
  return plan;
}

namespace {

/// Reads one view across the plan's runs, copying only `columns`: each
/// run's memoized frame is masked by `preds` in place, then its surviving
/// rows are appended once, straight into the output columns. String
/// dictionaries merge exactly as DataFrame::concat merged them — the first
/// run's is adopted whole, each later run's entries are interned in
/// dictionary order — which is why every run is visited, even one that
/// keeps no rows.
DataFrame scan_view(ViewId view, const std::vector<prov::RunId>& runs,
                    const std::vector<Predicate>& preds,
                    const std::vector<std::string>& columns,
                    const StoreCatalog::Snapshot& snapshot) {
  std::vector<std::shared_ptr<const DataFrame>> frames;
  std::vector<std::vector<std::size_t>> selections;
  frames.reserve(runs.size());
  selections.reserve(runs.size());
  std::size_t rows = 0;
  for (const prov::RunId& id : runs) {
    frames.push_back(snapshot.frame(view, id));
    const DataFrame& frame = *frames.back();
    if (preds.empty()) {
      rows += frame.rows();
      continue;
    }
    selections.push_back(
        analysis::selected_rows(predicate_mask(frame, preds)));
    rows += selections.back().size();
  }
  const DataFrame& schema = view_schema(view);
  std::vector<analysis::Column> out;
  out.reserve(columns.size());
  for (const std::string& name : columns) {
    analysis::Column& dst = out.emplace_back(name, schema.col(name).type());
    dst.reserve(rows);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const analysis::Column& src = frames[i]->col(name);
      if (preds.empty()) {
        dst.append_slice(src, 0, src.size());
      } else {
        dst.gather(src, selections[i]);
      }
    }
  }
  return DataFrame::from_columns(std::move(out));
}

DataFrame run_plan(const Query& query, const Plan& plan,
                   const StoreCatalog::Snapshot& snapshot) {
  const Pushdown push = extract_pushdown(query);
  DataFrame current = scan_view(plan.view, plan.runs, push.residual,
                                plan.columns, snapshot);

  if (query.asof_join) {
    const AsofJoin& join = *query.asof_join;
    const DataFrame right =
        scan_view(view_from_name(join.right_view), plan.runs, join.where,
                  plan.right_columns, snapshot);
    current = current.asof_merge(right, asof_spec(join));
  }

  if (!query.group_by.empty()) {
    std::vector<analysis::AggSpec> aggs;
    aggs.reserve(query.aggregates.size());
    for (const AggregateTerm& a : query.aggregates) {
      aggs.push_back({a.column, a.op, a.as});
    }
    current = current.group_by(query.group_by, aggs);
  }
  if (query.order_by) {
    current = current.sort_by(
        query.order_by->column, !query.order_by->descending,
        query.limit ? static_cast<std::size_t>(*query.limit)
                    : DataFrame::kAllRows);
  } else if (query.limit) {
    current = current.head(static_cast<std::size_t>(*query.limit));
  }
  if (!query.select.empty()) {
    current = current.select(query.select);
  }
  return current;
}

}  // namespace

ExecutionResult execute_query(const Query& query, const StoreCatalog& catalog,
                              ResultCache* cache) {
  const std::string key = fingerprint(query);
  const StoreCatalog::Snapshot snapshot = catalog.snapshot();
  if (cache != nullptr) {
    if (auto hit = cache->get(key, snapshot)) {
      return {std::move(hit), snapshot.epoch(), true};
    }
  }
  const Plan plan = plan_query(query, snapshot);
  try {
    auto frame = std::make_shared<const DataFrame>(
        run_plan(query, plan, snapshot));
    if (cache != nullptr) cache->put(key, snapshot, frame);
    return {std::move(frame), snapshot.epoch(), false};
  } catch (const analysis::DataFrameError& e) {
    throw QueryError(std::string("execution failed: ") + e.what());
  }
}

}  // namespace recup::query
