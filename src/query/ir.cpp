#include "query/ir.hpp"

#include <string_view>
#include <utility>

namespace recup::query {

namespace {

CmpOp parse_cmp_op(const std::string& name) {
  if (name == "==") return CmpOp::kEq;
  if (name == "!=") return CmpOp::kNe;
  if (name == "<") return CmpOp::kLt;
  if (name == "<=") return CmpOp::kLe;
  if (name == ">") return CmpOp::kGt;
  if (name == ">=") return CmpOp::kGe;
  if (name == "contains") return CmpOp::kContains;
  throw QueryError("unknown predicate op '" + name +
                   "' (expected ==, !=, <, <=, >, >=, contains)");
}

analysis::Agg parse_agg_op(const std::string& name) {
  if (name == "sum") return analysis::Agg::kSum;
  if (name == "mean") return analysis::Agg::kMean;
  if (name == "count") return analysis::Agg::kCount;
  if (name == "min") return analysis::Agg::kMin;
  if (name == "max") return analysis::Agg::kMax;
  if (name == "std") return analysis::Agg::kStd;
  if (name == "first") return analysis::Agg::kFirst;
  if (name == "count_distinct") return analysis::Agg::kCountDistinct;
  throw QueryError("unknown aggregate op '" + name +
                   "' (expected sum, mean, count, min, max, std, first, "
                   "count_distinct)");
}

analysis::Cell parse_value(const json::Value& v, const std::string& where) {
  if (v.is_int()) return v.as_int();
  if (v.is_double()) return v.as_double();
  if (v.is_string()) return v.as_string();
  if (v.is_bool()) return static_cast<std::int64_t>(v.as_bool() ? 1 : 0);
  throw QueryError(where + ": predicate value must be a number or string");
}

std::string require_string(const json::Value& obj, const std::string& key,
                           const std::string& where) {
  if (!obj.contains(key)) {
    throw QueryError(where + ": missing required field \"" + key + "\"");
  }
  const json::Value& v = obj.at(key);
  if (!v.is_string() || v.as_string().empty()) {
    throw QueryError(where + ": field \"" + key +
                     "\" must be a non-empty string");
  }
  return v.as_string();
}

std::vector<Predicate> parse_predicates(const json::Value& arr,
                                        const std::string& where) {
  if (!arr.is_array()) {
    throw QueryError(where + ": \"where\" must be an array of predicates");
  }
  std::vector<Predicate> out;
  out.reserve(arr.size());
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const json::Value& p = arr.at(i);
    const std::string ctx = where + "[" + std::to_string(i) + "]";
    if (!p.is_object()) throw QueryError(ctx + ": predicate must be an object");
    Predicate pred;
    pred.column = require_string(p, "col", ctx);
    pred.op = parse_cmp_op(require_string(p, "op", ctx));
    if (!p.contains("value")) {
      throw QueryError(ctx + ": missing required field \"value\"");
    }
    pred.value = parse_value(p.at("value"), ctx);
    if (pred.op == CmpOp::kContains &&
        !std::holds_alternative<std::string>(pred.value)) {
      throw QueryError(ctx + ": \"contains\" needs a string value");
    }
    out.push_back(std::move(pred));
  }
  return out;
}

/// Separates a member or element from the one before it; the first one
/// follows the '{' or '[' that opened its container.
void separate(std::string& out) {
  if (out.back() != '{' && out.back() != '[') out += ',';
}

void put_key(std::string& out, std::string_view key) {
  separate(out);
  json::write_string(out, key);
  out += ':';
}

void put_string(std::string& out, std::string_view key,
                std::string_view value) {
  put_key(out, key);
  json::write_string(out, value);
}

void put_strings(std::string& out, const std::vector<std::string>& items) {
  out += '[';
  for (const std::string& item : items) {
    separate(out);
    json::write_string(out, item);
  }
  out += ']';
}

void put_predicates(std::string& out, const std::vector<Predicate>& preds) {
  out += '[';
  for (const Predicate& p : preds) {
    separate(out);
    out += '{';
    put_string(out, "col", p.column);
    put_string(out, "op", cmp_op_name(p.op));
    put_key(out, "value");
    if (const auto* i = std::get_if<std::int64_t>(&p.value)) {
      json::write_int(out, *i);
    } else if (const auto* d = std::get_if<double>(&p.value)) {
      json::write_double(out, *d);
    } else {
      json::write_string(out, std::get<std::string>(p.value));
    }
    out += '}';
  }
  out += ']';
}

}  // namespace

std::string cmp_op_name(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "==";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
    case CmpOp::kContains: return "contains";
  }
  return "?";
}

std::string agg_op_name(analysis::Agg op) {
  switch (op) {
    case analysis::Agg::kSum: return "sum";
    case analysis::Agg::kMean: return "mean";
    case analysis::Agg::kCount: return "count";
    case analysis::Agg::kMin: return "min";
    case analysis::Agg::kMax: return "max";
    case analysis::Agg::kStd: return "std";
    case analysis::Agg::kFirst: return "first";
    case analysis::Agg::kCountDistinct: return "count_distinct";
  }
  return "?";
}

Query parse_query(const json::Value& doc) {
  if (!doc.is_object()) throw QueryError("query must be a JSON object");
  static const char* kKnown[] = {"from",       "workflow",  "run",
                                 "where",      "asof_join", "group_by",
                                 "aggregates", "order_by",  "limit",
                                 "select"};
  for (const auto& [key, value] : doc.as_object()) {
    bool known = false;
    for (const char* k : kKnown) known = known || key == k;
    if (!known) throw QueryError("unknown query field \"" + key + "\"");
  }

  Query q;
  q.from = require_string(doc, "from", "query");
  if (doc.contains("workflow")) {
    const json::Value& w = doc.at("workflow");
    if (!w.is_string()) throw QueryError("\"workflow\" must be a string");
    q.workflow = w.as_string();
  }
  if (doc.contains("run")) {
    const json::Value& r = doc.at("run");
    if (!r.is_int() || r.as_int() < 0) {
      throw QueryError("\"run\" must be a non-negative integer");
    }
    q.run = r.as_int();
  }
  if (doc.contains("where")) {
    q.where = parse_predicates(doc.at("where"), "where");
  }

  if (doc.contains("asof_join")) {
    const json::Value& j = doc.at("asof_join");
    if (!j.is_object()) throw QueryError("\"asof_join\" must be an object");
    AsofJoin join;
    join.right_view = require_string(j, "right", "asof_join");
    join.left_on = require_string(j, "left_on", "asof_join");
    join.right_on = require_string(j, "right_on", "asof_join");
    if (j.contains("by")) {
      const json::Value& by = j.at("by");
      if (!by.is_array()) {
        throw QueryError("asof_join: \"by\" must be an array of column pairs");
      }
      for (std::size_t i = 0; i < by.size(); ++i) {
        const json::Value& pair = by.at(i);
        if (!pair.is_array() || pair.size() != 2 ||
            !pair.at(std::size_t{0}).is_string() ||
            !pair.at(std::size_t{1}).is_string()) {
          throw QueryError("asof_join: \"by\" entries must be "
                           "[left_col, right_col] string pairs");
        }
        join.by.emplace_back(pair.at(std::size_t{0}).as_string(),
                             pair.at(std::size_t{1}).as_string());
      }
    }
    if (j.contains("right_valid_until")) {
      join.right_valid_until =
          require_string(j, "right_valid_until", "asof_join");
    }
    if (j.contains("tolerance")) {
      const json::Value& t = j.at("tolerance");
      if (!t.is_number()) {
        throw QueryError("asof_join: \"tolerance\" must be a number");
      }
      join.tolerance = t.as_double();
    }
    join.keep_unmatched = j.get_bool("keep_unmatched", false);
    if (j.contains("where")) {
      join.where = parse_predicates(j.at("where"), "asof_join.where");
    }
    q.asof_join = std::move(join);
  }

  if (doc.contains("group_by")) {
    const json::Value& g = doc.at("group_by");
    if (!g.is_array() || g.size() == 0) {
      throw QueryError("\"group_by\" must be a non-empty array of columns");
    }
    for (std::size_t i = 0; i < g.size(); ++i) {
      if (!g.at(i).is_string()) {
        throw QueryError("\"group_by\" entries must be strings");
      }
      q.group_by.push_back(g.at(i).as_string());
    }
  }
  if (doc.contains("aggregates")) {
    const json::Value& aggs = doc.at("aggregates");
    if (!aggs.is_array()) throw QueryError("\"aggregates\" must be an array");
    for (std::size_t i = 0; i < aggs.size(); ++i) {
      const json::Value& a = aggs.at(i);
      const std::string ctx = "aggregates[" + std::to_string(i) + "]";
      if (!a.is_object()) throw QueryError(ctx + ": must be an object");
      AggregateTerm term;
      term.op = parse_agg_op(require_string(a, "op", ctx));
      term.as = require_string(a, "as", ctx);
      if (a.contains("col")) {
        if (!a.at("col").is_string()) {
          throw QueryError(ctx + ": \"col\" must be a string");
        }
        term.column = a.at("col").as_string();
      }
      if (term.column.empty() && term.op != analysis::Agg::kCount) {
        throw QueryError(ctx + ": \"col\" is required for op \"" +
                         agg_op_name(term.op) + "\"");
      }
      q.aggregates.push_back(std::move(term));
    }
  }
  if (q.aggregates.empty() != q.group_by.empty()) {
    throw QueryError("\"group_by\" and \"aggregates\" must be used together");
  }

  if (doc.contains("order_by")) {
    const json::Value& o = doc.at("order_by");
    if (!o.is_object()) throw QueryError("\"order_by\" must be an object");
    OrderBy order;
    order.column = require_string(o, "col", "order_by");
    order.descending = o.get_bool("desc", false);
    q.order_by = order;
  }
  if (doc.contains("limit")) {
    const json::Value& l = doc.at("limit");
    if (!l.is_int() || l.as_int() < 0) {
      throw QueryError("\"limit\" must be a non-negative integer");
    }
    q.limit = l.as_int();
  }
  if (doc.contains("select")) {
    const json::Value& s = doc.at("select");
    if (!s.is_array() || s.size() == 0) {
      throw QueryError("\"select\" must be a non-empty array of columns");
    }
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (!s.at(i).is_string()) {
        throw QueryError("\"select\" entries must be strings");
      }
      q.select.push_back(s.at(i).as_string());
    }
  }
  return q;
}

Query parse_query(const std::string& text) {
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const json::ParseError& e) {
    throw QueryError(std::string("query is not valid JSON: ") + e.what());
  }
  return parse_query(doc);
}

std::string fingerprint(const Query& query) {
  // Members in key byte order, as json::Value::dump() writes an object.
  std::string out = "{";
  if (!query.group_by.empty()) {
    put_key(out, "aggregates");
    out += '[';
    for (const AggregateTerm& a : query.aggregates) {
      separate(out);
      out += '{';
      put_string(out, "as", a.as);
      if (!a.column.empty()) put_string(out, "col", a.column);
      put_string(out, "op", agg_op_name(a.op));
      out += '}';
    }
    out += ']';
  }
  if (query.asof_join) {
    const AsofJoin& j = *query.asof_join;
    put_key(out, "asof_join");
    out += '{';
    if (!j.by.empty()) {
      put_key(out, "by");
      out += '[';
      for (const auto& [l, r] : j.by) {
        separate(out);
        put_strings(out, {l, r});
      }
      out += ']';
    }
    if (j.keep_unmatched) {
      put_key(out, "keep_unmatched");
      out += "true";
    }
    put_string(out, "left_on", j.left_on);
    put_string(out, "right", j.right_view);
    put_string(out, "right_on", j.right_on);
    if (!j.right_valid_until.empty()) {
      put_string(out, "right_valid_until", j.right_valid_until);
    }
    if (j.tolerance >= 0.0) {
      put_key(out, "tolerance");
      json::write_double(out, j.tolerance);
    }
    if (!j.where.empty()) {
      put_key(out, "where");
      put_predicates(out, j.where);
    }
    out += '}';
  }
  put_string(out, "from", query.from);
  if (!query.group_by.empty()) {
    put_key(out, "group_by");
    put_strings(out, query.group_by);
  }
  if (query.limit) {
    put_key(out, "limit");
    json::write_int(out, *query.limit);
  }
  if (query.order_by) {
    put_key(out, "order_by");
    out += '{';
    put_string(out, "col", query.order_by->column);
    if (query.order_by->descending) out += ",\"desc\":true";
    out += '}';
  }
  if (query.run) {
    put_key(out, "run");
    json::write_int(out, *query.run);
  }
  if (!query.select.empty()) {
    put_key(out, "select");
    put_strings(out, query.select);
  }
  if (!query.where.empty()) {
    put_key(out, "where");
    put_predicates(out, query.where);
  }
  if (query.workflow) put_string(out, "workflow", *query.workflow);
  out += '}';
  return out;
}

}  // namespace recup::query
