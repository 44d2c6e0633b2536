#include "queries.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>
#include <stdexcept>

namespace perfbench {

namespace {

using recup::prov::RunId;

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& options) {
  return options[rng.below(options.size())];
}

/// Optional workflow / run pushdown.
struct Scope {
  std::optional<std::string> workflow;
  std::optional<std::uint32_t> run;

  [[nodiscard]] std::string fields() const {
    std::string out;
    if (workflow) out += R"("workflow": ")" + *workflow + R"(", )";
    if (run) out += R"("run": )" + std::to_string(*run) + ", ";
    return out;
  }
};

std::vector<std::string> workflows_of(const std::vector<RunId>& runs) {
  std::vector<std::string> out;
  for (const RunId& id : runs) {
    if (std::find(out.begin(), out.end(), id.workflow) == out.end()) {
      out.push_back(id.workflow);
    }
  }
  return out;
}

/// Scope strata: {every workflow, each workflow} x {every run, one run}.
std::size_t scope_strata(const std::vector<RunId>& runs) {
  return (workflows_of(runs).size() + 1) * 2;
}

/// The scope of `stratum`; the run index inside a one-run stratum is drawn.
Scope scope_for(Rng& rng, const std::vector<RunId>& runs,
                std::size_t stratum) {
  const std::vector<std::string> workflows = workflows_of(runs);
  Scope scope;
  const std::size_t w = stratum % (workflows.size() + 1);
  if (w > 0) scope.workflow = workflows[w - 1];
  if ((stratum / (workflows.size() + 1)) % 2 == 1) {
    std::vector<std::uint32_t> indices;
    for (const RunId& id : runs) {
      if (!scope.workflow || id.workflow == *scope.workflow) {
        indices.push_back(id.run_index);
      }
    }
    if (!indices.empty()) scope.run = pick(rng, indices);
  }
  return scope;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  std::string s = buf;
  // Keep JSON doubles typed as doubles.
  if (s.find_first_of(".e") == std::string::npos) s += ".0";
  return s;
}

std::string text_for(const std::string& tmpl, Rng& rng, const Scope& s) {
  const std::vector<int> limits = {5, 10, 20, 50};
  if (tmpl == "prefix_breakdown") {  // Fig. 6
    return R"({"from": "tasks", )" + s.fields() +
           R"("group_by": ["prefix"], "aggregates": [)"
           R"({"col": "key", "op": "count", "as": "n"}, )"
           R"({"col": "duration", "op": "mean", "as": "mean_s"}, )"
           R"({"col": "io_time", "op": "sum", "as": "io_s"}], )"
           R"("order_by": {"col": "mean_s", "desc": true}, "limit": )" +
           std::to_string(pick(rng, limits)) + "}";
  }
  if (tmpl == "run_totals") {
    return R"({"from": "tasks", )" + s.fields() +
           R"("where": [{"col": "duration", "op": ">=", "value": )" +
           num(pick(rng, std::vector<double>{0.0, 0.01, 0.1, 1.0})) +
           R"(}], "group_by": ["workflow", "run"], "aggregates": [)"
           R"({"col": "key", "op": "count", "as": "tasks"}, )"
           R"({"col": "duration", "op": "sum", "as": "busy_s"}, )"
           R"({"col": "worker", "op": "count_distinct", "as": "workers"}], )"
           R"("order_by": {"col": "run"}})";
  }
  if (tmpl == "transition_states") {
    return R"({"from": "transitions", )" + s.fields() +
           R"("where": [{"col": "time", "op": ">=", "value": )" +
           num(pick(rng, std::vector<double>{0.0, 1.0, 10.0, 100.0})) +
           R"(}], "group_by": ["from", "to"], "aggregates": [)"
           R"({"col": "key", "op": "count", "as": "n"}, )"
           R"({"col": "key", "op": "count_distinct", "as": "keys"}], )"
           R"("order_by": {"col": "n", "desc": true}})";
  }
  if (tmpl == "task_io_hotfiles") {  // Fig. 8
    return R"({"from": "task_io", )" + s.fields() +
           R"("where": [{"col": "length", "op": ">=", "value": )" +
           std::to_string(pick(rng, std::vector<int>{0, 4096, 1048576})) +
           R"(}], "group_by": ["file", "op"], "aggregates": [)"
           R"({"col": "duration", "op": "sum", "as": "total_s"}, )"
           R"({"col": "task_key", "op": "count_distinct", "as": "tasks"}], )"
           R"("order_by": {"col": "total_s", "desc": true}, "limit": )" +
           std::to_string(pick(rng, limits)) + "}";
  }
  if (tmpl == "slow_tasks") {
    return R"({"from": "tasks", )" + s.fields() +
           R"("where": [{"col": "duration", "op": ">", "value": )" +
           num(pick(rng, std::vector<double>{0.05, 0.5, 2.0, 10.0})) +
           R"(}], "order_by": {"col": "duration", "desc": true}, "limit": )" +
           std::to_string(pick(rng, limits)) +
           R"(, "select": ["workflow", "run", "key", "prefix", "worker", )"
           R"("duration"]})";
  }
  if (tmpl == "comm_scatter") {  // Fig. 5
    return R"({"from": "comms", )" + s.fields() +
           R"("where": [{"col": "bytes", "op": ">=", "value": )" +
           std::to_string(pick(rng, std::vector<int>{0, 65536, 8388608})) +
           R"(}], "group_by": ["source", "destination"], "aggregates": [)"
           R"({"col": "bytes", "op": "sum", "as": "total_bytes"}, )"
           R"({"col": "duration", "op": "mean", "as": "mean_s"}, )"
           R"({"col": "key", "op": "count", "as": "n"}], )"
           R"("order_by": {"col": "total_bytes", "desc": true}, "limit": )" +
           std::to_string(pick(rng, limits)) + "}";
  }
  if (tmpl == "warnings_by_worker") {  // Fig. 7
    return R"({"from": "warnings", )" + s.fields() +
           R"("where": [{"col": "blocked_for", "op": ">=", "value": )" +
           num(pick(rng, std::vector<double>{0.0, 1.0, 5.0})) +
           R"(}], "group_by": ["location", "kind"], "aggregates": [)"
           R"({"col": "time", "op": "count", "as": "n"}, )"
           R"({"col": "blocked_for", "op": "sum", "as": "blocked_s"}], )"
           R"("order_by": {"col": "n", "desc": true}})";
  }
  if (tmpl == "io_asof") {  // Darshan segments fused onto tasks
    return R"({"from": "io_segments", )" + s.fields() +
           R"("where": [{"col": "length", "op": ">=", "value": )" +
           std::to_string(pick(rng, std::vector<int>{0, 65536, 1048576})) +
           R"(}], "asof_join": {"right": "tasks", "left_on": "start", )"
           R"("right_on": "start_time", "by": [["thread_id", "thread_id"]], )"
           R"("right_valid_until": "end_time"}, "group_by": ["prefix"], )"
           R"("aggregates": [{"col": "length", "op": "sum", "as": "bytes"}, )"
           R"({"col": "length", "op": "count", "as": "ops"}], )"
           R"("order_by": {"col": "bytes", "desc": true}})";
  }
  throw std::invalid_argument("unknown query template: " + tmpl);
}

}  // namespace

const std::vector<std::string>& template_names() {
  static const std::vector<std::string> kNames = {
      "prefix_breakdown", "run_totals",   "transition_states",
      "task_io_hotfiles", "slow_tasks",   "comm_scatter",
      "warnings_by_worker", "io_asof"};
  return kNames;
}

namespace {

/// One instance of `tmpl` with the scope of `stratum`; thresholds and
/// limits are drawn.
QuerySpec draw_query(const std::string& tmpl, Rng& rng,
                     const std::vector<RunId>& runs, std::size_t stratum) {
  QuerySpec spec;
  spec.tmpl = tmpl;
  spec.text = text_for(tmpl, rng, scope_for(rng, runs, stratum));
  spec.ir = recup::query::parse_query(spec.text);
  spec.fingerprint = recup::query::fingerprint(spec.ir);
  return spec;
}

}  // namespace

std::vector<QuerySpec> make_pool(std::uint64_t seed, std::size_t count,
                                 const std::vector<RunId>& runs,
                                 bool pin_to_run) {
  Rng rng(derive_seed(seed, 0x706f6f6c));  // "pool"
  const auto& names = template_names();
  const std::size_t strata = scope_strata(runs);
  std::vector<QuerySpec> pool;
  std::set<std::string> seen;
  for (std::size_t slot = 0; slot < count; ++slot) {
    const std::string& tmpl = names[slot % names.size()];
    // The last stratum scopes every query to one workflow's single run.
    const std::size_t stratum =
        pin_to_run ? strata - 1 : (slot / names.size()) % strata;
    // Bounded redraws: a small catalog offers few distinct instances.
    for (int attempt = 0; attempt < 64; ++attempt) {
      QuerySpec spec = draw_query(tmpl, rng, runs, stratum);
      if (seen.insert(spec.fingerprint).second) {
        pool.push_back(std::move(spec));
        break;
      }
    }
  }
  return pool;
}

std::vector<std::size_t> make_session(std::uint64_t seed, std::size_t session,
                                      std::size_t pool_size,
                                      std::size_t length) {
  Rng rng(derive_seed(seed, 0x73657373ULL + (session << 32)));  // "sess"
  std::vector<std::size_t> fresh(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) fresh[i] = i;
  std::vector<std::size_t> drawn;
  std::vector<std::size_t> out;
  out.reserve(length);
  for (std::size_t i = 0; i < length && pool_size > 0; ++i) {
    if (fresh.empty() || (!drawn.empty() && rng.chance(0.5))) {
      out.push_back(drawn[rng.below(drawn.size())]);
      continue;
    }
    const std::size_t k = rng.below(fresh.size());
    out.push_back(fresh[k]);
    drawn.push_back(fresh[k]);
    fresh[k] = fresh.back();
    fresh.pop_back();
  }
  return out;
}

void SequenceDigest::add(const QuerySpec& q) {
  for (const char c : q.fingerprint + "\n") {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ULL;
  }
}

std::string SequenceDigest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

}  // namespace perfbench
