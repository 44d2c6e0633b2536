// FaultPlan serialization + canned plans. A failing chaos run is captured
// as (seed, plan JSON); feeding the JSON back through from_json replays the
// identical fault schedule.
#include <sstream>

#include "chaos/fault.hpp"
#include "common/strings.hpp"

namespace recup::chaos {

namespace {

json::Value site_to_json(const SiteSpec& spec) {
  json::Object o;
  o["drop"] = spec.drop;
  o["duplicate"] = spec.duplicate;
  o["reorder"] = spec.reorder;
  o["delay"] = spec.delay;
  o["transient_error"] = spec.transient_error;
  o["partition_unavailable"] = spec.partition_unavailable;
  o["thread_kill"] = spec.thread_kill;
  o["process_crash_restart"] = spec.process_crash_restart;
  o["delay_min_us"] = static_cast<std::int64_t>(spec.delay_min.count());
  o["delay_max_us"] = static_cast<std::int64_t>(spec.delay_max.count());
  o["unavailable_hits"] = spec.unavailable_hits;
  if (!spec.schedule.empty()) {
    json::Array schedule;
    for (const ScheduledFault& s : spec.schedule) {
      json::Object entry;
      entry["at_hit"] = s.at_hit;
      entry["action"] = std::string(to_string(s.action));
      schedule.push_back(json::Value(std::move(entry)));
    }
    o["schedule"] = std::move(schedule);
  }
  return json::Value(std::move(o));
}

SiteSpec site_from_json(const json::Value& v) {
  SiteSpec spec;
  spec.drop = v.get_double("drop", 0.0);
  spec.duplicate = v.get_double("duplicate", 0.0);
  spec.reorder = v.get_double("reorder", 0.0);
  spec.delay = v.get_double("delay", 0.0);
  spec.transient_error = v.get_double("transient_error", 0.0);
  spec.partition_unavailable = v.get_double("partition_unavailable", 0.0);
  spec.thread_kill = v.get_double("thread_kill", 0.0);
  spec.process_crash_restart = v.get_double("process_crash_restart", 0.0);
  spec.delay_min = std::chrono::microseconds(
      static_cast<std::int64_t>(v.get_double("delay_min_us", 50)));
  spec.delay_max = std::chrono::microseconds(
      static_cast<std::int64_t>(v.get_double("delay_max_us", 500)));
  spec.unavailable_hits =
      static_cast<std::uint64_t>(v.get_double("unavailable_hits", 6));
  if (v.contains("schedule")) {
    for (const auto& entry : v.at("schedule").as_array()) {
      ScheduledFault s;
      s.at_hit = static_cast<std::uint64_t>(entry.at("at_hit").as_int());
      s.action = action_from_string(entry.at("action").as_string());
      spec.schedule.push_back(s);
    }
  }
  return spec;
}

}  // namespace

json::Value FaultPlan::to_json() const {
  json::Object o;
  o["seed"] = seed;
  json::Object site_map;
  for (const auto& [name, spec] : sites) site_map[name] = site_to_json(spec);
  o["sites"] = json::Value(std::move(site_map));
  return json::Value(std::move(o));
}

FaultPlan FaultPlan::from_json(const json::Value& v) {
  FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(v.at("seed").as_int());
  for (const auto& [name, spec] : v.at("sites").as_object()) {
    plan.sites[name] = site_from_json(spec);
  }
  return plan;
}

std::string FaultPlan::describe() const {
  std::ostringstream out;
  out << "FaultPlan{seed=" << seed;
  for (const auto& [name, spec] : sites) {
    out << " " << name << "{";
    bool first = true;
    const auto emit = [&](const char* label, double p) {
      if (p <= 0.0) return;
      if (!first) out << ",";
      out << label << "=" << format_double(p, 3);
      first = false;
    };
    emit("drop", spec.drop);
    emit("dup", spec.duplicate);
    emit("reorder", spec.reorder);
    emit("delay", spec.delay);
    emit("err", spec.transient_error);
    emit("unavail", spec.partition_unavailable);
    emit("kill", spec.thread_kill);
    emit("crash", spec.process_crash_restart);
    if (!spec.schedule.empty()) {
      if (!first) out << ",";
      out << "scheduled=" << spec.schedule.size();
    }
    out << "}";
  }
  out << "}";
  return out.str();
}

FaultPlan FaultPlan::randomized_transport(std::uint64_t seed,
                                          double intensity) {
  // Derive per-site intensities from the seed so different seeds exercise
  // different fault mixes, while every transport fault kind stays present.
  RngStream rng = RngStream(seed).substream("chaos-plan");
  const auto jitter = [&rng, intensity] {
    return intensity * rng.uniform(0.5, 1.5);
  };
  FaultPlan plan;
  plan.seed = seed;

  SiteSpec push;
  push.drop = jitter();
  push.duplicate = jitter();  // append lands, ack lost
  push.reorder = jitter();    // lost-then-retried: arrival displaced
  push.transient_error = jitter();
  push.partition_unavailable = intensity * 0.2;
  push.unavailable_hits = 3;
  push.delay = jitter() * 0.2;
  push.delay_min = std::chrono::microseconds(10);
  push.delay_max = std::chrono::microseconds(200);
  plan.sites[sites::kMofkaPush] = push;

  SiteSpec pull;
  pull.drop = jitter();  // event transiently invisible
  pull.delay = jitter() * 0.2;
  pull.delay_min = std::chrono::microseconds(10);
  pull.delay_max = std::chrono::microseconds(200);
  plan.sites[sites::kMofkaConsumerPull] = pull;

  return plan;
}

FaultPlan FaultPlan::randomized_datastore(std::uint64_t seed,
                                          double intensity) {
  RngStream rng = RngStream(seed).substream("chaos-datastore-plan");
  const auto jitter = [&rng, intensity] {
    return intensity * rng.uniform(0.5, 1.5);
  };
  FaultPlan plan;
  plan.seed = seed;

  SiteSpec fetch;
  fetch.drop = jitter();             // request/response frame lost
  fetch.reorder = jitter();          // response truncated in transit
  fetch.transient_error = jitter();  // source shard transiently refuses
  plan.sites[sites::kDatastoreFetch] = fetch;

  return plan;
}

}  // namespace recup::chaos
