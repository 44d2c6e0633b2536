#include "common/durability.hpp"

#include <utility>

namespace recup {

namespace {

std::string sync_to_string(wal::SyncPolicy sync) {
  return sync == wal::SyncPolicy::kOnAppend ? "on_append" : "none";
}

wal::SyncPolicy sync_from_string(const std::string& s,
                                 wal::SyncPolicy fallback) {
  if (s == "on_append") return wal::SyncPolicy::kOnAppend;
  if (s == "none") return wal::SyncPolicy::kNone;
  return fallback;
}

void parse_wal(const json::Value& v, wal::WalOptions* wal) {
  if (!v.is_object()) return;
  wal->segment_bytes = static_cast<std::uint64_t>(
      v.get_int("segment_bytes",
                static_cast<std::int64_t>(wal->segment_bytes)));
  wal->sync = sync_from_string(v.get_string("sync", ""), wal->sync);
}

void parse_component(const json::Value& v,
                     DurabilityConfig::Component* component) {
  if (!v.is_object()) return;
  component->dir = v.get_string("dir", component->dir);
  if (v.contains("wal")) parse_wal(v.at("wal"), &component->wal);
}

json::Value wal_to_json(const wal::WalOptions& wal) {
  json::Object o;
  o["segment_bytes"] = json::Value(static_cast<std::int64_t>(wal.segment_bytes));
  o["sync"] = json::Value(sync_to_string(wal.sync));
  return json::Value(std::move(o));
}

json::Object component_to_json(const DurabilityConfig::Component& component) {
  json::Object o;
  o["dir"] = json::Value(component.dir);
  o["wal"] = wal_to_json(component.wal);
  return o;
}

}  // namespace

std::string DurabilityConfig::component_dir(const Component& component,
                                            const char* name) const {
  if (!component.dir.empty()) return component.dir;
  if (dir.empty()) return {};
  return dir + "/" + name;
}

std::string DurabilityConfig::broker_dir() const {
  return component_dir(broker, "broker");
}

std::string DurabilityConfig::scheduler_dir() const {
  return component_dir(scheduler, "scheduler");
}

std::string DurabilityConfig::ingest_dir() const {
  return component_dir(ingest, "ingest");
}

std::string DurabilityConfig::segstore_dir() const {
  return component_dir(segstore, "segstore");
}

DurabilityConfig durability_from_json(const json::Value& v) {
  DurabilityConfig c;
  if (!v.is_object()) return c;

  c.dir = v.get_string("dir", "");

  if (v.contains("broker")) parse_component(v.at("broker"), &c.broker);
  if (v.contains("scheduler")) {
    const json::Value& s = v.at("scheduler");
    parse_component(s, &c.scheduler);
    if (s.is_object()) {
      c.scheduler.checkpoint_every = static_cast<std::size_t>(s.get_int(
          "checkpoint_every",
          static_cast<std::int64_t>(c.scheduler.checkpoint_every)));
      c.scheduler.compact_on_checkpoint = s.get_bool(
          "compact_on_checkpoint", c.scheduler.compact_on_checkpoint);
    }
  }
  if (v.contains("ingest")) parse_component(v.at("ingest"), &c.ingest);
  if (v.contains("segstore")) {
    const json::Value& s = v.at("segstore");
    parse_component(s, &c.segstore);
    if (s.is_object()) {
      c.segstore.compact_min_segments = static_cast<std::size_t>(s.get_int(
          "compact_min_segments",
          static_cast<std::int64_t>(c.segstore.compact_min_segments)));
      c.segstore.compact_max_bytes = static_cast<std::uint64_t>(s.get_int(
          "compact_max_bytes",
          static_cast<std::int64_t>(c.segstore.compact_max_bytes)));
      c.segstore.verify_on_open =
          s.get_bool("verify_on_open", c.segstore.verify_on_open);
      c.segstore.mmap_reads = s.get_bool("mmap_reads", c.segstore.mmap_reads);
    }
  }

  return c;
}

json::Value to_json(const DurabilityConfig& config) {
  json::Object o;
  o["dir"] = json::Value(config.dir);
  o["broker"] = json::Value(component_to_json(config.broker));

  json::Object scheduler = component_to_json(config.scheduler);
  scheduler["checkpoint_every"] = json::Value(
      static_cast<std::int64_t>(config.scheduler.checkpoint_every));
  scheduler["compact_on_checkpoint"] =
      json::Value(config.scheduler.compact_on_checkpoint);
  o["scheduler"] = json::Value(std::move(scheduler));

  o["ingest"] = json::Value(component_to_json(config.ingest));

  json::Object segstore = component_to_json(config.segstore);
  segstore["compact_min_segments"] = json::Value(
      static_cast<std::int64_t>(config.segstore.compact_min_segments));
  segstore["compact_max_bytes"] = json::Value(
      static_cast<std::int64_t>(config.segstore.compact_max_bytes));
  segstore["verify_on_open"] = json::Value(config.segstore.verify_on_open);
  segstore["mmap_reads"] = json::Value(config.segstore.mmap_reads);
  o["segstore"] = json::Value(std::move(segstore));

  return json::Value(std::move(o));
}

}  // namespace recup
