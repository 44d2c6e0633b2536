#include "common/durability.hpp"

namespace recup {

namespace {

std::string component_dir(const std::string& root, const char* name) {
  if (root.empty()) return {};
  return root + "/" + name;
}

}  // namespace

std::string DurabilityConfig::broker_dir() const {
  return component_dir(dir, "broker");
}

std::string DurabilityConfig::scheduler_dir() const {
  return component_dir(dir, "scheduler");
}

std::string DurabilityConfig::ingest_dir() const {
  return component_dir(dir, "ingest");
}

std::string DurabilityConfig::segstore_dir() const {
  return component_dir(dir, "segstore");
}

}  // namespace recup
