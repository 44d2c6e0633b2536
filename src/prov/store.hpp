// Run identity in the provenance store (paper §V): every run is keyed by its
// workflow name and run index, the identifiers the query service's
// StoreCatalog prunes on.
#pragma once

#include <cstdint>
#include <string>

namespace recup::prov {

struct RunId {
  std::string workflow;
  std::uint32_t run_index = 0;
  auto operator<=>(const RunId&) const = default;
};

}  // namespace recup::prov
