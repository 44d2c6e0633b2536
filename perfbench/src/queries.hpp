// Paper-shaped query templates and the seeded generators that draw from
// them: a pool of distinct queries, analysis sessions over that pool in
// which about half the draws repeat an earlier fingerprint, and the fixed
// set (one instance per template) used by the output checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "prov/store.hpp"
#include "query/ir.hpp"

namespace perfbench {

struct QuerySpec {
  std::string tmpl;         ///< template name
  std::string text;         ///< the JSON query document
  recup::query::Query ir;   ///< parsed form
  std::string fingerprint;  ///< result-cache fingerprint
};

/// The eight templates, in report order.
const std::vector<std::string>& template_names();

/// Up to `count` queries with distinct fingerprints: templates round-robin
/// and scopes cycling through every stratum, so each seed's pool has the
/// same balance of cheap and expensive queries. `pin_to_run` scopes every
/// query to a single run instead (one workflow, one run index in `runs`).
std::vector<QuerySpec> make_pool(std::uint64_t seed, std::size_t count,
                                 const std::vector<recup::prov::RunId>& runs,
                                 bool pin_to_run = false);

/// Indices into a pool of `pool_size` for one session of `length` draws:
/// with probability 1/2 a draw repeats a query already drawn in the session,
/// otherwise it takes a pool entry not drawn yet.
std::vector<std::size_t> make_session(std::uint64_t seed, std::size_t session,
                                      std::size_t pool_size,
                                      std::size_t length);

/// Order-sensitive digest (FNV-1a, hex) of a query sequence's fingerprints.
class SequenceDigest {
 public:
  void add(const QuerySpec& q);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
