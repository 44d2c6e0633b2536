// Result encodings of the query service: the columnar binary frame that a
// QueryResponse carries as `result_bin` (query/server.hpp), and the JSON
// rendering that serves as a result digest.
//
// The binary frame is columnar: a header (column count, row count, per
// column a name + type tag) followed by each column's payload — zigzag
// varints for int64, 8-byte little-endian doubles, and for string columns
// the dictionary (distinct values) plus one varint code per row, so a
// million-row column of a handful of distinct prefixes ships each value
// once.
//
// frame_to_json renders a frame as {"columns": [{"name", "type"}, ...],
// "rows": [[...], ...]} with explicit column types, so int64 identifiers
// and doubles print exactly; its dump() is the canonical digest of a
// result that tests and benches compare.
#pragma once

#include <string>
#include <string_view>

#include "analysis/dataframe.hpp"
#include "json/json.hpp"

namespace recup::query {

json::Value frame_to_json(const analysis::DataFrame& frame);

/// Columnar binary result frame (see file comment). Decoding validates
/// lengths and dictionary codes and throws QueryError on malformed input.
std::string frame_to_binary(const analysis::DataFrame& frame);
analysis::DataFrame frame_from_binary(std::string_view bytes);

std::string column_type_name(analysis::ColumnType type);

}  // namespace recup::query
