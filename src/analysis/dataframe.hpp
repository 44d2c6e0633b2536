// PERFRECUP's uniform tabular data structure (paper §III-D: "provides
// uniform data structures built atop the pandas library"). A DataFrame is a
// set of typed columns (int64 / double / string) of equal length, with the
// relational operations the analyses need: filter, sort, group-by with
// aggregation, inner join, asof merge, and CSV round-trip. Data from every
// collection layer lands in this one shape, giving the shared-identifier
// interoperability the paper's FAIR discussion calls for.
//
// Execution model: operations are columnar. Row selections (filter, sort,
// head, take) materialize a row-index vector once and then gather whole
// typed column slices, never touching per-row Cell variants; a sort with a
// limit gathers only the first `limit` rows of its permutation. Join,
// distinct, and asof-merge key on a typed composite hash (hash-combine over
// raw int64 values, double bit patterns, and strings). Group-by skips the
// hash when every key is a dictionary-coded string or a narrow int64 range:
// the codes / offsets then index a dense id table directly. Either way
// group ids follow first appearance, output ordering stays deterministic by
// sorting group heads on the typed key values themselves, and
// joins/asof-merges emit rows in left-row order.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace recup::analysis {

enum class ColumnType { kInt64, kDouble, kString };

using Cell = std::variant<std::int64_t, double, std::string>;

class DataFrameError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// String columns are dictionary-encoded: rows hold 32-bit codes into a
/// per-column dictionary of distinct values. Appending a repeated value
/// costs a hash probe plus a 4-byte push instead of a heap string copy,
/// row moves (filter / sort / join gathers) shuffle codes, and kernels
/// that only need equality (group-by, count_distinct, string filters)
/// work on the codes without touching string bytes. The dictionary is
/// shared copy-on-write between columns, so select / take / gather of a
/// string column never duplicates the distinct values.
class Column {
 public:
  Column(std::string name, ColumnType type);
  Column(const Column& other);
  Column& operator=(const Column& other);
  Column(Column&&) = default;
  Column& operator=(Column&&) = default;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] ColumnType type() const { return type_; }
  [[nodiscard]] std::size_t size() const;

  void reserve(std::size_t n);
  void push(Cell cell);  ///< type-checked append (int widens to double)

  // Typed appends for bulk frame construction: no Cell boxing, no per-row
  // variant dispatch. push_i64 widens onto double columns like push().
  void push_i64(std::int64_t v);
  void push_f64(double v);
  void push_str(std::string v);

  /// Appends src[row] for every index in `rows` (typed block gather; no
  /// per-row variant boxing). Indices equal to kMissingRow append the
  /// type's default (0 / 0.0 / ""), which asof_merge uses for unmatched
  /// left rows. Types must match exactly, except int64 -> double widening.
  /// String columns: a column with neither codes nor dictionary yet adopts
  /// the source dictionary whole (unless a row is kMissingRow); otherwise
  /// every source entry is interned in dictionary order. The query scan
  /// relies on this merge order to reproduce result dictionaries exactly.
  static constexpr std::size_t kMissingRow = static_cast<std::size_t>(-1);
  void gather(const Column& src, const std::vector<std::size_t>& rows);
  /// Appends the contiguous slice src[begin, end), merging string
  /// dictionaries as gather() does.
  void append_slice(const Column& src, std::size_t begin, std::size_t end);

  [[nodiscard]] std::int64_t i64(std::size_t row) const;
  /// Numeric read; int columns widen to double.
  [[nodiscard]] double f64(std::size_t row) const;
  [[nodiscard]] const std::string& str(std::size_t row) const;
  /// Stringified value (for CSV and display). Doubles use shortest
  /// round-trip formatting so CSV round-trips are lossless.
  [[nodiscard]] std::string display(std::size_t row) const;
  [[nodiscard]] Cell cell(std::size_t row) const;

  /// Whole-column numeric view (int widens); throws for string columns.
  [[nodiscard]] std::vector<double> numeric() const;

  // Raw typed views for hot loops; only valid for the matching type().
  [[nodiscard]] const std::vector<std::int64_t>& ints() const;
  [[nodiscard]] const std::vector<double>& doubles() const;
  /// Per-row dictionary codes of a string column; value of row r is
  /// dict()[codes()[r]].
  [[nodiscard]] const std::vector<std::uint32_t>& codes() const;
  /// Distinct values of a string column, indexed by code.
  [[nodiscard]] const std::vector<std::string>& dict() const;

  /// Builds a string column directly from its dictionary representation
  /// (the inverse of codes()/dict(), used by the binary result frames).
  /// Every code must index into `dict`; entries should be distinct — a
  /// duplicate wastes a slot but stays readable.
  static Column from_dict(std::string name, std::vector<std::string> dict,
                          std::vector<std::uint32_t> codes);

 private:
  friend class DataFrame;

  /// Code of `v` in the dictionary, interning it if unseen. Clones a
  /// shared dictionary first (copy-on-write) and rebuilds the lookup
  /// table lazily when it is out of step with the dictionary.
  std::uint32_t intern(std::string v);
  std::uint32_t intern_view(std::string_view v);
  template <typename Make>
  std::uint32_t intern_impl(std::string_view v, Make&& make);
  void ensure_unique_dict();
  void rebuild_lookup();

  std::string name_;
  ColumnType type_;
  std::vector<std::int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::uint32_t> codes_;
  std::shared_ptr<std::vector<std::string>> dict_;
  /// value -> code acceleration: flat open-addressing slots holding
  /// codes (string keys live in the dictionary itself). Lazily rebuilt;
  /// intentionally not copied with the column (copies are usually
  /// read-only, and a later intern rebuilds).
  std::vector<std::uint32_t> lookup_;
  std::size_t lookup_entries_ = 0;
};

/// Aggregation operators for group_by. kMin/kMax accept string columns
/// (lexicographic, output column stays string); kCountDistinct counts
/// distinct typed values (doubles by bit pattern, so distinct values never
/// collide through a lossy display form).
enum class Agg { kSum, kMean, kCount, kMin, kMax, kStd, kFirst,
                 kCountDistinct };

struct AggSpec {
  std::string column;   ///< source column (ignored for kCount)
  Agg op = Agg::kSum;
  std::string as;       ///< output column name
};

/// Parameters for DataFrame::asof_merge — the nearest-earlier timestamp
/// join the paper's task<->I/O fusion needs (§III-D): each left row matches
/// the right row with the greatest `right_on` value <= its `left_on` value,
/// optionally restricted to rows agreeing on the by-columns (e.g. worker
/// process id + pthread id).
struct AsofSpec {
  std::string left_on;                 ///< numeric ordering column (left)
  std::string right_on;                ///< numeric ordering column (right)
  std::vector<std::string> left_by;    ///< optional exact-match columns
  std::vector<std::string> right_by;   ///< pairwise with left_by
  /// Optional numeric right column bounding the match window: a candidate
  /// only matches while left_on <= right[right_valid_until] + eps. This is
  /// the task execution window in the task<->I/O join.
  std::string right_valid_until;
  double eps = 0.0;
  /// If >= 0, a candidate only matches while left_on - right_on <= tolerance.
  double tolerance = -1.0;
  /// Keep left rows with no match, defaulting right cells (0 / 0.0 / "").
  bool keep_unmatched = false;
};

class DataFrame {
 public:
  DataFrame() = default;
  /// Creates an empty frame with the given schema.
  explicit DataFrame(std::vector<std::pair<std::string, ColumnType>> schema);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t width() const { return columns_.size(); }
  [[nodiscard]] bool has_column(const std::string& name) const;
  [[nodiscard]] const Column& col(const std::string& name) const;
  [[nodiscard]] const Column& col(std::size_t index) const;
  [[nodiscard]] std::vector<std::string> column_names() const;

  /// Reserves capacity for n rows in every column.
  void reserve(std::size_t n);
  /// Appends one row; cells must match the schema order.
  void add_row(std::vector<Cell> cells);

  /// Builds a frame by adopting fully-populated columns (all the same
  /// length). The fast path for view materialization: readers fill each
  /// column with typed push_* calls, column-major, and hand them over —
  /// no per-row Cell boxing anywhere.
  static DataFrame from_columns(std::vector<Column> columns);

  /// Appends a column holding `value` in every row, in place (no frame
  /// copy — with_column copies every existing column).
  void add_const_column(const std::string& name, ColumnType type,
                        const Cell& value);

  // --- Relational operations (all return new frames) -----------------------
  [[nodiscard]] DataFrame filter(
      const std::function<bool(const DataFrame&, std::size_t)>& pred) const;
  /// Keeps rows where keep[r] != 0 (keep.size() must equal rows()). The
  /// selection-vector fast path: a branch-free pass turns the byte mask
  /// into row indices, then whole typed columns are gathered — no per-row
  /// predicate callback.
  [[nodiscard]] DataFrame filter_mask(const std::vector<char>& keep) const;
  static constexpr std::size_t kAllRows = static_cast<std::size_t>(-1);
  /// Every row, or with `limit` only the first `limit` rows, of one stable
  /// permutation: values in the requested direction with ties in row
  /// order, and NaN rows last in either direction, in row order.
  [[nodiscard]] DataFrame sort_by(const std::string& column,
                                  bool ascending = true,
                                  std::size_t limit = kAllRows) const;
  [[nodiscard]] DataFrame select(const std::vector<std::string>& names) const;
  [[nodiscard]] DataFrame head(std::size_t n) const;
  /// Copy of this frame with one computed column appended.
  [[nodiscard]] DataFrame with_column(
      const std::string& name, ColumnType type,
      const std::function<Cell(const DataFrame&, std::size_t)>& fn) const;
  /// Group by key columns, computing the given aggregates per group.
  /// Output groups are ordered by the typed key values ascending. Group ids
  /// come from a dense table indexed by the key codes when every key is a
  /// string or int64 column and the product of the dictionary sizes /
  /// value ranges is at most max(2 * rows, 4096); otherwise from the
  /// composite-key hash table. Both number groups by first appearance.
  [[nodiscard]] DataFrame group_by(const std::vector<std::string>& keys,
                                   const std::vector<AggSpec>& aggs) const;
  /// Inner join on equality of the named key columns (hashed; output rows
  /// follow left-row order, then right-row order within a key).
  [[nodiscard]] DataFrame inner_join(const DataFrame& right,
                                     const std::vector<std::string>& left_keys,
                                     const std::vector<std::string>& right_keys)
      const;
  /// Nearest-earlier merge (see AsofSpec). Output rows follow left-row
  /// order; among duplicate right_on values the last right row wins.
  [[nodiscard]] DataFrame asof_merge(const DataFrame& right,
                                     const AsofSpec& spec) const;
  /// Rows of `this` concatenated with `other` (schemas must match).
  [[nodiscard]] DataFrame concat(const DataFrame& other) const;

  // --- Column-level helpers --------------------------------------------------
  [[nodiscard]] double sum(const std::string& column) const;
  [[nodiscard]] double mean(const std::string& column) const;
  [[nodiscard]] double min(const std::string& column) const;
  [[nodiscard]] double max(const std::string& column) const;
  /// Distinct display values in first-appearance order (typed hashing, so
  /// distinct doubles never collide through their string forms).
  [[nodiscard]] std::vector<std::string> distinct(
      const std::string& column) const;

  // --- I/O ---------------------------------------------------------------------
  [[nodiscard]] std::string to_csv() const;
  void to_csv_file(const std::string& path) const;
  /// Parses a CSV with a header row; column types are inferred per column
  /// (int64 if all values parse as integers, else double, else string;
  /// a column with no data rows or any empty cell is string).
  static DataFrame from_csv(const std::string& text);
  static DataFrame from_csv_file(const std::string& path);

  /// Short textual preview (first `n` rows) for terminals.
  [[nodiscard]] std::string describe(std::size_t n = 10) const;

 private:
  [[nodiscard]] std::size_t index_of(const std::string& name) const;
  [[nodiscard]] DataFrame take(const std::vector<std::size_t>& rows) const;
  [[nodiscard]] std::vector<std::pair<std::string, ColumnType>> schema() const;

  std::vector<Column> columns_;
  std::map<std::string, std::size_t> by_name_;
  std::size_t rows_ = 0;
};

/// Ascending indices of the rows with keep[r] != 0: the selection vector
/// filter_mask gathers through, built branch-free.
std::vector<std::size_t> selected_rows(const std::vector<char>& keep);

}  // namespace recup::analysis
