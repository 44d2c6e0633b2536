#include "analysis/dataframe.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <unordered_set>

#include "common/csv.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"

namespace recup::analysis {

Column::Column(std::string name, ColumnType type)
    : name_(std::move(name)), type_(type) {
  if (type_ == ColumnType::kString) {
    dict_ = std::make_shared<std::vector<std::string>>();
  }
}

Column::Column(const Column& other)
    : name_(other.name_),
      type_(other.type_),
      ints_(other.ints_),
      doubles_(other.doubles_),
      codes_(other.codes_),
      dict_(other.dict_) {}  // dictionary shared; cloned on first mutation

Column& Column::operator=(const Column& other) {
  if (this == &other) return *this;
  name_ = other.name_;
  type_ = other.type_;
  ints_ = other.ints_;
  doubles_ = other.doubles_;
  codes_ = other.codes_;
  dict_ = other.dict_;
  lookup_.clear();
  lookup_entries_ = 0;
  return *this;
}

void Column::ensure_unique_dict() {
  if (dict_.use_count() > 1) {
    dict_ = std::make_shared<std::vector<std::string>>(*dict_);
    lookup_.clear();
    lookup_entries_ = 0;
  }
}

namespace {
constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;
}

void Column::rebuild_lookup() {
  const std::size_t n = dict_->size();
  std::size_t cap = 16;
  while (cap < (n + 1) * 2) cap <<= 1;
  lookup_.assign(cap, kEmptySlot);
  const std::size_t mask = cap - 1;
  for (std::uint32_t id = 0; id < n; ++id) {
    std::size_t i = std::hash<std::string_view>{}((*dict_)[id]) & mask;
    while (lookup_[i] != kEmptySlot) i = (i + 1) & mask;
    lookup_[i] = id;
  }
  lookup_entries_ = n;
}

template <typename Make>
std::uint32_t Column::intern_impl(std::string_view v, Make&& make) {
  ensure_unique_dict();
  if (lookup_entries_ != dict_->size() ||
      (lookup_entries_ + 1) * 2 > lookup_.size()) {
    rebuild_lookup();
  }
  const std::size_t mask = lookup_.size() - 1;
  std::size_t i = std::hash<std::string_view>{}(v) & mask;
  while (lookup_[i] != kEmptySlot) {
    if ((*dict_)[lookup_[i]] == v) return lookup_[i];
    i = (i + 1) & mask;
  }
  const auto id = static_cast<std::uint32_t>(dict_->size());
  lookup_[i] = id;
  ++lookup_entries_;
  dict_->push_back(make());
  return id;
}

std::uint32_t Column::intern(std::string v) {
  return intern_impl(v, [&]() -> std::string&& { return std::move(v); });
}

std::uint32_t Column::intern_view(std::string_view v) {
  return intern_impl(v, [&] { return std::string(v); });
}

Column Column::from_dict(std::string name, std::vector<std::string> dict,
                         std::vector<std::uint32_t> codes) {
  for (const std::uint32_t code : codes) {
    if (code >= dict.size()) {
      throw DataFrameError("from_dict: code out of dictionary range");
    }
  }
  Column col(std::move(name), ColumnType::kString);
  *col.dict_ = std::move(dict);
  col.codes_ = std::move(codes);
  return col;
}

std::size_t Column::size() const {
  switch (type_) {
    case ColumnType::kInt64:
      return ints_.size();
    case ColumnType::kDouble:
      return doubles_.size();
    case ColumnType::kString:
      return codes_.size();
  }
  return 0;
}

void Column::reserve(std::size_t n) {
  switch (type_) {
    case ColumnType::kInt64:
      ints_.reserve(n);
      break;
    case ColumnType::kDouble:
      doubles_.reserve(n);
      break;
    case ColumnType::kString:
      codes_.reserve(n);
      break;
  }
}

void Column::push(Cell cell) {
  switch (type_) {
    case ColumnType::kInt64:
      if (const auto* i = std::get_if<std::int64_t>(&cell)) {
        ints_.push_back(*i);
        return;
      }
      throw DataFrameError("column '" + name_ + "' expects int64");
    case ColumnType::kDouble:
      if (const auto* d = std::get_if<double>(&cell)) {
        doubles_.push_back(*d);
        return;
      }
      if (const auto* i = std::get_if<std::int64_t>(&cell)) {
        doubles_.push_back(static_cast<double>(*i));
        return;
      }
      throw DataFrameError("column '" + name_ + "' expects double");
    case ColumnType::kString:
      if (auto* s = std::get_if<std::string>(&cell)) {
        codes_.push_back(intern(std::move(*s)));
        return;
      }
      throw DataFrameError("column '" + name_ + "' expects string");
  }
}

void Column::push_i64(std::int64_t v) {
  switch (type_) {
    case ColumnType::kInt64:
      ints_.push_back(v);
      return;
    case ColumnType::kDouble:
      doubles_.push_back(static_cast<double>(v));
      return;
    case ColumnType::kString:
      break;
  }
  throw DataFrameError("column '" + name_ + "' expects int64");
}

void Column::push_f64(double v) {
  if (type_ != ColumnType::kDouble) {
    throw DataFrameError("column '" + name_ + "' expects double");
  }
  doubles_.push_back(v);
}

void Column::push_str(std::string v) {
  if (type_ != ColumnType::kString) {
    throw DataFrameError("column '" + name_ + "' expects string");
  }
  codes_.push_back(intern(std::move(v)));
}

void Column::gather(const Column& src, const std::vector<std::size_t>& rows) {
  if (type_ == ColumnType::kDouble && src.type_ == ColumnType::kInt64) {
    const std::size_t base = doubles_.size();
    doubles_.resize(base + rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::size_t r = rows[i];
      doubles_[base + i] =
          r == kMissingRow ? 0.0 : static_cast<double>(src.ints_[r]);
    }
    return;
  }
  if (type_ != src.type_) {
    throw DataFrameError("gather type mismatch into column '" + name_ + "'");
  }
  switch (type_) {
    case ColumnType::kInt64: {
      const std::size_t base = ints_.size();
      ints_.resize(base + rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const std::size_t r = rows[i];
        ints_[base + i] = r == kMissingRow ? 0 : src.ints_[r];
      }
      break;
    }
    case ColumnType::kDouble: {
      const std::size_t base = doubles_.size();
      doubles_.resize(base + rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const std::size_t r = rows[i];
        doubles_[base + i] = r == kMissingRow ? 0.0 : src.doubles_[r];
      }
      break;
    }
    case ColumnType::kString: {
      const std::size_t base = codes_.size();
      bool missing = false;
      for (const std::size_t r : rows) {
        if (r == kMissingRow) {
          missing = true;
          break;
        }
      }
      codes_.resize(base + rows.size());
      if (base == 0 && dict_->empty() && !missing) {
        // Fresh column: adopt the source dictionary wholesale (shared,
        // copy-on-write) and shuffle only the 4-byte codes.
        dict_ = src.dict_;
        lookup_.clear();
        lookup_entries_ = 0;
        for (std::size_t i = 0; i < rows.size(); ++i) {
          codes_[i] = src.codes_[rows[i]];
        }
      } else {
        std::vector<std::uint32_t> remap(src.dict_->size());
        for (std::size_t i = 0; i < remap.size(); ++i) {
          remap[i] = intern_view((*src.dict_)[i]);
        }
        const std::uint32_t empty_code = missing ? intern(std::string()) : 0;
        for (std::size_t i = 0; i < rows.size(); ++i) {
          const std::size_t r = rows[i];
          codes_[base + i] =
              r == kMissingRow ? empty_code : remap[src.codes_[r]];
        }
      }
      break;
    }
  }
}

void Column::append_slice(const Column& src, std::size_t begin,
                          std::size_t end) {
  end = std::min(end, src.size());
  begin = std::min(begin, end);
  if (type_ == ColumnType::kDouble && src.type_ == ColumnType::kInt64) {
    doubles_.reserve(doubles_.size() + (end - begin));
    for (std::size_t r = begin; r < end; ++r) {
      doubles_.push_back(static_cast<double>(src.ints_[r]));
    }
    return;
  }
  if (type_ != src.type_) {
    throw DataFrameError("append type mismatch into column '" + name_ + "'");
  }
  switch (type_) {
    case ColumnType::kInt64:
      ints_.insert(ints_.end(), src.ints_.begin() + begin,
                   src.ints_.begin() + end);
      break;
    case ColumnType::kDouble:
      doubles_.insert(doubles_.end(), src.doubles_.begin() + begin,
                      src.doubles_.begin() + end);
      break;
    case ColumnType::kString:
      if (codes_.empty() && dict_->empty()) {
        dict_ = src.dict_;
        lookup_.clear();
        lookup_entries_ = 0;
        codes_.insert(codes_.end(), src.codes_.begin() + begin,
                      src.codes_.begin() + end);
      } else {
        std::vector<std::uint32_t> remap(src.dict_->size());
        for (std::size_t i = 0; i < remap.size(); ++i) {
          remap[i] = intern_view((*src.dict_)[i]);
        }
        codes_.reserve(codes_.size() + (end - begin));
        for (std::size_t r = begin; r < end; ++r) {
          codes_.push_back(remap[src.codes_[r]]);
        }
      }
      break;
  }
}

std::int64_t Column::i64(std::size_t row) const {
  if (type_ != ColumnType::kInt64) {
    throw DataFrameError("column '" + name_ + "' is not int64");
  }
  return ints_.at(row);
}

double Column::f64(std::size_t row) const {
  switch (type_) {
    case ColumnType::kInt64:
      return static_cast<double>(ints_.at(row));
    case ColumnType::kDouble:
      return doubles_.at(row);
    case ColumnType::kString:
      throw DataFrameError("column '" + name_ + "' is not numeric");
  }
  return 0.0;
}

const std::string& Column::str(std::size_t row) const {
  if (type_ != ColumnType::kString) {
    throw DataFrameError("column '" + name_ + "' is not string");
  }
  return (*dict_)[codes_.at(row)];
}

std::string Column::display(std::size_t row) const {
  switch (type_) {
    case ColumnType::kInt64:
      return std::to_string(ints_.at(row));
    case ColumnType::kDouble: {
      // Shortest representation that round-trips exactly through from_chars,
      // so to_csv -> from_csv loses no precision and distinct doubles never
      // share a display form.
      char buf[32];
      const auto res = std::to_chars(buf, buf + sizeof(buf), doubles_.at(row));
      return std::string(buf, res.ptr);
    }
    case ColumnType::kString:
      return (*dict_)[codes_.at(row)];
  }
  return {};
}

Cell Column::cell(std::size_t row) const {
  switch (type_) {
    case ColumnType::kInt64:
      return ints_.at(row);
    case ColumnType::kDouble:
      return doubles_.at(row);
    case ColumnType::kString:
      return (*dict_)[codes_.at(row)];
  }
  return std::int64_t{0};
}

std::vector<double> Column::numeric() const {
  std::vector<double> out;
  out.reserve(size());
  switch (type_) {
    case ColumnType::kInt64:
      for (const std::int64_t v : ints_) out.push_back(static_cast<double>(v));
      break;
    case ColumnType::kDouble:
      out = doubles_;
      break;
    case ColumnType::kString:
      throw DataFrameError("column '" + name_ + "' is not numeric");
  }
  return out;
}

const std::vector<std::int64_t>& Column::ints() const {
  if (type_ != ColumnType::kInt64) {
    throw DataFrameError("column '" + name_ + "' is not int64");
  }
  return ints_;
}

const std::vector<double>& Column::doubles() const {
  if (type_ != ColumnType::kDouble) {
    throw DataFrameError("column '" + name_ + "' is not double");
  }
  return doubles_;
}

const std::vector<std::uint32_t>& Column::codes() const {
  if (type_ != ColumnType::kString) {
    throw DataFrameError("column '" + name_ + "' is not string");
  }
  return codes_;
}

const std::vector<std::string>& Column::dict() const {
  if (type_ != ColumnType::kString) {
    throw DataFrameError("column '" + name_ + "' is not string");
  }
  return *dict_;
}

// --- Typed composite-key machinery -------------------------------------------
//
// Group-by, join, distinct, and asof-merge all key rows on a composite of
// typed columns. Keys hash over the raw representation (int64 value, double
// bit pattern with -0.0 collapsed, string bytes) — never over stringified
// cells — and compare/order with the native type semantics.
namespace {

enum class KeyKind { kInt, kFloat, kStr };

struct KeyCol {
  const Column* col = nullptr;
  KeyKind kind = KeyKind::kInt;
  /// Hash / compare string keys by dictionary code instead of value.
  /// Valid only when both sides of every probe are the same column
  /// (group_by, distinct): within one column, code equality is value
  /// equality. Cross-frame probes (join, asof) must stay value-based
  /// because each frame has its own dictionary.
  bool code_keys = false;
};

KeyKind kind_of(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return KeyKind::kInt;
    case ColumnType::kDouble:
      return KeyKind::kFloat;
    case ColumnType::kString:
      return KeyKind::kStr;
  }
  return KeyKind::kStr;
}

/// Comparison kind across two join sides; numeric types widen to double.
KeyKind unified_kind(ColumnType left, ColumnType right) {
  if (left == right) return kind_of(left);
  if (left != ColumnType::kString && right != ColumnType::kString) {
    return KeyKind::kFloat;
  }
  throw DataFrameError("join key type mismatch (string vs numeric)");
}

inline std::uint64_t mix_u64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

inline std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Canonical bit pattern used for hashing and equality of double keys:
/// -0.0 collapses onto +0.0 so the two compare equal, and NaNs compare by
/// payload (grouping all identical NaNs) instead of being unequal to
/// themselves, which would leak hash-table entries.
inline std::uint64_t f64_key_bits(double d) {
  if (d == 0.0) d = 0.0;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

inline double widened(const Column& col, std::size_t row) {
  return col.type() == ColumnType::kInt64
             ? static_cast<double>(col.ints()[row])
             : col.doubles()[row];
}

std::uint64_t hash_row(const std::vector<KeyCol>& cols, std::size_t row) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const KeyCol& kc : cols) {
    switch (kc.kind) {
      case KeyKind::kInt:
        h = hash_combine(
            h, mix_u64(static_cast<std::uint64_t>(kc.col->ints()[row])));
        break;
      case KeyKind::kFloat:
        h = hash_combine(h, mix_u64(f64_key_bits(widened(*kc.col, row))));
        break;
      case KeyKind::kStr:
        h = hash_combine(
            h, kc.code_keys
                   ? mix_u64(kc.col->codes()[row])
                   : std::hash<std::string_view>{}(
                         kc.col->dict()[kc.col->codes()[row]]));
        break;
    }
  }
  return h;
}

bool rows_equal(const std::vector<KeyCol>& a_cols, std::size_t a_row,
                const std::vector<KeyCol>& b_cols, std::size_t b_row) {
  for (std::size_t i = 0; i < a_cols.size(); ++i) {
    switch (a_cols[i].kind) {
      case KeyKind::kInt:
        if (a_cols[i].col->ints()[a_row] != b_cols[i].col->ints()[b_row]) {
          return false;
        }
        break;
      case KeyKind::kFloat:
        if (f64_key_bits(widened(*a_cols[i].col, a_row)) !=
            f64_key_bits(widened(*b_cols[i].col, b_row))) {
          return false;
        }
        break;
      case KeyKind::kStr: {
        const Column& a = *a_cols[i].col;
        const Column& b = *b_cols[i].col;
        if (a_cols[i].code_keys) {
          if (a.codes()[a_row] != b.codes()[b_row]) return false;
        } else if (a.dict()[a.codes()[a_row]] != b.dict()[b.codes()[b_row]]) {
          return false;
        }
        break;
      }
    }
  }
  return true;
}

/// Total order over doubles for deterministic group output (non-NaN first,
/// NaNs ordered by payload).
inline bool f64_total_less(double a, double b) {
  const bool an = std::isnan(a);
  const bool bn = std::isnan(b);
  if (an || bn) {
    if (an != bn) return bn;
    return f64_key_bits(a) < f64_key_bits(b);
  }
  return a < b;
}

/// Lexicographic typed comparison of two rows' composite keys.
bool row_key_less(const std::vector<KeyCol>& cols, std::size_t a,
                  std::size_t b) {
  for (const KeyCol& kc : cols) {
    switch (kc.kind) {
      case KeyKind::kInt: {
        const auto& v = kc.col->ints();
        if (v[a] != v[b]) return v[a] < v[b];
        break;
      }
      case KeyKind::kFloat: {
        const double x = widened(*kc.col, a);
        const double y = widened(*kc.col, b);
        if (f64_key_bits(x) != f64_key_bits(y)) return f64_total_less(x, y);
        break;
      }
      case KeyKind::kStr: {
        const auto& d = kc.col->dict();
        const auto& codes = kc.col->codes();
        if (codes[a] != codes[b]) return d[codes[a]] < d[codes[b]];
        break;
      }
    }
  }
  return false;
}

/// Flat open-addressing table mapping composite row keys to dense key ids.
/// Sized once up front (no rehash); slots hold key ids whose representative
/// rows live in the caller-owned `heads` vector. Probing works across frames
/// (join): the probe side supplies its own KeyCol set with unified kinds, so
/// equal keys hash identically on both sides.
class RowKeyTable {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  RowKeyTable(const std::vector<KeyCol>& cols, std::size_t expected)
      : cols_(&cols) {
    std::size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    mask_ = cap - 1;
    slots_.assign(cap, kNone);
  }

  /// Key id of `row`'s composite key, inserting a new key if unseen; the
  /// first row of each new key is appended to `heads`.
  std::uint32_t insert(std::size_t row, std::vector<std::size_t>& heads) {
    std::size_t i = hash_row(*cols_, row) & mask_;
    while (slots_[i] != kNone) {
      const std::uint32_t k = slots_[i];
      if (rows_equal(*cols_, heads[k], *cols_, row)) return k;
      i = (i + 1) & mask_;
    }
    const auto k = static_cast<std::uint32_t>(heads.size());
    slots_[i] = k;
    heads.push_back(row);
    return k;
  }

  /// Key id matching a row of another frame, or kNone.
  std::uint32_t find(const std::vector<KeyCol>& probe_cols, std::size_t row,
                     const std::vector<std::size_t>& heads) const {
    std::size_t i = hash_row(probe_cols, row) & mask_;
    while (slots_[i] != kNone) {
      const std::uint32_t k = slots_[i];
      if (rows_equal(probe_cols, row, *cols_, heads[k])) return k;
      i = (i + 1) & mask_;
    }
    return kNone;
  }

 private:
  const std::vector<KeyCol>* cols_;
  std::size_t mask_ = 0;
  std::vector<std::uint32_t> slots_;
};

/// Group ids without hashing. When every key is a string column (its
/// dictionary codes) or an int64 column (offsets from its minimum) and the
/// key space — the product of the dictionary sizes and value ranges — has
/// at most max(2 * rows, 4096) slots, each row's mixed-radix slot index
/// addresses a flat id table directly. Ids are handed out in
/// first-appearance order with each group's first row appended to `heads`,
/// exactly as RowKeyTable::insert numbers them (code equality is the
/// equality group_by hashes on). Returns false, touching nothing, when the
/// keys do not qualify; doubles never do.
bool dense_group_ids(const std::vector<KeyCol>& cols, std::size_t rows,
                     std::vector<std::size_t>& heads,
                     std::vector<std::uint32_t>& gid) {
  if (rows == 0) return false;
  const std::uint64_t bound =
      std::max<std::uint64_t>(2 * static_cast<std::uint64_t>(rows), 4096);
  if (bound >= RowKeyTable::kNone) return false;  // slot indices are 32-bit
  std::vector<std::uint64_t> radix(cols.size());
  std::vector<std::int64_t> lows(cols.size(), 0);
  std::uint64_t space = 1;
  for (std::size_t k = 0; k < cols.size(); ++k) {
    const Column& c = *cols[k].col;
    std::uint64_t card = 0;
    if (c.type() == ColumnType::kString) {
      card = c.dict().size();
    } else if (c.type() == ColumnType::kInt64) {
      const auto [lo, hi] = std::minmax_element(c.ints().begin(), c.ints().end());
      // Unsigned difference: exact even across the whole int64 range.
      const std::uint64_t span =
          static_cast<std::uint64_t>(*hi) - static_cast<std::uint64_t>(*lo);
      if (span >= bound) return false;
      lows[k] = *lo;
      card = span + 1;
    } else {
      return false;
    }
    if (card == 0 || card > bound / space) return false;
    radix[k] = card;
    space *= card;
  }

  // gid holds each row's slot index until the id pass overwrites it.
  std::fill(gid.begin(), gid.end(), 0u);
  for (std::size_t k = 0; k < cols.size(); ++k) {
    const auto base = static_cast<std::uint32_t>(radix[k]);
    const Column& c = *cols[k].col;
    if (c.type() == ColumnType::kString) {
      const auto& codes = c.codes();
      for (std::size_t r = 0; r < rows; ++r) gid[r] = gid[r] * base + codes[r];
    } else {
      const auto& v = c.ints();
      const auto lo = static_cast<std::uint64_t>(lows[k]);
      for (std::size_t r = 0; r < rows; ++r) {
        gid[r] = gid[r] * base +
                 static_cast<std::uint32_t>(static_cast<std::uint64_t>(v[r]) - lo);
      }
    }
  }
  std::vector<std::uint32_t> ids(space, RowKeyTable::kNone);
  for (std::size_t r = 0; r < rows; ++r) {
    std::uint32_t& id = ids[gid[r]];
    if (id == RowKeyTable::kNone) {
      id = static_cast<std::uint32_t>(heads.size());
      heads.push_back(r);
    }
    gid[r] = id;
  }
  return true;
}

/// Applies fn(double) over src at rows [begin, end) with one type dispatch.
template <typename Fn>
void for_each_numeric(const Column& src, const std::size_t* begin,
                      const std::size_t* end, Fn&& fn) {
  switch (src.type()) {
    case ColumnType::kInt64: {
      const auto& v = src.ints();
      for (const std::size_t* r = begin; r != end; ++r) {
        fn(static_cast<double>(v[*r]));
      }
      break;
    }
    case ColumnType::kDouble: {
      const auto& v = src.doubles();
      for (const std::size_t* r = begin; r != end; ++r) fn(v[*r]);
      break;
    }
    case ColumnType::kString:
      throw DataFrameError("column '" + src.name() + "' is not numeric");
  }
}

}  // namespace

DataFrame::DataFrame(
    std::vector<std::pair<std::string, ColumnType>> schema) {
  for (auto& [name, type] : schema) {
    if (by_name_.count(name) != 0) {
      throw DataFrameError("duplicate column '" + name + "'");
    }
    by_name_[name] = columns_.size();
    columns_.emplace_back(name, type);
  }
}

bool DataFrame::has_column(const std::string& name) const {
  return by_name_.count(name) != 0;
}

std::size_t DataFrame::index_of(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw DataFrameError("no column named '" + name + "'");
  }
  return it->second;
}

const Column& DataFrame::col(const std::string& name) const {
  return columns_[index_of(name)];
}

const Column& DataFrame::col(std::size_t index) const {
  if (index >= columns_.size()) throw DataFrameError("column index range");
  return columns_[index];
}

std::vector<std::string> DataFrame::column_names() const {
  std::vector<std::string> out;
  out.reserve(columns_.size());
  for (const auto& c : columns_) out.push_back(c.name());
  return out;
}

std::vector<std::pair<std::string, ColumnType>> DataFrame::schema() const {
  std::vector<std::pair<std::string, ColumnType>> out;
  out.reserve(columns_.size());
  for (const auto& c : columns_) out.emplace_back(c.name(), c.type());
  return out;
}

void DataFrame::reserve(std::size_t n) {
  for (auto& c : columns_) c.reserve(n);
}

void DataFrame::add_row(std::vector<Cell> cells) {
  if (cells.size() != columns_.size()) {
    throw DataFrameError("row width mismatch");
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    columns_[i].push(std::move(cells[i]));
  }
  ++rows_;
}

DataFrame DataFrame::from_columns(std::vector<Column> columns) {
  DataFrame out;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i > 0 && columns[i].size() != columns[0].size()) {
      throw DataFrameError("from_columns length mismatch in '" +
                           columns[i].name() + "'");
    }
    if (out.by_name_.count(columns[i].name()) != 0) {
      throw DataFrameError("duplicate column '" + columns[i].name() + "'");
    }
    out.by_name_[columns[i].name()] = i;
  }
  out.rows_ = columns.empty() ? 0 : columns[0].size();
  out.columns_ = std::move(columns);
  return out;
}

void DataFrame::add_const_column(const std::string& name, ColumnType type,
                                 const Cell& value) {
  if (by_name_.count(name) != 0) {
    throw DataFrameError("duplicate column '" + name + "'");
  }
  by_name_[name] = columns_.size();
  columns_.emplace_back(name, type);
  Column& added = columns_.back();
  added.reserve(rows_);
  switch (type) {
    case ColumnType::kInt64:
      added.ints_.assign(rows_, std::get<std::int64_t>(value));
      break;
    case ColumnType::kDouble:
      added.doubles_.assign(
          rows_, std::holds_alternative<std::int64_t>(value)
                     ? static_cast<double>(std::get<std::int64_t>(value))
                     : std::get<double>(value));
      break;
    case ColumnType::kString:
      added.codes_.assign(rows_, added.intern(std::get<std::string>(value)));
      break;
  }
}

DataFrame DataFrame::take(const std::vector<std::size_t>& rows) const {
  DataFrame out(schema());
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    out.columns_[i].gather(columns_[i], rows);
  }
  out.rows_ = rows.size();
  return out;
}

DataFrame DataFrame::filter(
    const std::function<bool(const DataFrame&, std::size_t)>& pred) const {
  std::vector<std::size_t> rows;
  rows.reserve(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    if (pred(*this, r)) rows.push_back(r);
  }
  return take(rows);
}

std::vector<std::size_t> selected_rows(const std::vector<char>& keep) {
  // Branch-free selection build: count the matches, then unconditionally
  // store each row index and advance the cursor by 0 or 1. The store lands
  // at most one slot past the last match, hence the one spare slot; sizing
  // by matches rather than rows keeps a selective filter's vector small.
  std::size_t matches = 0;
  for (const char k : keep) matches += static_cast<std::size_t>(k != 0);
  std::vector<std::size_t> rows(matches + 1);
  std::size_t k = 0;
  for (std::size_t r = 0; r < keep.size(); ++r) {
    rows[k] = r;
    k += static_cast<std::size_t>(keep[r] != 0);
  }
  rows.pop_back();
  return rows;
}

DataFrame DataFrame::filter_mask(const std::vector<char>& keep) const {
  if (keep.size() != rows_) {
    throw DataFrameError("filter_mask size mismatch");
  }
  return take(selected_rows(keep));
}

DataFrame DataFrame::sort_by(const std::string& column, bool ascending,
                             std::size_t limit) const {
  const Column& key = col(column);
  std::vector<std::size_t> rows(rows_);
  std::iota(rows.begin(), rows.end(), 0);
  // Stable-sorts rows [0, end) by `less`, reversed for descending order.
  const auto order = [&](auto end, auto less) {
    if (ascending) {
      std::stable_sort(rows.begin(), end, less);
    } else {
      std::stable_sort(rows.begin(), end,
                       [&](std::size_t a, std::size_t b) { return less(b, a); });
    }
  };
  switch (key.type()) {
    case ColumnType::kInt64: {
      const auto& v = key.ints();
      order(rows.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
      break;
    }
    case ColumnType::kDouble: {
      // `<` is no strict weak order once NaN is in play, so NaN rows are
      // moved behind the numbers first (a stable partition keeps them in
      // row order) and only the numbers are sorted. A NaN-free column
      // partitions to itself.
      const auto& v = key.doubles();
      const auto numbers_end =
          std::stable_partition(rows.begin(), rows.end(), [&](std::size_t r) {
            return !std::isnan(v[r]);
          });
      order(numbers_end,
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
      break;
    }
    case ColumnType::kString: {
      // Rank the (small) dictionary lexicographically once, then the
      // per-row comparator is two integer loads — no string compares in
      // the O(n log n) sort.
      const auto& d = key.dict();
      const auto& codes = key.codes();
      std::vector<std::uint32_t> by_lex(d.size());
      std::iota(by_lex.begin(), by_lex.end(), 0);
      std::sort(by_lex.begin(), by_lex.end(),
                [&](std::uint32_t a, std::uint32_t b) { return d[a] < d[b]; });
      std::vector<std::uint32_t> rank(d.size());
      for (std::uint32_t i = 0; i < by_lex.size(); ++i) rank[by_lex[i]] = i;
      order(rows.end(), [&](std::size_t a, std::size_t b) {
        return rank[codes[a]] < rank[codes[b]];
      });
      break;
    }
  }
  if (limit < rows.size()) rows.resize(limit);
  return take(rows);
}

DataFrame DataFrame::select(const std::vector<std::string>& names) const {
  DataFrame out;
  for (const auto& name : names) {
    if (out.by_name_.count(name) != 0) {
      throw DataFrameError("duplicate column '" + name + "'");
    }
    out.by_name_[name] = out.columns_.size();
    out.columns_.push_back(columns_[index_of(name)]);  // whole-column copy
  }
  out.rows_ = rows_;
  return out;
}

DataFrame DataFrame::head(std::size_t n) const {
  DataFrame out(schema());
  const std::size_t end = std::min(n, rows_);
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    out.columns_[i].append_slice(columns_[i], 0, end);
  }
  out.rows_ = end;
  return out;
}

DataFrame DataFrame::with_column(
    const std::string& name, ColumnType type,
    const std::function<Cell(const DataFrame&, std::size_t)>& fn) const {
  if (by_name_.count(name) != 0) {
    throw DataFrameError("duplicate column '" + name + "'");
  }
  DataFrame out = *this;
  out.by_name_[name] = out.columns_.size();
  out.columns_.emplace_back(name, type);
  Column& added = out.columns_.back();
  added.reserve(rows_);
  for (std::size_t r = 0; r < rows_; ++r) added.push(fn(*this, r));
  return out;
}

DataFrame DataFrame::group_by(const std::vector<std::string>& keys,
                              const std::vector<AggSpec>& aggs) const {
  std::vector<KeyCol> key_cols;
  key_cols.reserve(keys.size());
  for (const auto& key : keys) {
    const Column& c = columns_[index_of(key)];
    key_cols.push_back({&c, kind_of(c.type()), /*code_keys=*/true});
  }

  // Pass 1: map every row to a group id, from the key codes directly when
  // the key space is small enough, else via the typed-key hash table.
  std::vector<std::size_t> heads;  // first row of each group
  std::vector<std::uint32_t> gid(rows_);
  if (!dense_group_ids(key_cols, rows_, heads, gid)) {
    RowKeyTable table(key_cols, rows_);
    for (std::size_t r = 0; r < rows_; ++r) gid[r] = table.insert(r, heads);
  }
  const std::size_t n_groups = heads.size();

  // Pass 2: counting sort rows into one flat per-group array.
  std::vector<std::size_t> offsets(n_groups + 1, 0);
  for (std::size_t r = 0; r < rows_; ++r) ++offsets[gid[r] + 1];
  for (std::size_t g = 0; g < n_groups; ++g) offsets[g + 1] += offsets[g];
  std::vector<std::size_t> flat(rows_);
  {
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t r = 0; r < rows_; ++r) flat[cursor[gid[r]]++] = r;
  }

  // Deterministic output: order groups by their typed key values, not their
  // stringified forms.
  std::vector<std::size_t> order(n_groups);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return row_key_less(key_cols, heads[a], heads[b]);
  });
  std::vector<std::size_t> ordered_heads;
  ordered_heads.reserve(n_groups);
  for (const std::size_t g : order) ordered_heads.push_back(heads[g]);

  std::vector<std::pair<std::string, ColumnType>> out_schema;
  for (const auto& key : keys) {
    const Column& c = columns_[index_of(key)];
    out_schema.emplace_back(c.name(), c.type());
  }
  for (const auto& agg : aggs) {
    ColumnType type = ColumnType::kDouble;
    if (agg.op == Agg::kCount || agg.op == Agg::kCountDistinct) {
      type = ColumnType::kInt64;
    } else if (agg.op == Agg::kFirst) {
      type = col(agg.column).type();
    } else if ((agg.op == Agg::kMin || agg.op == Agg::kMax) &&
               col(agg.column).type() == ColumnType::kString) {
      type = ColumnType::kString;
    }
    out_schema.emplace_back(agg.as, type);
  }
  DataFrame out(std::move(out_schema));

  // Key columns: one typed gather over the ordered group heads.
  for (std::size_t k = 0; k < keys.size(); ++k) {
    out.columns_[k].gather(*key_cols[k].col, ordered_heads);
  }

  for (std::size_t a = 0; a < aggs.size(); ++a) {
    const AggSpec& agg = aggs[a];
    Column& dst = out.columns_[keys.size() + a];
    if (agg.op == Agg::kCount) {
      dst.ints_.reserve(n_groups);
      for (const std::size_t g : order) {
        dst.ints_.push_back(
            static_cast<std::int64_t>(offsets[g + 1] - offsets[g]));
      }
      continue;
    }
    const Column& src = col(agg.column);
    if (agg.op == Agg::kFirst) {
      dst.gather(src, ordered_heads);
      continue;
    }
    if (agg.op == Agg::kCountDistinct &&
        src.type() == ColumnType::kString) {
      // Distinct codes == distinct values within one column, so a stamp
      // per dictionary entry marks what the group has seen: no hashing,
      // and "clearing" between groups is an epoch bump.
      dst.ints_.reserve(n_groups);
      const auto& codes = src.codes();
      std::vector<std::uint32_t> seen(src.dict().size(), 0);
      std::uint32_t epoch = 0;
      for (const std::size_t g : order) {
        ++epoch;
        std::int64_t distinct = 0;
        for (std::size_t i = offsets[g]; i < offsets[g + 1]; ++i) {
          std::uint32_t& stamp = seen[codes[flat[i]]];
          distinct += static_cast<std::int64_t>(stamp != epoch);
          stamp = epoch;
        }
        dst.ints_.push_back(distinct);
      }
      continue;
    }
    if (agg.op == Agg::kCountDistinct) {
      dst.ints_.reserve(n_groups);
      // One epoch-stamped open-addressing set sized for the largest group,
      // reused across every group: "clearing" is an epoch bump, so there is
      // no per-group allocation or rehash (the old per-group unordered_set
      // dominated the cold count_distinct profile).
      std::size_t max_group = 0;
      for (std::size_t g = 0; g < n_groups; ++g) {
        max_group = std::max(max_group, offsets[g + 1] - offsets[g]);
      }
      std::size_t cap = 16;
      while (cap < max_group * 2) cap <<= 1;
      const std::size_t mask = cap - 1;
      std::vector<std::uint32_t> stamp(cap, 0);
      std::vector<std::size_t> slot_row(cap, 0);
      std::uint32_t epoch = 0;
      const auto count_group = [&](const std::size_t* begin,
                                   const std::size_t* end, auto&& hash_of,
                                   auto&& equal) {
        ++epoch;
        std::int64_t distinct = 0;
        for (const std::size_t* r = begin; r != end; ++r) {
          std::size_t i = hash_of(*r) & mask;
          for (;;) {
            if (stamp[i] != epoch) {
              stamp[i] = epoch;
              slot_row[i] = *r;
              ++distinct;
              break;
            }
            if (equal(slot_row[i], *r)) break;
            i = (i + 1) & mask;
          }
        }
        return distinct;
      };
      const auto run_groups = [&](auto&& hash_of, auto&& equal) {
        for (const std::size_t g : order) {
          dst.ints_.push_back(count_group(flat.data() + offsets[g],
                                          flat.data() + offsets[g + 1],
                                          hash_of, equal));
        }
      };
      switch (src.type()) {
        case ColumnType::kInt64: {
          const auto& v = src.ints();
          run_groups(
              [&](std::size_t r) {
                return mix_u64(static_cast<std::uint64_t>(v[r]));
              },
              [&](std::size_t a, std::size_t b) { return v[a] == v[b]; });
          break;
        }
        case ColumnType::kDouble: {
          const auto& v = src.doubles();
          run_groups(
              [&](std::size_t r) { return mix_u64(f64_key_bits(v[r])); },
              [&](std::size_t a, std::size_t b) {
                return f64_key_bits(v[a]) == f64_key_bits(v[b]);
              });
          break;
        }
        case ColumnType::kString:
          break;  // handled above
      }
      continue;
    }
    if ((agg.op == Agg::kMin || agg.op == Agg::kMax) &&
        src.type() == ColumnType::kString) {
      dst.reserve(n_groups);
      const auto& d = src.dict();
      const auto& codes = src.codes();
      for (const std::size_t g : order) {
        const std::size_t* begin = flat.data() + offsets[g];
        const std::size_t* end = flat.data() + offsets[g + 1];
        const std::string* best = &d[codes[*begin]];
        for (const std::size_t* r = begin + 1; r != end; ++r) {
          const std::string& v = d[codes[*r]];
          if (agg.op == Agg::kMin ? v < *best : v > *best) best = &v;
        }
        dst.push_str(*best);
      }
      continue;
    }
    dst.doubles_.reserve(n_groups);
    for (const std::size_t g : order) {
      const std::size_t* begin = flat.data() + offsets[g];
      const std::size_t* end = flat.data() + offsets[g + 1];
      const auto n = static_cast<double>(end - begin);
      double value = 0.0;
      switch (agg.op) {
        case Agg::kSum:
        case Agg::kMean: {
          double sum = 0.0;
          for_each_numeric(src, begin, end, [&](double v) { sum += v; });
          value = agg.op == Agg::kSum ? sum : (n > 0 ? sum / n : 0.0);
          break;
        }
        case Agg::kMin: {
          double lo = 0.0;
          bool first = true;
          for_each_numeric(src, begin, end, [&](double v) {
            lo = first ? v : std::min(lo, v);
            first = false;
          });
          value = lo;
          break;
        }
        case Agg::kMax: {
          double hi = 0.0;
          bool first = true;
          for_each_numeric(src, begin, end, [&](double v) {
            hi = first ? v : std::max(hi, v);
            first = false;
          });
          value = hi;
          break;
        }
        case Agg::kStd: {
          // Two-pass sample standard deviation: at least as accurate as a
          // streaming Welford update, and the second pass vectorizes.
          double sum = 0.0;
          for_each_numeric(src, begin, end, [&](double v) { sum += v; });
          const double mean = n > 0 ? sum / n : 0.0;
          double m2 = 0.0;
          for_each_numeric(src, begin, end, [&](double v) {
            m2 += (v - mean) * (v - mean);
          });
          value = n > 1.0 ? std::sqrt(m2 / (n - 1.0)) : 0.0;
          break;
        }
        case Agg::kCount:
        case Agg::kFirst:
        case Agg::kCountDistinct:
          break;  // handled above
      }
      dst.doubles_.push_back(value);
    }
  }
  out.rows_ = n_groups;
  return out;
}

DataFrame DataFrame::inner_join(const DataFrame& right,
                                const std::vector<std::string>& left_keys,
                                const std::vector<std::string>& right_keys)
    const {
  if (left_keys.size() != right_keys.size() || left_keys.empty()) {
    throw DataFrameError("join requires matching, non-empty key lists");
  }
  std::vector<KeyCol> l_cols;
  std::vector<KeyCol> r_cols;
  std::vector<std::size_t> r_idx;
  for (std::size_t i = 0; i < left_keys.size(); ++i) {
    const Column& lc = columns_[index_of(left_keys[i])];
    const std::size_t ri = right.index_of(right_keys[i]);
    const Column& rc = right.columns_[ri];
    const KeyKind kind = unified_kind(lc.type(), rc.type());
    l_cols.push_back({&lc, kind});
    r_cols.push_back({&rc, kind});
    r_idx.push_back(ri);
  }

  // Build side: right rows hashed on their typed composite key, with
  // same-key rows chained in ascending row order (first/next arrays).
  constexpr std::size_t kChainEnd = static_cast<std::size_t>(-1);
  RowKeyTable table(r_cols, right.rows_);
  std::vector<std::size_t> reps;  // representative right row per key id
  std::vector<std::size_t> first;
  std::vector<std::size_t> last;
  std::vector<std::size_t> next(right.rows_, kChainEnd);
  for (std::size_t r = 0; r < right.rows_; ++r) {
    const std::uint32_t k = table.insert(r, reps);
    if (k == first.size()) {
      first.push_back(r);
      last.push_back(r);
    } else {
      next[last[k]] = r;
      last[k] = r;
    }
  }

  // Probe side: left rows in order, fanning out over right matches.
  std::vector<std::size_t> left_rows;
  std::vector<std::size_t> right_rows;
  for (std::size_t l = 0; l < rows_; ++l) {
    const std::uint32_t k = table.find(l_cols, l, reps);
    if (k == RowKeyTable::kNone) continue;
    for (std::size_t r = first[k]; r != kChainEnd; r = next[r]) {
      left_rows.push_back(l);
      right_rows.push_back(r);
    }
  }

  // Output schema: all left columns, then right columns not used as keys
  // (suffixed when names collide).
  std::vector<std::pair<std::string, ColumnType>> out_schema = schema();
  std::vector<std::size_t> right_cols;
  for (std::size_t i = 0; i < right.columns_.size(); ++i) {
    if (std::find(r_idx.begin(), r_idx.end(), i) != r_idx.end()) continue;
    right_cols.push_back(i);
    std::string name = right.columns_[i].name();
    if (by_name_.count(name) != 0) name += "_right";
    out_schema.emplace_back(name, right.columns_[i].type());
  }
  DataFrame out(std::move(out_schema));
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    out.columns_[i].gather(columns_[i], left_rows);
  }
  for (std::size_t i = 0; i < right_cols.size(); ++i) {
    out.columns_[columns_.size() + i].gather(right.columns_[right_cols[i]],
                                             right_rows);
  }
  out.rows_ = left_rows.size();
  return out;
}

DataFrame DataFrame::asof_merge(const DataFrame& right,
                                const AsofSpec& spec) const {
  if (spec.left_by.size() != spec.right_by.size()) {
    throw DataFrameError("asof_merge requires pairwise by-column lists");
  }
  const Column& left_on = col(spec.left_on);
  const Column& right_on = right.col(spec.right_on);
  if (left_on.type() == ColumnType::kString ||
      right_on.type() == ColumnType::kString) {
    throw DataFrameError("asof_merge ordering columns must be numeric");
  }
  const Column* valid_until = nullptr;
  if (!spec.right_valid_until.empty()) {
    valid_until = &right.col(spec.right_valid_until);
    if (valid_until->type() == ColumnType::kString) {
      throw DataFrameError("asof_merge valid-until column must be numeric");
    }
  }

  std::vector<KeyCol> l_by;
  std::vector<KeyCol> r_by;
  std::vector<std::size_t> r_by_idx;
  for (std::size_t i = 0; i < spec.left_by.size(); ++i) {
    const Column& lc = columns_[index_of(spec.left_by[i])];
    const std::size_t ri = right.index_of(spec.right_by[i]);
    const Column& rc = right.columns_[ri];
    const KeyKind kind = unified_kind(lc.type(), rc.type());
    l_by.push_back({&lc, kind});
    r_by.push_back({&rc, kind});
    r_by_idx.push_back(ri);
  }

  // Bucket right rows by by-key, each bucket sorted by (right_on, row) so
  // that among duplicate timestamps the last right row wins.
  std::vector<std::vector<std::size_t>> buckets;
  RowKeyTable table(r_by, right.rows_);
  std::vector<std::size_t> reps;
  if (l_by.empty()) {
    buckets.emplace_back();
    buckets[0].reserve(right.rows_);
    for (std::size_t r = 0; r < right.rows_; ++r) buckets[0].push_back(r);
  } else {
    for (std::size_t r = 0; r < right.rows_; ++r) {
      const std::uint32_t k = table.insert(r, reps);
      if (k == buckets.size()) buckets.emplace_back();
      buckets[k].push_back(r);
    }
  }
  for (auto& bucket : buckets) {
    std::stable_sort(bucket.begin(), bucket.end(),
                     [&](std::size_t a, std::size_t b) {
                       return right_on.f64(a) < right_on.f64(b);
                     });
  }

  // Probe left rows in order; each matches the nearest-earlier right row in
  // its bucket, subject to the window / tolerance checks.
  std::vector<std::size_t> left_rows;
  std::vector<std::size_t> right_rows;
  left_rows.reserve(rows_);
  right_rows.reserve(rows_);
  for (std::size_t l = 0; l < rows_; ++l) {
    const std::vector<std::size_t>* bucket = nullptr;
    if (l_by.empty()) {
      bucket = &buckets[0];
    } else {
      const std::uint32_t k = table.find(l_by, l, reps);
      if (k != RowKeyTable::kNone) bucket = &buckets[k];
    }
    std::size_t match = Column::kMissingRow;
    if (bucket != nullptr && !bucket->empty()) {
      const double t = left_on.f64(l);
      // First bucket position with right_on > t, then step back one.
      const auto pos = std::upper_bound(
          bucket->begin(), bucket->end(), t,
          [&](double v, std::size_t r) { return v < right_on.f64(r); });
      if (pos != bucket->begin()) {
        const std::size_t candidate = *(pos - 1);
        const bool in_window =
            valid_until == nullptr ||
            t <= valid_until->f64(candidate) + spec.eps;
        const bool in_tolerance =
            spec.tolerance < 0.0 ||
            t - right_on.f64(candidate) <= spec.tolerance;
        if (in_window && in_tolerance) match = candidate;
      }
    }
    if (match != Column::kMissingRow) {
      left_rows.push_back(l);
      right_rows.push_back(match);
    } else if (spec.keep_unmatched) {
      left_rows.push_back(l);
      right_rows.push_back(Column::kMissingRow);
    }
  }

  // Output schema: all left columns, then right columns minus the by-keys
  // (the ordering and valid-until columns are kept), suffixed on collision.
  std::vector<std::pair<std::string, ColumnType>> out_schema = schema();
  std::vector<std::size_t> right_cols;
  for (std::size_t i = 0; i < right.columns_.size(); ++i) {
    if (std::find(r_by_idx.begin(), r_by_idx.end(), i) != r_by_idx.end()) {
      continue;
    }
    right_cols.push_back(i);
    std::string name = right.columns_[i].name();
    if (by_name_.count(name) != 0) name += "_right";
    out_schema.emplace_back(name, right.columns_[i].type());
  }
  DataFrame out(std::move(out_schema));
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    out.columns_[i].gather(columns_[i], left_rows);
  }
  for (std::size_t i = 0; i < right_cols.size(); ++i) {
    out.columns_[columns_.size() + i].gather(right.columns_[right_cols[i]],
                                             right_rows);
  }
  out.rows_ = left_rows.size();
  return out;
}

DataFrame DataFrame::concat(const DataFrame& other) const {
  if (other.width() != width()) throw DataFrameError("concat schema mismatch");
  DataFrame out(schema());
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    Column& dst = out.columns_[i];
    dst.reserve(rows_ + other.rows_);
    dst.append_slice(columns_[i], 0, rows_);
    dst.append_slice(other.columns_[i], 0, other.rows_);
  }
  out.rows_ = rows_ + other.rows_;
  return out;
}

namespace {

/// Reduce over a numeric column without materializing a widened copy.
/// Partials accumulate per 16,384-row block and combine in block order:
/// that is the summation order every recorded output (figures, pinned
/// digests) was computed in, so a straight left-to-right loop would move
/// the low bits of long sums.
template <typename Reduce>
double reduce_numeric(const Column& c, double init, Reduce&& reduce) {
  constexpr std::size_t kBlockRows = 16 * 1024;
  const auto blocked = [&](const auto& v) {
    double acc = init;
    for (std::size_t b = 0; b < v.size(); b += kBlockRows) {
      const std::size_t e = std::min(v.size(), b + kBlockRows);
      double partial = init;
      for (std::size_t r = b; r < e; ++r) {
        partial = reduce(partial, static_cast<double>(v[r]));
      }
      acc = reduce(acc, partial);
    }
    return acc;
  };
  if (c.type() == ColumnType::kInt64) return blocked(c.ints());
  return blocked(c.doubles());  // throws for string columns
}

}  // namespace

double DataFrame::sum(const std::string& column) const {
  return reduce_numeric(col(column), 0.0,
                        [](double a, double b) { return a + b; });
}

double DataFrame::mean(const std::string& column) const {
  if (rows_ == 0) return 0.0;
  return sum(column) / static_cast<double>(rows_);
}

double DataFrame::min(const std::string& column) const {
  const Column& c = col(column);
  if (c.size() == 0) throw DataFrameError("min of empty column");
  const double first = c.f64(0);
  return reduce_numeric(c, first,
                        [](double a, double b) { return b < a ? b : a; });
}

double DataFrame::max(const std::string& column) const {
  const Column& c = col(column);
  if (c.size() == 0) throw DataFrameError("max of empty column");
  const double first = c.f64(0);
  return reduce_numeric(c, first,
                        [](double a, double b) { return b > a ? b : a; });
}

std::vector<std::string> DataFrame::distinct(const std::string& column) const {
  const Column& c = col(column);
  std::vector<KeyCol> key_cols{{&c, kind_of(c.type()), /*code_keys=*/true}};
  RowKeyTable table(key_cols, rows_);
  std::vector<std::size_t> heads;
  std::vector<std::string> out;
  for (std::size_t r = 0; r < rows_; ++r) {
    if (table.insert(r, heads) == out.size()) out.push_back(c.display(r));
  }
  return out;
}

std::string DataFrame::to_csv() const {
  std::ostringstream out;
  out << csv_row(column_names()) << "\n";
  for (std::size_t r = 0; r < rows_; ++r) {
    std::vector<std::string> cells;
    cells.reserve(columns_.size());
    for (const auto& c : columns_) cells.push_back(c.display(r));
    out << csv_row(cells) << "\n";
  }
  return out.str();
}

void DataFrame::to_csv_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw DataFrameError("cannot write " + path);
  out << to_csv();
}

namespace {

bool parse_i64(const std::string& s, std::int64_t& out) {
  if (s.empty()) return false;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool parse_f64(const std::string& s, double& out) {
  if (s.empty()) return false;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

}  // namespace

DataFrame DataFrame::from_csv(const std::string& text) {
  const auto rows = csv_parse(text);
  if (rows.empty()) throw DataFrameError("empty csv");
  const auto& header = rows.front();

  // Single-pass type inference: a column with no observed values (no data
  // rows) is a string column, as is one containing any empty cell; otherwise
  // int64 if every value parses as an integer, double if every value parses
  // as a number. Scanning a column stops at the first non-numeric cell.
  std::vector<ColumnType> types(header.size(), ColumnType::kString);
  for (std::size_t c = 0; c < header.size(); ++c) {
    bool saw_value = false;
    bool all_int = true;
    bool all_num = true;
    for (std::size_t r = 1; r < rows.size(); ++r) {
      if (c >= rows[r].size()) continue;
      const std::string& cell = rows[r][c];
      saw_value = true;
      std::int64_t i;
      double d;
      if (all_int && parse_i64(cell, i)) continue;
      all_int = false;
      if (!parse_f64(cell, d)) {
        all_num = false;
        break;
      }
    }
    if (!saw_value) continue;  // stays kString
    types[c] = all_int ? ColumnType::kInt64
               : all_num ? ColumnType::kDouble
                         : ColumnType::kString;
  }

  std::vector<std::pair<std::string, ColumnType>> schema;
  for (std::size_t c = 0; c < header.size(); ++c) {
    schema.emplace_back(header[c], types[c]);
  }
  DataFrame out(std::move(schema));
  out.reserve(rows.size() - 1);
  for (std::size_t r = 1; r < rows.size(); ++r) {
    if (rows[r].size() != header.size()) {
      throw DataFrameError("csv row width mismatch at row " +
                           std::to_string(r));
    }
    for (std::size_t c = 0; c < header.size(); ++c) {
      Column& dst = out.columns_[c];
      switch (types[c]) {
        case ColumnType::kInt64: {
          std::int64_t v = 0;
          parse_i64(rows[r][c], v);
          dst.ints_.push_back(v);
          break;
        }
        case ColumnType::kDouble: {
          double v = 0.0;
          parse_f64(rows[r][c], v);
          dst.doubles_.push_back(v);
          break;
        }
        case ColumnType::kString:
          dst.codes_.push_back(dst.intern(rows[r][c]));
          break;
      }
    }
    ++out.rows_;
  }
  return out;
}

DataFrame DataFrame::from_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw DataFrameError("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_csv(buf.str());
}

std::string DataFrame::describe(std::size_t n) const {
  std::ostringstream out;
  out << rows_ << " rows x " << columns_.size() << " cols\n";
  out << csv_row(column_names()) << "\n";
  for (std::size_t r = 0; r < std::min(n, rows_); ++r) {
    std::vector<std::string> cells;
    for (const auto& c : columns_) cells.push_back(c.display(r));
    out << csv_row(cells) << "\n";
  }
  if (rows_ > n) out << "... (" << rows_ - n << " more)\n";
  return out.str();
}

}  // namespace recup::analysis
