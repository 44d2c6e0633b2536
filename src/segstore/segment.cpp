#include "segstore/segment.hpp"

#include <algorithm>
#include <cstring>

#include "common/wal.hpp"
#include "wire/codec.hpp"

namespace recup::segstore {

namespace {

using analysis::Column;
using analysis::ColumnType;
using analysis::DataFrame;

void put_string(std::string& out, std::string_view s) {
  wire::put_varint(out, s.size());
  out.append(s.data(), s.size());
}

std::string get_string(std::string_view bytes, std::size_t& pos) {
  const std::uint64_t len = wire::get_varint(bytes, pos);
  if (len > bytes.size() - pos) {
    throw SegstoreError("segment: truncated string");
  }
  std::string s(bytes.substr(pos, len));
  pos += len;
  return s;
}

void put_double(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  wire::put_fixed64(out, bits);
}

double get_double(std::string_view bytes, std::size_t& pos) {
  const std::uint64_t bits = wire::get_fixed64(bytes, pos);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void encode_stats(std::string& out, const ColumnStats& s) {
  put_string(out, s.name);
  out.push_back(static_cast<char>(s.type));
  wire::put_varint(out, s.rows);
  wire::put_varint(out, s.null_count);
  switch (s.type) {
    case ColumnType::kInt64:
      wire::put_zigzag(out, s.int_min);
      wire::put_zigzag(out, s.int_max);
      break;
    case ColumnType::kDouble:
      out.push_back(s.dbl_valid ? 1 : 0);
      put_double(out, s.dbl_min);
      put_double(out, s.dbl_max);
      break;
    case ColumnType::kString:
      out.push_back(s.str_valid ? 1 : 0);
      put_string(out, s.str_min);
      put_string(out, s.str_max);
      break;
  }
}

ColumnStats decode_stats(std::string_view bytes, std::size_t& pos) {
  ColumnStats s;
  s.name = get_string(bytes, pos);
  if (pos >= bytes.size()) throw SegstoreError("segment: truncated column");
  const auto type_byte = static_cast<std::uint8_t>(bytes[pos++]);
  if (type_byte > static_cast<std::uint8_t>(ColumnType::kString)) {
    throw SegstoreError("segment: bad column type " +
                        std::to_string(type_byte));
  }
  s.type = static_cast<ColumnType>(type_byte);
  s.rows = wire::get_varint(bytes, pos);
  s.null_count = wire::get_varint(bytes, pos);
  switch (s.type) {
    case ColumnType::kInt64:
      s.int_min = wire::get_zigzag(bytes, pos);
      s.int_max = wire::get_zigzag(bytes, pos);
      break;
    case ColumnType::kDouble:
      if (pos >= bytes.size()) throw SegstoreError("segment: truncated stats");
      s.dbl_valid = bytes[pos++] != 0;
      s.dbl_min = get_double(bytes, pos);
      s.dbl_max = get_double(bytes, pos);
      break;
    case ColumnType::kString:
      if (pos >= bytes.size()) throw SegstoreError("segment: truncated stats");
      s.str_valid = bytes[pos++] != 0;
      s.str_min = get_string(bytes, pos);
      s.str_max = get_string(bytes, pos);
      break;
  }
  return s;
}

void encode_column(std::string& out, const Column& col) {
  switch (col.type()) {
    case ColumnType::kInt64: {
      // Delta + zig-zag: first value absolute, then per-row deltas. Sorted
      // identifier columns (timestamps, offsets) collapse to ~1 byte/row.
      const auto& v = col.ints();
      std::int64_t prev = 0;
      for (std::size_t i = 0; i < v.size(); ++i) {
        wire::put_zigzag(out, static_cast<std::int64_t>(
                                  static_cast<std::uint64_t>(v[i]) -
                                  static_cast<std::uint64_t>(prev)));
        prev = v[i];
      }
      break;
    }
    case ColumnType::kDouble:
      for (double d : col.doubles()) put_double(out, d);
      break;
    case ColumnType::kString: {
      // Canonical dictionary: distinct values in first-appearance order of
      // the *rows*, independent of how the in-memory column's dictionary
      // grew — so logically equal frames encode to identical bytes.
      const auto& dict = col.dict();
      const auto& codes = col.codes();
      std::vector<std::uint32_t> remap(dict.size(), UINT32_MAX);
      std::vector<std::uint32_t> order;  // canonical id -> source code
      order.reserve(dict.size());
      for (std::uint32_t code : codes) {
        if (remap[code] == UINT32_MAX) {
          remap[code] = static_cast<std::uint32_t>(order.size());
          order.push_back(code);
        }
      }
      wire::put_varint(out, order.size());
      for (std::uint32_t code : order) put_string(out, dict[code]);
      for (std::uint32_t code : codes) wire::put_varint(out, remap[code]);
      break;
    }
  }
}

Column decode_column(std::string_view bytes, std::size_t& pos,
                     const ColumnStats& meta) {
  Column col(meta.name, meta.type);
  switch (meta.type) {
    case ColumnType::kInt64: {
      col.reserve(meta.rows);
      std::int64_t prev = 0;
      for (std::uint64_t i = 0; i < meta.rows; ++i) {
        prev = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(prev) +
            static_cast<std::uint64_t>(wire::get_zigzag(bytes, pos)));
        col.push_i64(prev);
      }
      return col;
    }
    case ColumnType::kDouble: {
      col.reserve(meta.rows);
      for (std::uint64_t i = 0; i < meta.rows; ++i) {
        col.push_f64(get_double(bytes, pos));
      }
      return col;
    }
    case ColumnType::kString: {
      const std::uint64_t dict_size = wire::get_varint(bytes, pos);
      if (dict_size > meta.rows) {
        throw SegstoreError("segment: dictionary larger than row count");
      }
      std::vector<std::string> dict;
      dict.reserve(dict_size);
      for (std::uint64_t i = 0; i < dict_size; ++i) {
        dict.push_back(get_string(bytes, pos));
      }
      std::vector<std::uint32_t> codes;
      codes.reserve(meta.rows);
      for (std::uint64_t i = 0; i < meta.rows; ++i) {
        const std::uint64_t code = wire::get_varint(bytes, pos);
        if (code >= dict_size) {
          throw SegstoreError("segment: string code out of range");
        }
        codes.push_back(static_cast<std::uint32_t>(code));
      }
      return Column::from_dict(meta.name, std::move(dict), std::move(codes));
    }
  }
  throw SegstoreError("segment: unreachable column type");
}

/// A chunk's row or column count. Every column costs at least one byte of
/// stats and every row at least one byte per column, so a count beyond the
/// bytes left is corrupt — rejected before anything is reserved from it.
std::uint64_t get_count(std::string_view bytes, std::size_t& pos,
                        const char* what) {
  const std::uint64_t n = wire::get_varint(bytes, pos);
  if (n > bytes.size() - pos) {
    throw SegstoreError(std::string("segment: implausible ") + what +
                        " count " + std::to_string(n));
  }
  return n;
}

ChunkMeta decode_chunk_header_and_columns(std::string_view bytes,
                                          std::size_t& pos,
                                          DataFrame* frame_out) {
  ChunkMeta meta;
  meta.offset = pos;
  meta.run.workflow = get_string(bytes, pos);
  const std::uint64_t run_index = wire::get_varint(bytes, pos);
  if (run_index > UINT32_MAX) {
    throw SegstoreError("segment: run index out of range " +
                        std::to_string(run_index));
  }
  meta.run.run_index = static_cast<std::uint32_t>(run_index);
  meta.rows = get_count(bytes, pos, "row");
  const std::uint64_t cols = get_count(bytes, pos, "column");
  std::vector<Column> columns;
  columns.reserve(cols);
  for (std::uint64_t c = 0; c < cols; ++c) {
    ColumnStats stats = decode_stats(bytes, pos);
    if (stats.rows != meta.rows) {
      throw SegstoreError("segment: column row-count mismatch in chunk " +
                          meta.run.display());
    }
    Column col = decode_column(bytes, pos, stats);
    meta.columns.push_back(std::move(stats));
    if (frame_out != nullptr) columns.push_back(std::move(col));
  }
  meta.length = pos - meta.offset;
  if (frame_out != nullptr) {
    *frame_out = meta.rows == 0 && cols == 0
                     ? DataFrame()
                     : DataFrame::from_columns(std::move(columns));
  }
  return meta;
}

std::size_t decode_file_header(std::string_view bytes, std::string* view,
                               std::uint64_t* chunk_count) {
  if (bytes.size() < 5 ||
      std::memcmp(bytes.data(), kSegmentMagic, 4) != 0) {
    throw SegstoreError("segment: bad magic");
  }
  if (static_cast<std::uint8_t>(bytes[4]) != kSegmentVersion) {
    throw SegstoreError("segment: unsupported version " +
                        std::to_string(static_cast<std::uint8_t>(bytes[4])));
  }
  std::size_t pos = 5;
  *view = get_string(bytes, pos);
  *chunk_count = wire::get_varint(bytes, pos);
  return pos;
}

}  // namespace

std::optional<std::pair<double, double>> ColumnStats::numeric_range() const {
  if (rows == 0) return std::nullopt;
  switch (type) {
    case ColumnType::kInt64:
      return std::make_pair(static_cast<double>(int_min),
                            static_cast<double>(int_max));
    case ColumnType::kDouble:
      if (!dbl_valid) return std::nullopt;
      return std::make_pair(dbl_min, dbl_max);
    case ColumnType::kString:
      return std::nullopt;
  }
  return std::nullopt;
}

ColumnStats compute_stats(const Column& column) {
  ColumnStats s;
  s.name = column.name();
  s.type = column.type();
  s.rows = column.size();
  switch (column.type()) {
    case ColumnType::kInt64:
      for (std::int64_t v : column.ints()) {
        s.int_min = std::min(s.int_min, v);
        s.int_max = std::max(s.int_max, v);
      }
      break;
    case ColumnType::kDouble: {
      // NaN is unordered, so any NaN row makes a min/max range unsound for
      // pruning — disable the range entirely (dbl_valid=false) instead of
      // guessing.
      bool has_nan = false;
      bool first = true;
      for (double v : column.doubles()) {
        if (v != v) {
          has_nan = true;
          continue;
        }
        if (first) {
          s.dbl_min = s.dbl_max = v;
          first = false;
        } else {
          s.dbl_min = std::min(s.dbl_min, v);
          s.dbl_max = std::max(s.dbl_max, v);
        }
      }
      s.dbl_valid = !first && !has_nan;
      break;
    }
    case ColumnType::kString: {
      const auto& dict = column.dict();
      const auto& codes = column.codes();
      // Range over *referenced* values only; the dictionary may hold
      // leftovers from filtered-away rows.
      std::vector<char> seen(dict.size(), 0);
      for (std::uint32_t code : codes) seen[code] = 1;
      for (std::size_t i = 0; i < dict.size(); ++i) {
        if (!seen[i]) continue;
        if (!s.str_valid) {
          s.str_min = s.str_max = dict[i];
          s.str_valid = true;
        } else {
          if (dict[i] < s.str_min) s.str_min = dict[i];
          if (dict[i] > s.str_max) s.str_max = dict[i];
        }
      }
      break;
    }
  }
  return s;
}

const ColumnStats* ChunkMeta::column(const std::string& name) const {
  for (const auto& c : columns) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const ChunkMeta* SegmentInfo::chunk_for(const RunKey& run) const {
  for (const auto& c : chunks) {
    if (c.run == run) return &c;
  }
  return nullptr;
}

std::string encode_segment(const std::string& view,
                           const std::vector<ChunkInput>& chunks,
                           SegmentInfo* info) {
  std::string out;
  out.append(kSegmentMagic, 4);
  out.push_back(static_cast<char>(kSegmentVersion));
  put_string(out, view);
  wire::put_varint(out, chunks.size());

  info->view = view;
  info->chunks.clear();
  for (const auto& input : chunks) {
    const DataFrame& frame = *input.frame;
    ChunkMeta meta;
    meta.run = input.run;
    meta.rows = frame.rows();
    meta.offset = out.size();
    put_string(out, input.run.workflow);
    wire::put_varint(out, input.run.run_index);
    wire::put_varint(out, frame.rows());
    wire::put_varint(out, frame.width());
    for (std::size_t c = 0; c < frame.width(); ++c) {
      const Column& col = frame.col(c);
      ColumnStats stats = compute_stats(col);
      encode_stats(out, stats);
      encode_column(out, col);
      meta.columns.push_back(std::move(stats));
    }
    meta.length = out.size() - meta.offset;
    info->chunks.push_back(std::move(meta));
  }

  const std::uint64_t body_len = out.size();
  const std::uint32_t crc =
      wal::crc32(out.data(), static_cast<std::size_t>(body_len));
  info->body_crc = crc;
  // Footer: [u32 crc][u64 body_len]["RSGF"], all little-endian.
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((body_len >> (8 * i)) & 0xFF));
  }
  out.append(kFooterMagic, 4);
  info->file_bytes = out.size();
  return out;
}

std::uint64_t verify_footer(std::string_view bytes) {
  if (bytes.size() < kFooterBytes + 5) {
    throw SegstoreError("segment: file too small for footer");
  }
  const char* f = bytes.data() + bytes.size() - kFooterBytes;
  if (std::memcmp(f + 12, kFooterMagic, 4) != 0) {
    throw SegstoreError("segment: bad footer magic");
  }
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    crc |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(f[i]))
           << (8 * i);
  }
  std::uint64_t body_len = 0;
  for (int i = 0; i < 8; ++i) {
    body_len |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(f[4 + i]))
                << (8 * i);
  }
  if (body_len + kFooterBytes != bytes.size()) {
    throw SegstoreError("segment: footer body length mismatch");
  }
  const std::uint32_t actual =
      wal::crc32(bytes.data(), static_cast<std::size_t>(body_len));
  if (actual != crc) {
    throw SegstoreError("segment: body CRC mismatch");
  }
  return body_len;
}

DecodedSegment decode_segment(std::string_view bytes) {
  const std::uint64_t body_len = verify_footer(bytes);
  const std::string_view body = bytes.substr(0, body_len);

  DecodedSegment out;
  std::uint64_t chunk_count = 0;
  std::size_t pos = decode_file_header(body, &out.view, &chunk_count);
  out.info.view = out.view;
  out.info.file_bytes = bytes.size();
  out.info.body_crc =
      wal::crc32(bytes.data(), static_cast<std::size_t>(body_len));
  for (std::uint64_t i = 0; i < chunk_count; ++i) {
    DataFrame frame;
    ChunkMeta meta = decode_chunk_header_and_columns(body, pos, &frame);
    out.chunks.emplace_back(meta.run, std::move(frame));
    out.info.chunks.push_back(std::move(meta));
  }
  if (pos != body_len) {
    throw SegstoreError("segment: trailing bytes after last chunk");
  }
  return out;
}

analysis::DataFrame decode_chunk(std::string_view bytes, std::uint64_t offset,
                                 const ChunkMeta* expected) {
  if (bytes.size() < kFooterBytes) {
    throw SegstoreError("segment: file too small");
  }
  const std::string_view body = bytes.substr(0, bytes.size() - kFooterBytes);
  if (offset >= body.size()) {
    throw SegstoreError("segment: chunk offset out of range");
  }
  std::size_t pos = offset;
  DataFrame frame;
  ChunkMeta meta = decode_chunk_header_and_columns(body, pos, &frame);
  if (expected != nullptr) {
    if (meta.run != expected->run) {
      throw SegstoreError("segment: chunk at offset holds run " +
                          meta.run.display() + ", expected " +
                          expected->run.display());
    }
    if (meta.rows != expected->rows || meta.length != expected->length) {
      throw SegstoreError("segment: chunk shape mismatch for " +
                          meta.run.display());
    }
  }
  return frame;
}

}  // namespace recup::segstore
