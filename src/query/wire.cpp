#include "query/wire.hpp"

#include <cstring>

#include "query/ir.hpp"
#include "wire/codec.hpp"

namespace recup::query {

using analysis::Column;
using analysis::ColumnType;
using analysis::DataFrame;

std::string column_type_name(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64: return "int64";
    case ColumnType::kDouble: return "double";
    case ColumnType::kString: return "string";
  }
  return "?";
}

json::Value frame_to_json(const DataFrame& frame) {
  json::Array columns;
  columns.reserve(frame.width());
  for (std::size_t c = 0; c < frame.width(); ++c) {
    json::Object col;
    col["name"] = frame.col(c).name();
    col["type"] = column_type_name(frame.col(c).type());
    columns.emplace_back(std::move(col));
  }
  json::Array rows;
  rows.reserve(frame.rows());
  for (std::size_t r = 0; r < frame.rows(); ++r) {
    json::Array row;
    row.reserve(frame.width());
    for (std::size_t c = 0; c < frame.width(); ++c) {
      const analysis::Column& col = frame.col(c);
      switch (col.type()) {
        case ColumnType::kInt64:
          row.emplace_back(col.i64(r));
          break;
        case ColumnType::kDouble:
          row.emplace_back(col.f64(r));
          break;
        case ColumnType::kString:
          row.emplace_back(col.str(r));
          break;
      }
    }
    rows.emplace_back(std::move(row));
  }
  json::Object out;
  out["columns"] = std::move(columns);
  out["rows"] = std::move(rows);
  return out;
}

namespace {

void put_f64(std::string& out, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((bits >> (8 * i)) & 0xFF);
  }
  out.append(buf, 8);
}

double get_f64(std::string_view bytes, std::size_t& pos) {
  if (pos + 8 > bytes.size()) {
    throw QueryError("malformed binary frame: truncated double");
  }
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(
                static_cast<unsigned char>(bytes[pos + i]))
            << (8 * i);
  }
  pos += 8;
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

std::string_view get_str(std::string_view bytes, std::size_t& pos) {
  const std::uint64_t n = wire::get_varint(bytes, pos);
  if (n > bytes.size() - pos) {
    throw QueryError("malformed binary frame: truncated string");
  }
  std::string_view out = bytes.substr(pos, n);
  pos += n;
  return out;
}

}  // namespace

std::string frame_to_binary(const DataFrame& frame) {
  std::string out;
  wire::put_varint(out, frame.width());
  wire::put_varint(out, frame.rows());
  for (std::size_t c = 0; c < frame.width(); ++c) {
    const Column& col = frame.col(c);
    wire::put_varint(out, col.name().size());
    out.append(col.name());
    out.push_back(static_cast<char>(col.type()));
  }
  for (std::size_t c = 0; c < frame.width(); ++c) {
    const Column& col = frame.col(c);
    switch (col.type()) {
      case ColumnType::kInt64:
        for (const std::int64_t v : col.ints()) wire::put_zigzag(out, v);
        break;
      case ColumnType::kDouble:
        for (const double v : col.doubles()) put_f64(out, v);
        break;
      case ColumnType::kString:
        wire::put_varint(out, col.dict().size());
        for (const std::string& s : col.dict()) {
          wire::put_varint(out, s.size());
          out.append(s);
        }
        for (const std::uint32_t code : col.codes()) {
          wire::put_varint(out, code);
        }
        break;
    }
  }
  return out;
}

DataFrame frame_from_binary(std::string_view bytes) {
  try {
    std::size_t pos = 0;
    const std::uint64_t width = wire::get_varint(bytes, pos);
    const std::uint64_t rows = wire::get_varint(bytes, pos);
    // A column needs at least its type byte, a row at least one byte in
    // some column; reject counts the buffer cannot possibly hold.
    if (width > bytes.size() || (width == 0 && rows != 0) ||
        (width != 0 && rows > bytes.size())) {
      throw QueryError("malformed binary frame: implausible header");
    }
    std::vector<std::pair<std::string, ColumnType>> schema;
    schema.reserve(width);
    for (std::uint64_t c = 0; c < width; ++c) {
      std::string name(get_str(bytes, pos));
      if (pos >= bytes.size()) {
        throw QueryError("malformed binary frame: truncated header");
      }
      const auto tag = static_cast<unsigned char>(bytes[pos++]);
      if (tag > static_cast<unsigned char>(ColumnType::kString)) {
        throw QueryError("malformed binary frame: unknown column type");
      }
      schema.emplace_back(std::move(name), static_cast<ColumnType>(tag));
    }
    std::vector<Column> columns;
    columns.reserve(width);
    for (auto& [name, type] : schema) {
      Column col(name, type);
      switch (type) {
        case ColumnType::kInt64:
          col.reserve(rows);
          for (std::uint64_t r = 0; r < rows; ++r) {
            col.push_i64(wire::get_zigzag(bytes, pos));
          }
          break;
        case ColumnType::kDouble:
          col.reserve(rows);
          for (std::uint64_t r = 0; r < rows; ++r) {
            col.push_f64(get_f64(bytes, pos));
          }
          break;
        case ColumnType::kString: {
          const std::uint64_t entries = wire::get_varint(bytes, pos);
          // Each entry costs at least its one-byte length prefix, so a
          // count beyond the remaining bytes is corrupt (and would
          // otherwise drive a huge reserve).
          if (entries > bytes.size() - pos) {
            throw QueryError("malformed binary frame: implausible dictionary");
          }
          std::vector<std::string> dict;
          dict.reserve(entries);
          for (std::uint64_t i = 0; i < entries; ++i) {
            dict.emplace_back(get_str(bytes, pos));
          }
          std::vector<std::uint32_t> codes;
          codes.reserve(rows);
          for (std::uint64_t r = 0; r < rows; ++r) {
            const std::uint64_t code = wire::get_varint(bytes, pos);
            if (code >= entries) {
              throw QueryError("malformed binary frame: code out of range");
            }
            codes.push_back(static_cast<std::uint32_t>(code));
          }
          col = Column::from_dict(std::move(name), std::move(dict),
                                  std::move(codes));
          break;
        }
      }
      columns.push_back(std::move(col));
    }
    if (pos != bytes.size()) {
      throw QueryError("malformed binary frame: trailing bytes");
    }
    return DataFrame::from_columns(std::move(columns));
  } catch (const wire::WireError& e) {
    throw QueryError(std::string("malformed binary frame: ") + e.what());
  }
}

}  // namespace recup::query
