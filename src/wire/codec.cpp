#include "wire/codec.hpp"

#include <cstring>

namespace recup::wire {

namespace {

void put_u32le(std::string& out, std::uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xFF);
  b[1] = static_cast<char>((v >> 8) & 0xFF);
  b[2] = static_cast<char>((v >> 16) & 0xFF);
  b[3] = static_cast<char>((v >> 24) & 0xFF);
  out.append(b, 4);
}

std::uint8_t need_byte(std::string_view bytes, std::size_t& pos) {
  if (pos >= bytes.size()) throw WireError("wire: truncated input");
  return static_cast<std::uint8_t>(bytes[pos++]);
}

std::string_view need_bytes(std::string_view bytes, std::size_t& pos,
                            std::size_t n) {
  if (n > bytes.size() - pos) throw WireError("wire: truncated input");
  std::string_view out = bytes.substr(pos, n);
  pos += n;
  return out;
}

std::size_t need_count(std::string_view bytes, std::size_t& pos) {
  const std::uint64_t n = get_varint(bytes, pos);
  // Every element costs at least one byte, so a count larger than the
  // remaining payload is corrupt — reject it before reserving memory.
  if (n > bytes.size() - pos) throw WireError("wire: implausible count");
  return static_cast<std::size_t>(n);
}

}  // namespace

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void put_zigzag(std::string& out, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  put_varint(out, (u << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

std::uint64_t get_varint(std::string_view bytes, std::size_t& pos) {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    const std::uint8_t b = need_byte(bytes, pos);
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      // Reject non-canonical 10-byte encodings whose top bits overflow.
      if (shift == 63 && b > 1) throw WireError("wire: varint overflow");
      return v;
    }
  }
  throw WireError("wire: varint too long");
}

std::int64_t get_zigzag(std::string_view bytes, std::size_t& pos) {
  const std::uint64_t u = get_varint(bytes, pos);
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

void put_fixed64(std::string& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.append(b, 8);
}

std::uint64_t get_fixed64(std::string_view bytes, std::size_t& pos) {
  const std::string_view raw = need_bytes(bytes, pos, 8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<std::uint8_t>(raw[i]);
  return v;
}

// --- Value writers --------------------------------------------------------

void put_null(std::string& out) { out.push_back(static_cast<char>(kNull)); }

void put_bool(std::string& out, bool b) {
  out.push_back(static_cast<char>(b ? kTrue : kFalse));
}

void put_int(std::string& out, std::int64_t v) {
  out.push_back(static_cast<char>(kInt));
  put_zigzag(out, v);
}

void put_double(std::string& out, double d) {
  out.push_back(static_cast<char>(kDouble));
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  put_fixed64(out, bits);
}

void put_str(std::string& out, std::string_view s) {
  out.push_back(static_cast<char>(kStr));
  put_varint(out, s.size());
  out.append(s);
}

void put_array(std::string& out, std::size_t n) {
  out.push_back(static_cast<char>(kArray));
  put_varint(out, n);
}

void put_object(std::string& out, std::size_t n) {
  out.push_back(static_cast<char>(kObject));
  put_varint(out, n);
}

// --- Self-contained values --------------------------------------------------

void encode_value(const json::Value& v, std::string& out) {
  if (v.is_null()) {
    put_null(out);
  } else if (v.is_bool()) {
    put_bool(out, v.as_bool());
  } else if (v.is_int()) {
    put_int(out, v.as_int());
  } else if (v.is_double()) {
    put_double(out, v.as_double());
  } else if (v.is_string()) {
    put_str(out, v.as_string());
  } else if (v.is_array()) {
    const auto& a = v.as_array();
    put_array(out, a.size());
    for (const auto& e : a) encode_value(e, out);
  } else {
    const auto& o = v.as_object();
    put_object(out, o.size());
    for (const auto& [k, e] : o) {
      put_str(out, k);
      encode_value(e, out);
    }
  }
}

std::string encode_value(const json::Value& v) {
  std::string out;
  encode_value(v, out);
  return out;
}

namespace {

double decode_double(std::string_view bytes, std::size_t& pos) {
  const std::uint64_t bits = get_fixed64(bytes, pos);
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

std::string decode_inline_string(std::string_view bytes, std::size_t& pos) {
  const std::size_t n = need_count(bytes, pos);
  return std::string(need_bytes(bytes, pos, n));
}

}  // namespace

json::Value decode_value(std::string_view bytes, std::size_t& pos) {
  const std::uint8_t tag = need_byte(bytes, pos);
  switch (tag) {
    case kNull:
      return json::Value(nullptr);
    case kFalse:
      return json::Value(false);
    case kTrue:
      return json::Value(true);
    case kInt:
      return json::Value(get_zigzag(bytes, pos));
    case kDouble:
      return json::Value(decode_double(bytes, pos));
    case kStr:
      return json::Value(decode_inline_string(bytes, pos));
    case kArray: {
      const std::size_t n = need_count(bytes, pos);
      json::Array a;
      a.reserve(n);
      for (std::size_t i = 0; i < n; ++i)
        a.push_back(decode_value(bytes, pos));
      return json::Value(std::move(a));
    }
    case kObject: {
      const std::size_t n = need_count(bytes, pos);
      json::Object o;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t ktag = need_byte(bytes, pos);
        if (ktag != kStr)
          throw WireError("wire: object key must be an inline string here");
        std::string key = decode_inline_string(bytes, pos);
        o.emplace(std::move(key), decode_value(bytes, pos));
      }
      return json::Value(std::move(o));
    }
    case kStrDef:
    case kStrRef:
      throw WireError("wire: interned string outside a stream session");
    default:
      throw WireError("wire: unknown tag byte");
  }
}

json::Value decode_value(std::string_view bytes) {
  std::size_t pos = 0;
  json::Value v = decode_value(bytes, pos);
  if (pos != bytes.size()) throw WireError("wire: trailing bytes after value");
  return v;
}

// --- StreamEncoder ----------------------------------------------------------

void StreamEncoder::encode_string(const std::string& s, std::string& out) {
  if (s.size() < kMinInternLength || ids_.size() >= kMaxEntries) {
    put_str(out, s);
    return;
  }
  auto [it, inserted] = ids_.try_emplace(s, kPendingId);
  if (inserted) {
    // First sighting: ship inline; intern only if it repeats.
    put_str(out, s);
    return;
  }
  if (it->second == kPendingId) {
    it->second = next_id_++;
    out.push_back(static_cast<char>(kStrDef));
    put_varint(out, it->second);
    put_varint(out, s.size());
    out.append(s);
    return;
  }
  out.push_back(static_cast<char>(kStrRef));
  put_varint(out, it->second);
}

void StreamEncoder::encode(const json::Value& v, std::string& out) {
  if (v.is_string()) {
    encode_string(v.as_string(), out);
  } else if (v.is_array()) {
    const auto& a = v.as_array();
    put_array(out, a.size());
    for (const auto& e : a) encode(e, out);
  } else if (v.is_object()) {
    const auto& o = v.as_object();
    put_object(out, o.size());
    for (const auto& [k, e] : o) {
      encode_string(k, out);
      encode(e, out);
    }
  } else {
    encode_value(v, out);  // scalars carry no session state
  }
}

std::string StreamEncoder::encode(const json::Value& v) {
  std::string out;
  encode(v, out);
  return out;
}

// --- StreamDecoder ----------------------------------------------------------

std::string StreamDecoder::decode_string(std::string_view bytes,
                                         std::size_t& pos, std::uint8_t tag) {
  switch (tag) {
    case kStr:
      return decode_inline_string(bytes, pos);
    case kStrDef: {
      const std::uint64_t id = get_varint(bytes, pos);
      std::string s = decode_inline_string(bytes, pos);
      if (id < dict_.size()) {
        // Retried frame: the definition must match what we already have.
        if (dict_[id] != s)
          throw WireError("wire: conflicting dictionary definition");
      } else if (id == dict_.size()) {
        dict_.push_back(s);
      } else {
        throw WireError("wire: dictionary gap (frames out of order?)");
      }
      return s;
    }
    case kStrRef: {
      const std::uint64_t id = get_varint(bytes, pos);
      if (id >= dict_.size())
        throw WireError("wire: dangling dictionary reference");
      return dict_[static_cast<std::size_t>(id)];
    }
    default:
      throw WireError("wire: expected a string tag");
  }
}

json::Value StreamDecoder::decode(std::string_view bytes, std::size_t& pos) {
  const std::uint8_t tag = need_byte(bytes, pos);
  switch (tag) {
    case kStr:
    case kStrDef:
    case kStrRef:
      return json::Value(decode_string(bytes, pos, tag));
    case kArray: {
      const std::size_t n = need_count(bytes, pos);
      json::Array a;
      a.reserve(n);
      for (std::size_t i = 0; i < n; ++i) a.push_back(decode(bytes, pos));
      return json::Value(std::move(a));
    }
    case kObject: {
      const std::size_t n = need_count(bytes, pos);
      json::Object o;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t ktag = need_byte(bytes, pos);
        std::string key = decode_string(bytes, pos, ktag);
        o.emplace(std::move(key), decode(bytes, pos));
      }
      return json::Value(std::move(o));
    }
    default:
      // Scalars are identical to the self-contained form; rewind the tag.
      --pos;
      return decode_value(bytes, pos);
  }
}

json::Value StreamDecoder::decode(std::string_view bytes) {
  std::size_t pos = 0;
  json::Value v = decode(bytes, pos);
  if (pos != bytes.size()) throw WireError("wire: trailing bytes after value");
  return v;
}

// --- Frames -----------------------------------------------------------------

void put_frame(std::string& out, std::string_view payload) {
  if (payload.size() > 0xFFFFFFFFull)
    throw WireError("wire: frame payload too large");
  put_u32le(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
}

std::string_view get_frame(std::string_view bytes, std::size_t& pos) {
  const std::string_view hdr = need_bytes(bytes, pos, 4);
  std::uint32_t len = 0;
  for (int i = 3; i >= 0; --i)
    len = (len << 8) | static_cast<std::uint8_t>(hdr[i]);
  return need_bytes(bytes, pos, len);
}

}  // namespace recup::wire
