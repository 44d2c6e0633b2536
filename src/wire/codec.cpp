#include "wire/codec.hpp"

#include <algorithm>
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

// --- Value readers ----------------------------------------------------------

std::uint8_t get_tag(std::string_view bytes, std::size_t& pos) {
  return need_byte(bytes, pos);
}

std::size_t get_count(std::string_view bytes, std::size_t& pos) {
  const std::uint64_t n = get_varint(bytes, pos);
  // Every element costs at least one byte, so a count larger than the
  // remaining payload is corrupt — reject it before reserving memory.
  if (n > bytes.size() - pos) throw WireError("wire: implausible count");
  return static_cast<std::size_t>(n);
}

std::string_view get_str(std::string_view bytes, std::size_t& pos) {
  const std::size_t n = get_count(bytes, pos);
  return need_bytes(bytes, pos, n);
}

double get_double(std::string_view bytes, std::size_t& pos) {
  const std::uint64_t bits = get_fixed64(bytes, pos);
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

std::string_view get_key(std::string_view bytes, std::size_t& pos) {
  if (need_byte(bytes, pos) != kStr) {
    throw WireError("wire: object key must be an inline string here");
  }
  return get_str(bytes, pos);
}

void skip_value(std::string_view bytes, std::size_t& pos) {
  const std::uint8_t tag = need_byte(bytes, pos);
  switch (tag) {
    case kNull:
    case kFalse:
    case kTrue:
      return;
    case kInt:
      (void)get_varint(bytes, pos);
      return;
    case kDouble:
      (void)need_bytes(bytes, pos, 8);
      return;
    case kStr:
      (void)get_str(bytes, pos);
      return;
    case kArray: {
      const std::size_t n = get_count(bytes, pos);
      for (std::size_t i = 0; i < n; ++i) skip_value(bytes, pos);
      return;
    }
    case kObject: {
      const std::size_t n = get_count(bytes, pos);
      for (std::size_t i = 0; i < n; ++i) {
        (void)get_key(bytes, pos);
        skip_value(bytes, pos);
      }
      return;
    }
    case kStrDef:
    case kStrRef:
      throw WireError("wire: interned string outside a stream session");
    default:
      throw WireError("wire: unknown tag byte");
  }
}

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
      return json::Value(get_double(bytes, pos));
    case kStr:
      return json::Value(get_str(bytes, pos));
    case kArray: {
      const std::size_t n = get_count(bytes, pos);
      json::Array a;
      a.reserve(n);
      for (std::size_t i = 0; i < n; ++i)
        a.push_back(decode_value(bytes, pos));
      return json::Value(std::move(a));
    }
    case kObject: {
      const std::size_t n = get_count(bytes, pos);
      json::Object o;
      for (std::size_t i = 0; i < n; ++i) {
        std::string key(get_key(bytes, pos));
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

void StreamEncoder::encode_string(std::string_view s, std::string& out) {
  if (s.size() < kMinInternLength || ids_.size() >= kMaxEntries) {
    put_str(out, s);
    return;
  }
  const auto it = ids_.find(s);
  if (it == ids_.end()) {
    // First sighting: ship inline; intern only if it repeats.
    ids_.emplace(std::string(s), kPendingId);
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

void StreamEncoder::transcode_value(std::string_view bytes, std::size_t& pos,
                                    std::string& out) {
  const std::uint8_t tag = need_byte(bytes, pos);
  switch (tag) {
    case kStr:
      encode_string(get_str(bytes, pos), out);
      return;
    case kArray: {
      const std::size_t n = get_count(bytes, pos);
      put_array(out, n);
      for (std::size_t i = 0; i < n; ++i) transcode_value(bytes, pos, out);
      return;
    }
    case kObject: {
      const std::size_t n = get_count(bytes, pos);
      put_object(out, n);
      for (std::size_t i = 0; i < n; ++i) {
        encode_string(get_key(bytes, pos), out);
        transcode_value(bytes, pos, out);
      }
      return;
    }
    case kInt:
      put_int(out, get_zigzag(bytes, pos));  // canonical varint
      return;
    default: {
      // The other scalars carry no session state: copy them once checked.
      const std::size_t begin = --pos;
      skip_value(bytes, pos);
      out.append(bytes.substr(begin, pos - begin));
    }
  }
}

void StreamEncoder::transcode(std::string_view value, std::string& out) {
  std::size_t pos = 0;
  transcode_value(value, pos, out);
  if (pos != value.size()) throw WireError("wire: trailing bytes after value");
}

std::string StreamEncoder::encode(const json::Value& v) {
  std::string out;
  encode(v, out);
  return out;
}

// --- StreamDecoder ----------------------------------------------------------

namespace {

/// Rewrites the object whose self-contained encoding starts at out[header]
/// (its `n` entries already appended) the way a json::Object holds it:
/// entries sorted by key, the first of each duplicate key kept.
void canonicalize_object(std::string& out, std::size_t header) {
  struct Entry {
    std::string_view key;
    std::size_t begin;
    std::size_t end;
  };
  const std::string_view bytes = out;
  std::size_t pos = header + 1;
  const std::uint64_t n = get_varint(bytes, pos);
  std::vector<Entry> entries;
  entries.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Entry entry{{}, pos, 0};
    entry.key = get_key(bytes, pos);
    skip_value(bytes, pos);
    entry.end = pos;
    entries.push_back(entry);
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.key < b.key; });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.key == b.key;
                            }),
                entries.end());
  std::string body;
  for (const Entry& entry : entries) {
    body.append(bytes.substr(entry.begin, entry.end - entry.begin));
  }
  out.resize(header);
  put_object(out, entries.size());
  out += body;
}

}  // namespace

void StreamDecoder::transcode_string(std::string_view bytes, std::size_t& pos,
                                     std::uint8_t tag, std::string& out) {
  switch (tag) {
    case kStr:
      put_str(out, get_str(bytes, pos));
      return;
    case kStrDef: {
      const std::uint64_t id = get_varint(bytes, pos);
      const std::string_view s = get_str(bytes, pos);
      if (id < dict_.size()) {
        // Retried frame: the definition must match what we already have.
        if (dict_[id] != s)
          throw WireError("wire: conflicting dictionary definition");
      } else if (id == dict_.size()) {
        dict_.emplace_back(s);
      } else {
        throw WireError("wire: dictionary gap (frames out of order?)");
      }
      put_str(out, s);
      return;
    }
    case kStrRef: {
      const std::uint64_t id = get_varint(bytes, pos);
      if (id >= dict_.size())
        throw WireError("wire: dangling dictionary reference");
      // Copied out before the next token: a definition may grow dict_ and
      // move its strings.
      put_str(out, dict_[static_cast<std::size_t>(id)]);
      return;
    }
    default:
      throw WireError("wire: expected a string tag");
  }
}

void StreamDecoder::transcode(std::string_view bytes, std::size_t& pos,
                              std::string& out) {
  const std::uint8_t tag = need_byte(bytes, pos);
  switch (tag) {
    case kStr:
    case kStrDef:
    case kStrRef:
      transcode_string(bytes, pos, tag, out);
      return;
    case kArray: {
      const std::size_t n = get_count(bytes, pos);
      put_array(out, n);
      for (std::size_t i = 0; i < n; ++i) transcode(bytes, pos, out);
      return;
    }
    case kObject: {
      const std::size_t header = out.size();
      const std::size_t n = get_count(bytes, pos);
      put_object(out, n);
      // Keys in ascending order, as every encoder of a json::Object or a
      // field list writes them, pass straight through; anything else is
      // put in canonical order once the whole object is out.
      bool ordered = true;
      std::size_t last_key = 0;
      std::size_t last_size = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t key_at = out.size();
        transcode_string(bytes, pos, need_byte(bytes, pos), out);
        std::size_t key_pos = key_at + 1;
        const std::size_t key_size = get_count(out, key_pos);
        const std::string_view written = out;
        if (i > 0 && written.substr(last_key, last_size) >=
                         written.substr(key_pos, key_size)) {
          ordered = false;
        }
        last_key = key_pos;
        last_size = key_size;
        transcode(bytes, pos, out);
      }
      if (!ordered) canonicalize_object(out, header);
      return;
    }
    case kInt:
      put_int(out, get_zigzag(bytes, pos));  // canonical varint
      return;
    default: {
      // The other scalars are identical to the self-contained form.
      const std::size_t begin = --pos;
      skip_value(bytes, pos);
      out.append(bytes.substr(begin, pos - begin));
    }
  }
}

json::Value StreamDecoder::decode(std::string_view bytes, std::size_t& pos) {
  std::string value;
  transcode(bytes, pos, value);
  return decode_value(value);
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
