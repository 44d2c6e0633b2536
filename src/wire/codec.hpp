// Compact binary codec for provenance event metadata and control-plane
// records (the "wire + kernel speed pass" in ROADMAP). JSON stays the
// debug/interop format; this codec carries the same json::Value model in a
// tagged binary form that is typically 3-6x smaller and much cheaper to
// parse, because the hot strings (task prefixes, state names, object keys)
// are interned once per connection and shipped as varint ids afterwards.
//
// Value encoding (one tag byte, then payload):
//   0x00 null      —
//   0x01 false     —
//   0x02 true      —
//   0x03 int64     zigzag varint
//   0x04 double    8 bytes little-endian IEEE-754
//   0x05 str       varint length + bytes            (no interning)
//   0x06 str-def   varint id + varint length + bytes (defines dictionary[id])
//   0x07 str-ref   varint id                        (dictionary lookup)
//   0x08 array     varint count + elements
//   0x09 object    varint count + (key value)*      (keys are str/def/ref)
//
// Interning: a connection is an (encoder, decoder) pair sharing a dictionary
// that starts empty and only grows. The encoder interns a string the second
// time it sees it: the first repeat ships as str-def carrying an *explicit*
// id, every later occurrence as str-ref. Carrying the id (instead of
// "append and infer") makes decoding idempotent: a producer that retries a
// frame after a transient fault re-sends identical bytes, and the decoder
// applies a str-def whose id is already present by verifying, not
// re-appending — so retried frames cannot skew the dictionary. Frames from
// one encoder must be decoded in first-delivery order (later frames may
// reference earlier definitions); retries/duplicates of already-decoded
// frames are safe in any order because every definition they carry is
// already present.
//
// Self-contained values (encode_value/decode_value) never intern (tags
// 0x05 only), so they can be stored, replayed, and read without session
// state — that is the mode WAL payloads and the metadata store use.
//
// A session transcodes bytes: StreamEncoder turns one self-contained value
// into session bytes and StreamDecoder turns them back into canonical
// self-contained bytes, so provenance events travel from a typed writer to a
// typed reader without a json::Value in between. The json::Value entry
// points are thin wrappers over the same pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "json/json.hpp"

namespace recup::wire {

class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// --- Tag bytes --------------------------------------------------------------
inline constexpr std::uint8_t kNull = 0x00;
inline constexpr std::uint8_t kFalse = 0x01;
inline constexpr std::uint8_t kTrue = 0x02;
inline constexpr std::uint8_t kInt = 0x03;
inline constexpr std::uint8_t kDouble = 0x04;
inline constexpr std::uint8_t kStr = 0x05;
inline constexpr std::uint8_t kStrDef = 0x06;
inline constexpr std::uint8_t kStrRef = 0x07;
inline constexpr std::uint8_t kArray = 0x08;
inline constexpr std::uint8_t kObject = 0x09;
inline constexpr std::uint8_t kMaxTag = kObject;

// --- Varint primitives ------------------------------------------------------
void put_varint(std::string& out, std::uint64_t v);
void put_zigzag(std::string& out, std::int64_t v);

/// Reads a LEB128 varint from bytes[pos...), advancing pos.
[[nodiscard]] std::uint64_t get_varint(std::string_view bytes,
                                       std::size_t& pos);
[[nodiscard]] std::int64_t get_zigzag(std::string_view bytes,
                                      std::size_t& pos);

/// Fixed-width 64-bit little-endian integer. Used where the value has no
/// small-number bias a varint could exploit — content fingerprints and
/// other hash-like payloads (recup::datastore proxies).
void put_fixed64(std::string& out, std::uint64_t v);
[[nodiscard]] std::uint64_t get_fixed64(std::string_view bytes,
                                        std::size_t& pos);

// --- Value writers (self-contained, no interning) ---------------------------
// Each appends one value's bytes, so a typed struct can be written without
// building a json::Value first. put_object/put_array write only the header:
// the caller then appends exactly `n` elements — for an object, `n` (key,
// value) pairs with each key written by put_str, in ascending byte order so
// the bytes equal encode_value of the same json::Object (std::map order).
void put_null(std::string& out);
void put_bool(std::string& out, bool b);
void put_int(std::string& out, std::int64_t v);
void put_double(std::string& out, double d);
void put_str(std::string& out, std::string_view s);
void put_array(std::string& out, std::size_t n);
void put_object(std::string& out, std::size_t n);

// --- Self-contained values (no session state) -------------------------------
/// Appends the binary encoding of `v` to `out`, never interning strings.
void encode_value(const json::Value& v, std::string& out);
[[nodiscard]] std::string encode_value(const json::Value& v);

/// Decodes one value from bytes[pos...), advancing pos. Throws WireError on
/// truncated or malformed input (including str-def/str-ref tags, which need
/// a session decoder).
[[nodiscard]] json::Value decode_value(std::string_view bytes,
                                       std::size_t& pos);
/// Decodes a whole buffer as exactly one value (trailing bytes -> error).
[[nodiscard]] json::Value decode_value(std::string_view bytes);

// --- Value readers (self-contained, no tree) --------------------------------
// The steps decode_value takes, for readers that walk a value's bytes
// instead of building it. Each advances pos and throws WireError on
// truncated or malformed input.
[[nodiscard]] std::uint8_t get_tag(std::string_view bytes, std::size_t& pos);
/// A varint element count or string length, rejected when it exceeds the
/// bytes left (every element costs at least one byte).
[[nodiscard]] std::size_t get_count(std::string_view bytes, std::size_t& pos);
/// The payload of a kStr value whose tag has been read.
[[nodiscard]] std::string_view get_str(std::string_view bytes,
                                       std::size_t& pos);
/// The payload of a kDouble value whose tag has been read.
[[nodiscard]] double get_double(std::string_view bytes, std::size_t& pos);
/// The key of an object entry: an inline string, as decode_value requires.
[[nodiscard]] std::string_view get_key(std::string_view bytes,
                                       std::size_t& pos);
/// Checks one value from bytes[pos...) exactly as decode_value does and
/// advances past it, without building it.
void skip_value(std::string_view bytes, std::size_t& pos);

// --- Interning sessions -----------------------------------------------------

/// Encoder half of a connection. Interns strings it has seen before; the
/// dictionary only grows, so frames must be decoded by a StreamDecoder fed
/// in first-delivery order. Copy a frame's bytes to retry it — re-encoding
/// the same values produces different (str-ref) bytes once interned.
class StreamEncoder {
 public:
  /// Strings shorter than this are never interned (a varint ref saves
  /// nothing over 1-3 inline bytes).
  static constexpr std::size_t kMinInternLength = 2;
  /// Dictionary size cap; beyond it, strings encode inline (kStr). Keeps a
  /// pathological high-cardinality stream from growing the map unboundedly.
  static constexpr std::size_t kMaxEntries = 1 << 20;

  /// Appends the session encoding of `value`, which must hold exactly one
  /// self-contained value (WireError otherwise). Entries keep their order;
  /// the decoder restores canonical key order if they were out of it.
  void transcode(std::string_view value, std::string& out);

  void encode(const json::Value& v, std::string& out) {
    transcode(encode_value(v), out);
  }
  [[nodiscard]] std::string encode(const json::Value& v);

  [[nodiscard]] std::size_t dictionary_size() const { return ids_.size(); }

 private:
  void transcode_value(std::string_view bytes, std::size_t& pos,
                       std::string& out);
  void encode_string(std::string_view s, std::string& out);

  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  // id when interned; kPendingId after the first sighting (interned on the
  // second so one-shot strings never pollute the dictionary).
  static constexpr std::uint32_t kPendingId = 0xFFFFFFFF;
  std::unordered_map<std::string, std::uint32_t, StringHash, std::equal_to<>>
      ids_;
  std::uint32_t next_id_ = 0;
};

/// Decoder half of a connection. Applies str-def entries idempotently:
/// id < size() must match the existing entry (byte-for-byte), id == size()
/// appends, anything else is a WireError (a gap means frames arrived before
/// their definitions — out of first-delivery order).
class StreamDecoder {
 public:
  /// Reads one session value from bytes[pos...) and appends its canonical
  /// self-contained encoding: the bytes of encode_value(decode(bytes, pos)),
  /// with object keys in ascending order and the first of duplicate keys.
  void transcode(std::string_view bytes, std::size_t& pos, std::string& out);

  [[nodiscard]] json::Value decode(std::string_view bytes, std::size_t& pos);
  /// Whole buffer as exactly one value (trailing bytes -> error).
  [[nodiscard]] json::Value decode(std::string_view bytes);

  [[nodiscard]] std::size_t dictionary_size() const { return dict_.size(); }

 private:
  /// Appends the string a kStr/kStrDef/kStrRef token names, inline.
  void transcode_string(std::string_view bytes, std::size_t& pos,
                        std::uint8_t tag, std::string& out);
  std::vector<std::string> dict_;
};

// --- Frames -----------------------------------------------------------------
// A frame is [u32 little-endian payload length][payload]; the payload is a
// sequence of encoded values. Used where a byte stream needs
// self-delimiting messages (producer batches, test harnesses).
void put_frame(std::string& out, std::string_view payload);
/// Extracts the next frame payload from bytes[pos...), advancing pos past
/// it. Throws WireError if the header or payload is truncated.
[[nodiscard]] std::string_view get_frame(std::string_view bytes,
                                         std::size_t& pos);

}  // namespace recup::wire
