// Property tests for the recup::wire binary codec: round-trips against the
// JSON model for every value type, interning-dictionary behaviour across
// frames (growth, idempotent retry, ordering), rejection of truncated or
// corrupt input, the byte transcoders against the tree-walking session codec
// they replaced (kept here as the reference), and the producer's stamps.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "json/json.hpp"
#include "mofka/wire.hpp"
#include "wire/codec.hpp"

namespace {

using recup::json::Array;
using recup::json::Object;
using recup::json::Value;
namespace wire = recup::wire;

// Random JSON value generator, depth-limited so arrays/objects terminate.
Value random_value(std::mt19937_64& rng, int depth) {
  std::uniform_int_distribution<int> kind_dist(0, depth > 0 ? 6 : 4);
  switch (kind_dist(rng)) {
    case 0:
      return Value(nullptr);
    case 1:
      return Value(rng() % 2 == 0);
    case 2: {
      // Bias toward small magnitudes but include full-range int64s.
      if (rng() % 4 == 0) return Value(static_cast<std::int64_t>(rng()));
      return Value(static_cast<std::int64_t>(rng() % 4096) - 2048);
    }
    case 3:
      return Value(std::uniform_real_distribution<double>(-1e12, 1e12)(rng));
    case 4: {
      const std::size_t len = rng() % 24;
      std::string s;
      for (std::size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('a' + rng() % 26));
      }
      return Value(std::move(s));
    }
    case 5: {
      Array a;
      const std::size_t count = rng() % 5;
      for (std::size_t i = 0; i < count; ++i) {
        a.push_back(random_value(rng, depth - 1));
      }
      return Value(std::move(a));
    }
    default: {
      Object o;
      const std::size_t count = rng() % 5;
      for (std::size_t i = 0; i < count; ++i) {
        o["key_" + std::to_string(rng() % 8)] = random_value(rng, depth - 1);
      }
      return Value(std::move(o));
    }
  }
}

TEST(WireCodec, ScalarRoundTrip) {
  const std::vector<Value> cases = {
      Value(nullptr),
      Value(true),
      Value(false),
      Value(std::int64_t{0}),
      Value(std::int64_t{-1}),
      Value(std::numeric_limits<std::int64_t>::max()),
      Value(std::numeric_limits<std::int64_t>::min()),
      Value(0.0),
      Value(-2.5),
      Value(1e308),
      Value(std::string("hello")),
      Value(std::string("")),
  };
  for (const Value& v : cases) {
    const std::string bytes = wire::encode_value(v);
    EXPECT_EQ(wire::decode_value(bytes), v) << v.dump();
  }
}

TEST(WireCodec, RandomizedRoundTripMatchesJsonModel) {
  std::mt19937_64 rng(0xC0DEC);
  for (int i = 0; i < 500; ++i) {
    const Value v = random_value(rng, 3);
    const std::string bytes = wire::encode_value(v);
    const Value back = wire::decode_value(bytes);
    ASSERT_EQ(back, v) << v.dump();
    // The decoded value serializes identically, so binary storage is
    // transparent to every JSON consumer downstream.
    ASSERT_EQ(back.dump(), v.dump());
  }
}

TEST(WireCodec, EmptyAndHugeStrings) {
  Object o;
  o["empty"] = std::string();
  o["huge"] = std::string(1 << 20, 'x');
  std::string nul_bytes("a\0b\xff", 4);
  o["binary"] = nul_bytes;  // embedded NUL + high bytes survive
  const Value v(std::move(o));
  const Value back = wire::decode_value(wire::encode_value(v));
  EXPECT_EQ(back, v);
  EXPECT_EQ(back.at("huge").as_string().size(), 1u << 20);
  EXPECT_EQ(back.at("binary").as_string(), nul_bytes);
}

TEST(WireCodec, SelfContainedIsSmallerThanJson) {
  // Representative provenance event metadata.
  Object o;
  o["task_id"] = std::string("imageprocessing-000123-segment");
  o["state"] = std::string("RUNNING");
  o["worker"] = std::string("nid004512");
  o["ts"] = 1723200000.125;
  o["attempt"] = 1;
  const Value v(std::move(o));
  EXPECT_LT(wire::encode_value(v).size(), v.dump().size());
}

TEST(WireCodec, StreamInterningShrinksRepeatedFrames) {
  wire::StreamEncoder enc;
  wire::StreamDecoder dec;
  Object o;
  o["task_state"] = std::string("TASK_COMPLETED");
  o["hostname"] = std::string("nid004512");
  const Value v(std::move(o));

  // Frame 1: every string inline (first sighting). Frame 2: repeats get
  // str-def (second sighting, interned). Frame 3+: str-ref only.
  const std::string f1 = enc.encode(v);
  const std::string f2 = enc.encode(v);
  const std::string f3 = enc.encode(v);
  EXPECT_EQ(enc.dictionary_size(), 4u);  // 2 keys + 2 values
  EXPECT_LT(f3.size(), f1.size());
  EXPECT_EQ(dec.decode(f1), v);
  EXPECT_EQ(dec.decode(f2), v);
  EXPECT_EQ(dec.decode(f3), v);
  EXPECT_EQ(dec.dictionary_size(), 4u);
}

TEST(WireCodec, DictionaryGrowsAcrossFrames) {
  wire::StreamEncoder enc;
  wire::StreamDecoder dec;
  // Distinct strings per frame, each repeated within a later frame so they
  // all intern eventually; decode in order and verify every frame.
  std::vector<Value> values;
  std::vector<std::string> frames;
  for (int frame = 0; frame < 20; ++frame) {
    Array a;
    for (int i = 0; i <= frame; ++i) {
      a.push_back(Value("shared_string_" + std::to_string(i)));
    }
    values.emplace_back(std::move(a));
    frames.push_back(enc.encode(values.back()));
  }
  // The encoder has sighted all 20 strings; the decoder's dictionary holds
  // the 19 that were seen twice and thus shipped as definitions (the newest
  // string is still pending on the encoder side).
  EXPECT_EQ(enc.dictionary_size(), 20u);
  std::size_t last_dict = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(dec.decode(frames[i]), values[i]);
    EXPECT_GE(dec.dictionary_size(), last_dict);  // only grows
    last_dict = dec.dictionary_size();
  }
  EXPECT_EQ(dec.dictionary_size(), 19u);
}

TEST(WireCodec, RetriedFrameDecodesIdempotently) {
  wire::StreamEncoder enc;
  wire::StreamDecoder dec;
  const Value v(Array{Value("retry_me"), Value("retry_me")});
  const std::string f1 = enc.encode(v);  // second occurrence ships str-def
  const std::string f2 = enc.encode(v);  // str-ref form

  EXPECT_EQ(dec.decode(f1), v);
  const std::size_t dict_after_first = dec.dictionary_size();
  // A producer retrying after a lost ack re-sends identical bytes; the
  // str-def inside must verify against the existing entry, not re-append.
  EXPECT_EQ(dec.decode(f1), v);
  EXPECT_EQ(dec.dictionary_size(), dict_after_first);
  EXPECT_EQ(dec.decode(f2), v);
  EXPECT_EQ(dec.decode(f2), v);
}

TEST(WireCodec, OutOfOrderFrameRejected) {
  wire::StreamEncoder enc;
  const Value v(Array{Value("needs_definition"), Value("needs_definition")});
  (void)enc.encode(v);                    // frame 1 carries the str-def
  const std::string f2 = enc.encode(v);   // frame 2 is str-ref only
  wire::StreamDecoder fresh;
  EXPECT_THROW((void)fresh.decode(f2), wire::WireError);
}

TEST(WireCodec, ShortStringsNeverInterned) {
  wire::StreamEncoder enc;
  const Value v(Array{Value("a"), Value("a"), Value("a")});
  (void)enc.encode(v);
  (void)enc.encode(v);
  EXPECT_EQ(enc.dictionary_size(), 0u);
}

TEST(WireCodec, SessionTagsRejectedBySelfContainedDecoder) {
  wire::StreamEncoder enc;
  const Value v(Array{Value("session_string"), Value("session_string")});
  (void)enc.encode(v);
  const std::string interned = enc.encode(v);  // contains str-ref
  EXPECT_THROW((void)wire::decode_value(interned), wire::WireError);
}

TEST(WireCodec, EveryTruncationRejected) {
  std::mt19937_64 rng(7);
  const Value v = random_value(rng, 3);
  const std::string bytes = wire::encode_value(v);
  ASSERT_FALSE(bytes.empty());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW((void)wire::decode_value(bytes.substr(0, cut)),
                 wire::WireError)
        << "prefix length " << cut;
  }
}

TEST(WireCodec, CorruptInputRejected) {
  // Unknown tag bytes.
  for (int tag = wire::kMaxTag + 1; tag < 0x20; ++tag) {
    const std::string bad(1, static_cast<char>(tag));
    EXPECT_THROW((void)wire::decode_value(bad), wire::WireError) << tag;
  }
  // Trailing garbage after a complete value.
  std::string bytes = wire::encode_value(Value(std::int64_t{42}));
  bytes.push_back('\x00');
  EXPECT_THROW((void)wire::decode_value(bytes), wire::WireError);
  // String length varint claiming more bytes than the buffer holds.
  std::string lying;
  lying.push_back(static_cast<char>(wire::kStr));
  wire::put_varint(lying, 1'000'000);
  lying += "short";
  EXPECT_THROW((void)wire::decode_value(lying), wire::WireError);
}

TEST(WireCodec, VarintEdgeCases) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{127}, std::uint64_t{128},
        std::uint64_t{1} << 32, std::numeric_limits<std::uint64_t>::max()}) {
    std::string out;
    wire::put_varint(out, v);
    std::size_t pos = 0;
    EXPECT_EQ(wire::get_varint(out, pos), v);
    EXPECT_EQ(pos, out.size());
  }
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    std::string out;
    wire::put_zigzag(out, v);
    std::size_t pos = 0;
    EXPECT_EQ(wire::get_zigzag(out, pos), v);
  }
  // Truncated varint (continuation bit set on the last byte).
  const std::string truncated(1, '\x80');
  std::size_t pos = 0;
  EXPECT_THROW((void)wire::get_varint(truncated, pos), wire::WireError);
}

TEST(WireCodec, FrameRoundTripAndTruncation) {
  std::string stream;
  wire::put_frame(stream, "first payload");
  wire::put_frame(stream, "");
  wire::put_frame(stream, "third");
  std::size_t pos = 0;
  EXPECT_EQ(wire::get_frame(stream, pos), "first payload");
  EXPECT_EQ(wire::get_frame(stream, pos), "");
  EXPECT_EQ(wire::get_frame(stream, pos), "third");
  EXPECT_EQ(pos, stream.size());
  // Truncated header: fewer than 4 length bytes available.
  std::size_t p = 0;
  EXPECT_THROW((void)wire::get_frame(stream.substr(0, 2), p), wire::WireError);
  // Truncated payload: header present but the last byte is missing.
  p = 0;
  const std::string partial = stream.substr(0, stream.size() - 1);
  EXPECT_EQ(wire::get_frame(partial, p), "first payload");
  EXPECT_EQ(wire::get_frame(partial, p), "");
  EXPECT_THROW((void)wire::get_frame(partial, p), wire::WireError);
}

// --- Byte transcoders against the tree codec ---------------------------------

/// The tree-walking session encoder the byte transcoder replaced: the
/// reference its bytes and dictionary must match.
class TreeEncoder {
 public:
  void encode(const Value& v, std::string& out) {
    if (v.is_string()) {
      encode_string(v.as_string(), out);
    } else if (v.is_array()) {
      wire::put_array(out, v.as_array().size());
      for (const Value& e : v.as_array()) encode(e, out);
    } else if (v.is_object()) {
      wire::put_object(out, v.as_object().size());
      for (const auto& [k, e] : v.as_object()) {
        encode_string(k, out);
        encode(e, out);
      }
    } else {
      wire::encode_value(v, out);
    }
  }
  [[nodiscard]] std::size_t dictionary_size() const { return ids_.size(); }

 private:
  void encode_string(const std::string& s, std::string& out) {
    if (s.size() < wire::StreamEncoder::kMinInternLength ||
        ids_.size() >= wire::StreamEncoder::kMaxEntries) {
      wire::put_str(out, s);
      return;
    }
    auto [it, inserted] = ids_.try_emplace(s, kPending);
    if (inserted) {
      wire::put_str(out, s);
    } else if (it->second == kPending) {
      it->second = next_id_++;
      out.push_back(static_cast<char>(wire::kStrDef));
      wire::put_varint(out, it->second);
      wire::put_varint(out, s.size());
      out += s;
    } else {
      out.push_back(static_cast<char>(wire::kStrRef));
      wire::put_varint(out, it->second);
    }
  }
  static constexpr std::uint32_t kPending = 0xFFFFFFFF;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::uint32_t next_id_ = 0;
};

/// The tree-building session decoder the byte transcoder replaced.
class TreeDecoder {
 public:
  Value decode(std::string_view bytes, std::size_t& pos) {
    const std::uint8_t tag = wire::get_tag(bytes, pos);
    switch (tag) {
      case wire::kStr:
      case wire::kStrDef:
      case wire::kStrRef:
        return Value(decode_string(bytes, pos, tag));
      case wire::kArray: {
        const std::size_t n = wire::get_count(bytes, pos);
        Array a;
        for (std::size_t i = 0; i < n; ++i) a.push_back(decode(bytes, pos));
        return Value(std::move(a));
      }
      case wire::kObject: {
        const std::size_t n = wire::get_count(bytes, pos);
        Object o;
        for (std::size_t i = 0; i < n; ++i) {
          std::string key =
              decode_string(bytes, pos, wire::get_tag(bytes, pos));
          o.emplace(std::move(key), decode(bytes, pos));
        }
        return Value(std::move(o));
      }
      default:
        --pos;
        return wire::decode_value(bytes, pos);
    }
  }
  [[nodiscard]] std::size_t dictionary_size() const { return dict_.size(); }

 private:
  std::string decode_string(std::string_view bytes, std::size_t& pos,
                            std::uint8_t tag) {
    if (tag == wire::kStr) return std::string(wire::get_str(bytes, pos));
    if (tag == wire::kStrDef) {
      const std::uint64_t id = wire::get_varint(bytes, pos);
      std::string s(wire::get_str(bytes, pos));
      if (id < dict_.size()) {
        if (dict_[id] != s) throw wire::WireError("conflicting definition");
      } else if (id == dict_.size()) {
        dict_.push_back(s);
      } else {
        throw wire::WireError("dictionary gap");
      }
      return s;
    }
    if (tag == wire::kStrRef) {
      const std::uint64_t id = wire::get_varint(bytes, pos);
      if (id >= dict_.size()) throw wire::WireError("dangling reference");
      return dict_[id];
    }
    throw wire::WireError("expected a string tag");
  }
  std::vector<std::string> dict_;
};

TEST(WireCodec, TranscodedSessionsMatchTreeCodec) {
  // Multi-value frames over one session: the byte encoder writes the tree
  // encoder's bytes and grows the same dictionary, and the byte decoder
  // gives encode_value of the tree decoder's values.
  std::mt19937_64 rng(0xC0DEC);
  wire::StreamEncoder encoder;
  TreeEncoder tree_encoder;
  wire::StreamDecoder decoder;
  TreeDecoder tree_decoder;
  for (int frame = 0; frame < 200; ++frame) {
    std::vector<Value> values;
    for (int i = 0; i < 4; ++i) values.push_back(random_value(rng, 3));
    values.emplace_back("repeated_" + std::to_string(frame % 5));
    std::string bytes;
    std::string expected;
    for (const Value& v : values) {
      encoder.transcode(wire::encode_value(v), bytes);
      tree_encoder.encode(v, expected);
    }
    ASSERT_EQ(bytes, expected) << "frame " << frame;
    ASSERT_EQ(encoder.dictionary_size(), tree_encoder.dictionary_size());
    std::size_t pos = 0;
    std::size_t tree_pos = 0;
    for (const Value& v : values) {
      std::string canonical;
      decoder.transcode(bytes, pos, canonical);
      const Value tree = tree_decoder.decode(bytes, tree_pos);
      ASSERT_EQ(tree, v);
      ASSERT_EQ(canonical, wire::encode_value(tree)) << "frame " << frame;
    }
    ASSERT_EQ(pos, bytes.size());
    ASSERT_EQ(decoder.dictionary_size(), tree_decoder.dictionary_size());
  }
  EXPECT_GT(decoder.dictionary_size(), 8u);  // keys and repeated values
}

TEST(WireCodec, DecoderWritesObjectKeysInCanonicalOrder) {
  // Keys out of order, or repeated, come out as a json::Object holds them:
  // sorted, the first of a repeated key kept. Nested objects too.
  std::string frame;
  wire::put_array(frame, 1);
  wire::put_object(frame, 4);
  wire::put_str(frame, "b");
  wire::put_int(frame, 1);
  wire::put_str(frame, "a");
  wire::put_object(frame, 2);
  wire::put_str(frame, "z");
  wire::put_null(frame);
  wire::put_str(frame, "y");
  wire::put_bool(frame, true);
  wire::put_str(frame, "b");
  wire::put_int(frame, 3);
  wire::put_str(frame, "c");
  wire::put_str(frame, "last");
  wire::StreamDecoder decoder;
  std::size_t pos = 0;
  std::string canonical;
  decoder.transcode(frame, pos, canonical);
  EXPECT_EQ(pos, frame.size());
  TreeDecoder tree_decoder;
  std::size_t tree_pos = 0;
  const Value tree = tree_decoder.decode(frame, tree_pos);
  EXPECT_EQ(canonical, wire::encode_value(tree));
  EXPECT_EQ(tree.at(std::size_t{0}).at("b").as_int(), 1);
  EXPECT_EQ(wire::StreamDecoder().decode(frame), tree);
}

/// The tree decoder's outcome for `frame` after `primer`: the canonical
/// bytes of the value, or "WireError".
std::string tree_outcome(const std::string& primer, const std::string& frame) {
  TreeDecoder decoder;
  std::size_t pos = 0;
  (void)decoder.decode(primer, pos);
  try {
    pos = 0;
    const Value v = decoder.decode(frame, pos);
    if (pos != frame.size()) return "WireError";
    return wire::encode_value(v);
  } catch (const wire::WireError&) {
    return "WireError";
  }
}

std::string byte_outcome(const std::string& primer, const std::string& frame) {
  wire::StreamDecoder decoder;
  std::size_t pos = 0;
  std::string ignored;
  decoder.transcode(primer, pos, ignored);
  try {
    pos = 0;
    std::string canonical;
    decoder.transcode(frame, pos, canonical);
    if (pos != frame.size()) return "WireError";
    return canonical;
  } catch (const wire::WireError&) {
    return "WireError";
  }
}

TEST(WireCodec, EveryTruncatedOrCorruptSessionFrameMatchesTreeCodec) {
  // A session frame with inline strings, definitions and references, after
  // a first frame that taught the decoder. Every truncation is a WireError;
  // every single-bit flip ends the same way on both decoders (a WireError,
  // or the same canonical value), and an unknown tag byte anywhere a tag
  // sits is a WireError.
  std::mt19937_64 rng(41);
  Array values;
  for (int i = 0; i < 3; ++i) values.push_back(random_value(rng, 2));
  values.push_back(Value("shared_text"));
  const Value v(std::move(values));
  wire::StreamEncoder encoder;
  const std::string primer = encoder.encode(v);
  const std::string frame = encoder.encode(v);
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const std::string truncated = frame.substr(0, cut);
    EXPECT_EQ(byte_outcome(primer, truncated), "WireError") << "cut " << cut;
    EXPECT_EQ(tree_outcome(primer, truncated), "WireError") << "cut " << cut;
  }
  std::size_t errors = 0;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = frame;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      const std::string outcome = byte_outcome(primer, corrupt);
      EXPECT_EQ(outcome, tree_outcome(primer, corrupt))
          << "byte " << i << " bit " << bit;
      errors += outcome == "WireError" ? 1 : 0;
    }
  }
  EXPECT_GT(errors, 0u);
  for (int tag = wire::kMaxTag + 1; tag < 0x100; ++tag) {
    std::string corrupt = frame;
    corrupt[0] = static_cast<char>(tag);
    EXPECT_EQ(byte_outcome(primer, corrupt), "WireError") << tag;
  }
}

TEST(WireCodec, SkipValueChecksWhatDecodeValueChecks) {
  std::mt19937_64 rng(43);
  for (int i = 0; i < 20; ++i) {
    const std::string bytes = wire::encode_value(random_value(rng, 3));
    for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
      const std::string prefix = bytes.substr(0, cut);
      std::size_t pos = 0;
      bool skipped = true;
      try {
        wire::skip_value(prefix, pos);
      } catch (const wire::WireError&) {
        skipped = false;
      }
      bool decoded = true;
      try {
        std::size_t at = 0;
        (void)wire::decode_value(prefix, at);
        if (skipped) {
          EXPECT_EQ(at, pos);
        }
      } catch (const wire::WireError&) {
        decoded = false;
      }
      EXPECT_EQ(skipped, decoded) << "cut " << cut;
    }
  }
  for (int tag = wire::kStrDef; tag < 0x20; ++tag) {
    if (tag == wire::kArray || tag == wire::kObject) continue;
    std::size_t pos = 0;
    EXPECT_THROW(wire::skip_value(std::string(1, static_cast<char>(tag)), pos),
                 wire::WireError)
        << tag;
  }
}

TEST(WireCodec, StampingMatchesTreeStamping) {
  // The producer's stamps go where a json::Object puts them: "A", "0" and
  // "_a" sort before "_pid", "_q" between the stamps, "a" after both, and
  // stamps already present are overwritten.
  namespace mofka = recup::mofka;
  const std::vector<std::string> keys = {"A",  "0",    "_a", "_pid",
                                         "_q", "_seq", "a"};
  const std::uint64_t pid = (1ULL << 63) + 5;  // travels as int64
  for (unsigned subset = 0; subset < (1u << keys.size()); ++subset) {
    Object o;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      if (subset & (1u << k)) o[keys[k]] = Value("old " + keys[k]);
    }
    Value tree(std::move(o));
    std::string bytes = wire::encode_value(tree);
    ASSERT_TRUE(mofka::stamp_metadata(bytes, {pid, 41}));
    tree["_pid"] = pid;
    tree["_seq"] = 41;
    EXPECT_EQ(bytes, wire::encode_value(tree)) << tree.dump();
    const auto stamps = mofka::read_stamps(bytes);
    ASSERT_TRUE(stamps.has_value());
    EXPECT_EQ(stamps->pid, pid);
    EXPECT_EQ(stamps->seq, 41u);
  }
  // Anything but an object is neither stamped nor carries stamps.
  for (const Value& v :
       {Value(nullptr), Value(3), Value("text"),
        Value(Array{Value(Object{{"_pid", Value(1)}, {"_seq", Value(2)}})})}) {
    std::string bytes = wire::encode_value(v);
    const std::string before = bytes;
    EXPECT_FALSE(mofka::stamp_metadata(bytes, {1, 2}));
    EXPECT_EQ(bytes, before);
    EXPECT_FALSE(mofka::read_stamps(bytes).has_value());
  }
  // Both stamps or none; a stamp that is not an integer is a TypeError, but
  // only once the bytes themselves are sound.
  EXPECT_FALSE(mofka::read_stamps(
                   wire::encode_value(Value(Object{{"_pid", Value(1)}})))
                   .has_value());
  const std::string mistyped = wire::encode_value(
      Value(Object{{"_pid", Value("one")}, {"_seq", Value(2)}}));
  EXPECT_THROW((void)mofka::read_stamps(mistyped), recup::json::TypeError);
  EXPECT_THROW((void)mofka::read_stamps(mistyped.substr(0, 8)),
               wire::WireError);
  EXPECT_THROW((void)mofka::read_stamps(mistyped + '\0'), wire::WireError);
  std::string truncated = wire::encode_value(Value(Object{{"a", Value(1)}}));
  truncated.pop_back();
  EXPECT_THROW((void)mofka::stamp_metadata(truncated, {1, 2}),
               wire::WireError);
  std::string trailing = wire::encode_value(Value(3)) + '\0';
  EXPECT_THROW((void)mofka::stamp_metadata(trailing, {1, 2}), wire::WireError);
}

}  // namespace
