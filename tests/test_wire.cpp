// Property tests for the recup::wire binary codec: round-trips against the
// JSON model for every value type, interning-dictionary behaviour across
// frames (growth, idempotent retry, ordering), and rejection of truncated
// or corrupt input.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "json/json.hpp"
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

}  // namespace
