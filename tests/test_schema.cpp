// Tests for the provenance record schema (dtr/schema.hpp): each record type's
// one field list and the five codecs derived from it.
//
// - Pinned digests hold the bytes of to_wire(r) and to_json(r).dump() for
//   every type over a seeded generator, so Mofka metadata, the broker WAL and
//   the scheduler journal cannot drift.
// - The strict reader requires every key the writer always emits, reads an
//   omitted list back as empty and ignores keys outside the schema.
// - A record read back from its tree, or from the tree decoded off the wire,
//   encodes to the same bytes.
// - The wire reader and the text writer agree with the tree codecs they
//   stand in for: from_wire with from_json(wire::decode_value(bytes)) on
//   valid, mutated and truncated bytes, to_json_text with to_json(r).dump().
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dtr/schema.hpp"
#include "wire/codec.hpp"

namespace recup::dtr {
namespace {

/// Seeded records of every schema type. The values reach the edges the
/// codecs must carry exactly: any byte in a string, NaN, infinities and
/// signed zeros, the int64 extremes and uint64 values above INT64_MAX. No
/// library distribution is used, so the pinned digests depend only on the
/// engine, which the standard fixes.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : rng_(seed) {}

  std::uint64_t below(std::uint64_t n) { return rng_() % n; }
  bool coin() { return below(2) == 0; }

  std::string text() {
    std::string s(below(12), '\0');  // often empty
    for (char& c : s) c = static_cast<char>(below(256));
    return s;
  }
  double real() {
    switch (below(6)) {
      case 0: return std::numeric_limits<double>::quiet_NaN();
      case 1: return std::numeric_limits<double>::infinity();
      case 2: return -0.0;
      case 3: return 0.0;  // integral doubles stay doubles
      default: return static_cast<double>(rng_() >> 11) * 0x1p-33 - 5e5;
    }
  }
  std::int64_t integer() {
    switch (below(4)) {
      case 0: return -1;
      case 1: return std::numeric_limits<std::int64_t>::min();
      case 2: return std::numeric_limits<std::int64_t>::max();
      default: return static_cast<std::int64_t>(rng_() >> below(64));
    }
  }
  std::uint64_t u64() {
    return coin() ? (1ULL << 63) + (rng_() >> 1) : rng_() >> below(64);
  }
  std::uint32_t u32() { return static_cast<std::uint32_t>(rng_()); }

  TaskKey key() { return TaskKey{.group = text(), .index = integer()}; }
  std::vector<TaskKey> keys(std::size_t n) {
    std::vector<TaskKey> out(n);
    for (TaskKey& k : out) k = key();
    return out;
  }
  IoOpSpec io() {
    return IoOpSpec{
        .path = text(), .offset = u64(), .length = u64(), .is_write = coin()};
  }
  gpuprof::KernelSpec kernel() {
    return gpuprof::KernelSpec{
        .name = text(), .duration = real(), .launches = u32()};
  }
  /// `lists` picks which of reads (1), writes (2), kernels (4) are non-empty.
  TaskWork work(int lists) {
    TaskWork w;
    w.compute = real();
    w.compute_noise_sigma = real();
    if (lists & 1) w.reads = {io(), io()};
    if (lists & 2) w.writes = {io()};
    if (lists & 4) w.kernels = {kernel(), kernel(), kernel()};
    w.output_bytes = u64();
    w.scratch_bytes = u64();
    w.blocks_event_loop = coin();
    w.failure_probability = real();
    w.releasable = coin();
    return w;
  }
  /// `lists` adds dependencies (8) to the work's lists.
  TaskSpec spec(int lists) {
    TaskSpec s;
    s.key = key();
    s.dependencies = keys((lists & 8) ? 1 + below(3) : 0);
    s.work = work(lists);
    s.priority = static_cast<int>(u32());
    return s;
  }
  TransitionRecord transition() {
    return TransitionRecord{.key = key(),
                            .graph = text(),
                            .from_state = text(),
                            .to_state = text(),
                            .stimulus = text(),
                            .location = text(),
                            .time = real()};
  }
  TaskRecord task() {
    return TaskRecord{.key = key(),
                      .graph = text(),
                      .prefix = text(),
                      .worker = u32(),
                      .worker_address = text(),
                      .thread_id = u64(),
                      .lane = u32(),
                      .received_time = real(),
                      .ready_time = real(),
                      .start_time = real(),
                      .end_time = real(),
                      .compute_time = real(),
                      .io_time = real(),
                      .gpu_time = real(),
                      .output_bytes = u64(),
                      .bytes_read = u64(),
                      .bytes_written = u64(),
                      .bytes_oob = u64(),
                      .bytes_inline = u64(),
                      .retries = u32(),
                      .stolen = coin(),
                      .dependencies = keys(below(4))};
  }
  CommRecord comm() {
    return CommRecord{.key = key(),
                      .source = u32(),
                      .destination = u32(),
                      .source_address = text(),
                      .destination_address = text(),
                      .bytes = u64(),
                      .start = real(),
                      .end = real(),
                      .cross_node = coin(),
                      .cold_connection = coin(),
                      .oob = coin()};
  }
  WarningRecord warning() {
    return WarningRecord{.kind = text(),
                         .location = text(),
                         .time = real(),
                         .blocked_for = real(),
                         .message = text()};
  }
  StealRecord steal() {
    return StealRecord{.key = key(),
                       .victim = u32(),
                       .thief = u32(),
                       .time = real(),
                       .estimated_transfer_cost = real(),
                       .estimated_compute_cost = real()};
  }
  darshan::PosixRecord posix() {
    darshan::PosixRecord r;
    r.file_path = text();
    r.process_id = u32();
    r.hostname = text();
    r.opens = u64();
    r.reads = u64();
    r.writes = u64();
    r.bytes_read = u64();
    r.bytes_written = u64();
    r.max_byte_read = u64();
    r.max_byte_written = u64();
    r.read_time = real();
    r.write_time = real();
    r.meta_time = real();
    return r;
  }
  DxtSegmentEvent dxt() {
    DxtSegmentEvent e;
    e.file_path = text();
    e.process_id = u32();
    e.hostname = text();
    e.segment.op = coin() ? darshan::IoOp::kRead : darshan::IoOp::kWrite;
    e.segment.offset = u64();
    e.segment.length = u64();
    e.segment.start = real();
    e.segment.end = real();
    e.segment.thread_id = u64();
    return e;
  }

 private:
  std::mt19937_64 rng_;
};

constexpr int kRecords = 64;  // per type; covers all 16 spec list choices

/// Calls check(type, omittable, make) for each of the ten types, where
/// make(gen, i) returns the type's i-th seeded record and `omittable` names
/// the lists its writer leaves out when empty, by their path in the tree.
template <typename Check>
void for_each_type(Check&& check) {
  check("TaskKey", {}, [](Gen& g, int) { return g.key(); });
  check("TransitionRecord", {}, [](Gen& g, int) { return g.transition(); });
  check("TaskRecord", {}, [](Gen& g, int) { return g.task(); });
  check("CommRecord", {}, [](Gen& g, int) { return g.comm(); });
  check("WarningRecord", {}, [](Gen& g, int) { return g.warning(); });
  check("StealRecord", {}, [](Gen& g, int) { return g.steal(); });
  check("TaskSpec",
        {"dependencies", "work.kernels", "work.reads", "work.writes"},
        [](Gen& g, int i) { return g.spec(i % 16); });
  check("TaskWork", {"kernels", "reads", "writes"},
        [](Gen& g, int i) { return g.work(i % 8); });
  check("IoOpSpec", {}, [](Gen& g, int) { return g.io(); });
  check("KernelSpec", {}, [](Gen& g, int) { return g.kernel(); });
}

/// for_each_type plus the Darshan bridge's two event shapes.
template <typename Check>
void for_each_streamed_type(Check&& check) {
  for_each_type(check);
  check("PosixRecord", {}, [](Gen& g, int) { return g.posix(); });
  check("DxtSegmentEvent", {}, [](Gen& g, int) { return g.dxt(); });
}

std::string wired(const auto& record) {
  std::string out;
  to_wire(record, out);
  return out;
}

TEST(RecordSchema, EncodingsMatchPinnedDigests) {
  // FNV-1a of each type's kRecords to_wire encodings back to back, and of
  // their to_json(r).dump() lines, recorded from the hand-written codecs the
  // field lists replaced. A change here moves the bytes of Mofka metadata,
  // the broker WAL and the scheduler journal.
  static const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
      kPinned = {
          {"TaskKey", {0x7450d0bc30dc1b3eULL, 0xb1b34e49f6a8a3b3ULL}},
          {"TransitionRecord", {0x6974ed30bb702801ULL, 0x138119e5edd1587aULL}},
          {"TaskRecord", {0xf7e37f9dfeb5c240ULL, 0x389ca34d0616b2aULL}},
          {"CommRecord", {0x2190a1cb27cfca69ULL, 0x9c98ca1fbc287a65ULL}},
          {"WarningRecord", {0x5740cc22ea885582ULL, 0x4c00cefb536dfd4ULL}},
          {"StealRecord", {0x3660dd9d8a53875aULL, 0x958ccf979a89665aULL}},
          {"TaskSpec", {0xee75acddf650f38fULL, 0xd8cbebb3886a4bcULL}},
          {"TaskWork", {0x76da5aef5aaf79c5ULL, 0x7a85ebecd50f38cfULL}},
          {"IoOpSpec", {0x33105b00fa0c63e6ULL, 0x2da595e4f2dbb0cdULL}},
          {"KernelSpec", {0xfdfecf14053f6c47ULL, 0x5c6f6e93aa5ca45fULL}},
      };
  std::size_t checked = 0;
  for_each_type([&](const char* type, const std::set<std::string>&,
                    auto make) {
    Gen gen(0x736368656d61ULL);  // "schema"
    std::string bytes;
    std::string lines;
    for (int i = 0; i < kRecords; ++i) {
      const auto record = make(gen, i);
      to_wire(record, bytes);
      lines += to_json(record).dump();
      lines += '\n';
    }
    const std::pair digests{fnv1a64(bytes), fnv1a64(lines)};
    char now[64];
    std::snprintf(now, sizeof(now), "{0x%" PRIx64 "ULL, 0x%" PRIx64 "ULL}",
                  digests.first, digests.second);
    EXPECT_EQ(digests, kPinned.at(type)) << type << " is now " << now;
    ++checked;
  });
  EXPECT_EQ(checked, kPinned.size());
}

using Path = std::vector<std::string>;

/// Appends the path of every object key in `node`, at any depth. Array
/// elements are stepped into by their index.
void key_paths(const json::Value& node, Path& path, std::vector<Path>& out) {
  if (node.is_object()) {
    for (const auto& [key, child] : node.as_object()) {
      path.push_back(key);
      out.push_back(path);
      key_paths(child, path, out);
      path.pop_back();
    }
  } else if (node.is_array()) {
    for (std::size_t i = 0; i < node.size(); ++i) {
      path.push_back(std::to_string(i));
      key_paths(node.at(i), path, out);
      path.pop_back();
    }
  }
}

json::Value& node_at(json::Value& root, const Path& path) {
  json::Value* node = &root;
  for (const std::string& step : path) {
    node = node->is_array() ? &node->as_array().at(std::stoul(step))
                            : &node->as_object().at(step);
  }
  return *node;
}

std::string join(const Path& path) {
  std::string out;
  for (const std::string& step : path) {
    if (!out.empty()) out += '.';
    out += step;
  }
  return out;
}

TEST(RecordSchema, ReaderRequiresEveryKeyTheWriterAlwaysEmits) {
  for_each_type([](const char* type, const std::set<std::string>& omittable,
                   auto make) {
    Gen gen(7);
    for (int i = 0; i < 16; ++i) {
      const auto record = make(gen, i);
      using T = std::remove_const_t<decltype(record)>;
      const json::Value tree = to_json(record);
      std::vector<Path> paths;
      Path path;
      key_paths(tree, path, paths);
      for (const Path& key : paths) {
        SCOPED_TRACE(std::string(type) + " without " + join(key));
        json::Value cut = tree;
        node_at(cut, Path(key.begin(), key.end() - 1))
            .as_object()
            .erase(key.back());
        if (omittable.count(join(key)) != 0) {
          // An absent list reads back empty, which the writer omits again.
          EXPECT_EQ(wire::encode_value(to_json(from_json<T>(cut))),
                    wire::encode_value(cut));
        } else {
          EXPECT_THROW(from_json<T>(cut), json::TypeError);
        }
        json::Value nulled = tree;
        node_at(nulled, key) = nullptr;
        EXPECT_THROW(from_json<T>(nulled), json::TypeError);
      }
    }
  });
}

TEST(RecordSchema, ReaderIgnoresKeysOutsideTheSchema) {
  for_each_type([](const char* type, const std::set<std::string>&,
                   auto make) {
    Gen gen(7);
    for (int i = 0; i < 16; ++i) {
      const auto record = make(gen, i);
      using T = std::remove_const_t<decltype(record)>;
      json::Value tree = to_json(record);
      json::Object& object = tree.as_object();
      object["_pid"] = 3;  // the producer's dedup stamps
      object["_seq"] = 41;
      object.try_emplace("kind", "worker-added");  // where it is no field
      EXPECT_EQ(wired(from_json<T>(tree)), wired(record)) << type;
    }
  });
}

TEST(RecordSchema, StealReaderChecksItsConstantKind) {
  Gen gen(7);
  json::Value tree = to_json(gen.steal());
  tree.as_object()["kind"] = "graph-received";
  EXPECT_THROW(from_json<StealRecord>(tree), json::TypeError);
}

TEST(RecordSchema, ReadBackEncodesToTheSameBytes) {
  for_each_type([](const char* type, const std::set<std::string>&,
                   auto make) {
    Gen gen(11);
    for (int i = 0; i < kRecords; ++i) {
      const auto record = make(gen, i);
      using T = std::remove_const_t<decltype(record)>;
      const std::string bytes = wired(record);
      // Fields listed in key order make the wire writer match the tree.
      EXPECT_EQ(bytes, wire::encode_value(to_json(record))) << type;
      EXPECT_EQ(wired(from_json<T>(to_json(record))), bytes) << type;
      EXPECT_EQ(wired(from_json<T>(wire::decode_value(bytes))), bytes)
          << type;
    }
  });
}

TEST(RecordSchema, DarshanEventsMatchPinnedDigests) {
  // As EncodingsMatchPinnedDigests, for the Darshan bridge's events: the
  // digests were recorded from the hand-written posix_to_json and
  // segment_to_json the field lists replaced, over the same generator.
  static const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
      kPinned = {
          {"PosixRecord", {0xce1c12ec61c81c37ULL, 0x9b1d4348d2944626ULL}},
          {"DxtSegmentEvent", {0x0b8494ab0d35916aULL, 0x8958a062142ff5f6ULL}},
      };
  const auto check = [](const char* type, auto make) {
    Gen gen(0x736368656d61ULL);  // "schema"
    std::string bytes;
    std::string lines;
    for (int i = 0; i < kRecords; ++i) {
      const auto record = make(gen);
      to_wire(record, bytes);
      to_json_text(record, lines);
      lines += '\n';
    }
    const std::pair digests{fnv1a64(bytes), fnv1a64(lines)};
    char now[64];
    std::snprintf(now, sizeof(now), "{0x%" PRIx64 "ULL, 0x%" PRIx64 "ULL}",
                  digests.first, digests.second);
    EXPECT_EQ(digests, kPinned.at(type)) << type << " is now " << now;
  };
  check("PosixRecord", [](Gen& g) { return g.posix(); });
  check("DxtSegmentEvent", [](Gen& g) { return g.dxt(); });
}

TEST(RecordSchema, JsonTextEqualsTreeDump) {
  for_each_streamed_type([](const char* type, const std::set<std::string>&,
                            auto make) {
    Gen gen(13);
    for (int i = 0; i < kRecords; ++i) {
      const auto record = make(gen, i);
      std::string text = "prefix:";  // appends, as the writers all do
      to_json_text(record, text);
      EXPECT_EQ(text, "prefix:" + to_json(record).dump()) << type;
    }
  });
}

/// What reading `bytes` as a T ends in: the record's wire bytes, or the
/// type of the exception thrown.
template <typename T, typename Read>
std::string outcome(Read read) {
  try {
    return "record " + wired(read());
  } catch (const wire::WireError&) {
    return "wire::WireError";
  } catch (const json::TypeError&) {
    return "json::TypeError";
  } catch (const std::exception& e) {
    return std::string("other: ") + e.what();
  }
}

/// Both readers' outcomes for `bytes`: the wire reader's and the tree
/// reader's over the decoded tree.
template <typename T>
std::pair<std::string, std::string> both_outcomes(const std::string& bytes) {
  return {outcome<T>([&] { return from_wire<T>(bytes); }),
          outcome<T>([&] { return from_json<T>(wire::decode_value(bytes)); })};
}

TEST(RecordSchema, WireReaderAgreesWithTreeReader) {
  for_each_streamed_type([](const char* type, const std::set<std::string>&,
                            auto make) {
    Gen gen(11);
    for (int i = 0; i < kRecords; ++i) {
      const auto record = make(gen, i);
      using T = std::remove_const_t<decltype(record)>;
      const std::string bytes = wired(record);
      EXPECT_EQ(wired(from_wire<T>(bytes)), bytes) << type;
      // Keys outside the schema are skipped, whatever they hold.
      json::Value tree = to_json(record);
      tree.as_object()["_pid"] = 3;
      tree.as_object()["_seq"] = json::Array{1, "two", json::Object{}};
      tree.as_object()["zz_extra"] = json::Object{{"nested", nullptr}};
      EXPECT_EQ(wired(from_wire<T>(wire::encode_value(tree))), bytes) << type;
    }
  });
}

TEST(RecordSchema, WireReaderMatchesTreeReaderOnEveryMutation) {
  // Deleting, nulling or retyping any one key, at any depth, ends the same
  // way on both readers: the same exception type, or equal records.
  const std::vector<json::Value> retypes = {
      json::Value(7), json::Value(2.5), json::Value("text"), json::Value(true),
      json::Value(json::Array{}), json::Value(json::Object{})};
  std::size_t mutations = 0;
  for_each_streamed_type([&](const char* type, const std::set<std::string>&,
                             auto make) {
    Gen gen(17);
    for (int i = 0; i < 16; ++i) {
      const auto record = make(gen, i);
      using T = std::remove_const_t<decltype(record)>;
      const json::Value tree = to_json(record);
      std::vector<Path> paths;
      Path path;
      key_paths(tree, path, paths);
      for (const Path& key : paths) {
        SCOPED_TRACE(std::string(type) + " at " + join(key));
        std::vector<json::Value> mutated;
        json::Value cut = tree;
        node_at(cut, Path(key.begin(), key.end() - 1))
            .as_object()
            .erase(key.back());
        mutated.push_back(std::move(cut));
        mutated.push_back(tree);
        node_at(mutated.back(), key) = nullptr;
        for (const json::Value& retype : retypes) {
          mutated.push_back(tree);
          node_at(mutated.back(), key) = retype;
        }
        for (const json::Value& variant : mutated) {
          const auto [by_wire, by_tree] =
              both_outcomes<T>(wire::encode_value(variant));
          EXPECT_EQ(by_wire, by_tree) << variant.dump();
          ++mutations;
        }
      }
    }
  });
  EXPECT_GT(mutations, 10000u);
}

TEST(RecordSchema, WireReaderRejectsEveryTruncation) {
  for_each_streamed_type([](const char* type, const std::set<std::string>&,
                            auto make) {
    Gen gen(19);
    for (int i = 0; i < 4; ++i) {
      const auto record = make(gen, i);
      using T = std::remove_const_t<decltype(record)>;
      const std::string bytes = wired(record);
      for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const auto [by_wire, by_tree] =
            both_outcomes<T>(bytes.substr(0, cut));
        EXPECT_EQ(by_wire, "wire::WireError") << type << " cut " << cut;
        EXPECT_EQ(by_tree, "wire::WireError") << type << " cut " << cut;
      }
      // Trailing bytes after the record are malformed too.
      EXPECT_EQ(both_outcomes<T>(bytes + '\0').first, "wire::WireError");
    }
  });
}

TEST(RecordSchema, WireReaderRejectsKeysOutOfOrder) {
  // Every encoder writes keys in std::map order; the wire reader relies on
  // it and rejects anything else, including a repeated key.
  Gen gen(23);
  const TransitionRecord record = gen.transition();
  const json::Value tree = to_json(record);
  const json::Object& object = tree.as_object();
  const auto encode = [](const std::vector<std::pair<std::string,
                                                     json::Value>>& entries) {
    std::string out;
    wire::put_object(out, entries.size());
    for (const auto& [key, value] : entries) {
      wire::put_str(out, key);
      wire::encode_value(value, out);
    }
    return out;
  };
  std::vector<std::pair<std::string, json::Value>> entries(object.begin(),
                                                           object.end());
  ASSERT_EQ(wired(from_wire<TransitionRecord>(encode(entries))),
            wired(record));
  for (std::size_t i = 0; i + 1 < entries.size(); ++i) {
    auto swapped = entries;
    std::swap(swapped[i], swapped[i + 1]);
    EXPECT_THROW((void)from_wire<TransitionRecord>(encode(swapped)),
                 wire::WireError)
        << "swapped " << entries[i].first;
  }
  auto repeated = entries;
  repeated.insert(repeated.begin() + 1, entries[1]);
  EXPECT_THROW((void)from_wire<TransitionRecord>(encode(repeated)),
               wire::WireError);
  // Out of order inside a nested record too: the task key's two entries.
  std::string bytes;
  wire::put_object(bytes, entries.size());
  for (const auto& [key, value] : entries) {
    wire::put_str(bytes, key);
    if (key == "key") {
      wire::put_object(bytes, 2);
      wire::put_str(bytes, "index");
      wire::encode_value(value.at("index"), bytes);
      wire::put_str(bytes, "group");
      wire::encode_value(value.at("group"), bytes);
    } else {
      wire::encode_value(value, bytes);
    }
  }
  EXPECT_THROW((void)from_wire<TransitionRecord>(bytes), wire::WireError);
}

TEST(RecordSchema, KindOfReadsTheKindKey) {
  Gen gen(29);
  EXPECT_EQ(kind_of(wired(gen.steal())), "steal");
  EXPECT_EQ(kind_of(wired(gen.posix())), "posix");
  EXPECT_EQ(kind_of(wired(gen.dxt())), "dxt");
  EXPECT_EQ(kind_of(wired(gen.transition())), "");  // no kind key
  EXPECT_EQ(kind_of(wire::encode_value(json::Value("kind"))), "");
  json::Value mistyped = to_json(gen.steal());
  mistyped.as_object()["kind"] = 1;
  EXPECT_THROW((void)kind_of(wire::encode_value(mistyped)), json::TypeError);
}

}  // namespace
}  // namespace recup::dtr
