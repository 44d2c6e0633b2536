#include "mofka/wire.hpp"

#include "json/json.hpp"

namespace recup::mofka {

namespace {

constexpr std::string_view kPid = "_pid";
constexpr std::string_view kSeq = "_seq";

}  // namespace

std::string encode_event_frame(wire::StreamEncoder& encoder,
                               const std::vector<EventBytes>& events) {
  std::string out;
  wire::put_varint(out, events.size());
  for (const auto& [metadata, data] : events) {
    encoder.transcode(metadata, out);
    wire::put_varint(out, data.size());
    out.append(data);
  }
  return out;
}

std::vector<EventBytes> decode_event_frame(wire::StreamDecoder& decoder,
                                           std::string_view frame) {
  std::size_t pos = 0;
  const std::uint64_t count = wire::get_varint(frame, pos);
  if (count > frame.size() - pos) {
    throw wire::WireError("event frame count exceeds frame size");
  }
  std::vector<EventBytes> events(count);
  for (auto& [metadata, data] : events) {
    decoder.transcode(frame, pos, metadata);
    const std::uint64_t n = wire::get_varint(frame, pos);
    if (n > frame.size() - pos) {
      throw wire::WireError("event frame data truncated");
    }
    data.assign(frame.substr(pos, n));
    pos += n;
  }
  if (pos != frame.size()) {
    throw wire::WireError("trailing bytes after event frame");
  }
  return events;
}

bool stamp_metadata(std::string& metadata, Stamps stamps) {
  std::size_t pos = 0;
  if (wire::get_tag(metadata, pos) != wire::kObject) {
    pos = 0;
    wire::skip_value(metadata, pos);
    if (pos != metadata.size()) {
      throw wire::WireError("wire: trailing bytes after value");
    }
    return false;
  }
  const std::size_t n = wire::get_count(metadata, pos);
  std::string body;
  body.reserve(metadata.size() + 32);  // room for both stamps
  std::size_t entries = 0;
  bool pid_done = false;
  bool seq_done = false;
  // Writes each stamp once, just before the first key that sorts after it
  // (or at the end).
  const auto stamp_before = [&](std::string_view key, bool end) {
    if (!pid_done && (end || kPid < key)) {
      wire::put_str(body, kPid);
      wire::put_int(body, static_cast<std::int64_t>(stamps.pid));
      ++entries;
      pid_done = true;
    }
    if (!seq_done && (end || kSeq < key)) {
      wire::put_str(body, kSeq);
      wire::put_int(body, static_cast<std::int64_t>(stamps.seq));
      ++entries;
      seq_done = true;
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t begin = pos;
    const std::string_view key = wire::get_key(metadata, pos);
    wire::skip_value(metadata, pos);
    if (key == kPid || key == kSeq) continue;  // replaced below
    stamp_before(key, false);
    body.append(metadata, begin, pos - begin);
    ++entries;
  }
  if (pos != metadata.size()) {
    throw wire::WireError("wire: trailing bytes after value");
  }
  stamp_before({}, true);
  std::string out;
  wire::put_object(out, entries);
  out += body;
  metadata = std::move(out);
  return true;
}

std::optional<Stamps> read_stamps(std::string_view metadata) {
  std::size_t pos = 0;
  std::optional<std::string_view> pid;
  std::optional<std::string_view> seq;
  if (wire::get_tag(metadata, pos) == wire::kObject) {
    const std::size_t n = wire::get_count(metadata, pos);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string_view key = wire::get_key(metadata, pos);
      const std::size_t begin = pos;
      wire::skip_value(metadata, pos);
      // The first entry wins, as it does in a decoded json::Object.
      std::optional<std::string_view>* stamp =
          key == kPid ? &pid : key == kSeq ? &seq : nullptr;
      if (stamp != nullptr && !*stamp) {
        *stamp = metadata.substr(begin, pos - begin);
      }
    }
  } else {
    pos = 0;
    wire::skip_value(metadata, pos);
  }
  if (pos != metadata.size()) {
    throw wire::WireError("wire: trailing bytes after value");
  }
  if (!pid || !seq) return std::nullopt;
  // Only now that the whole value checked out: malformed bytes are a
  // WireError before a mistyped stamp is a TypeError.
  const auto as_int = [](std::string_view value) {
    std::size_t at = 0;
    if (wire::get_tag(value, at) != wire::kInt) {
      throw json::TypeError("json value is not an integer");
    }
    return static_cast<std::uint64_t>(wire::get_zigzag(value, at));
  };
  return Stamps{as_int(*pid), as_int(*seq)};
}

}  // namespace recup::mofka
