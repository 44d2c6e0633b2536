// Binary event-batch frames for the producer -> broker push path.
//
// A frame carries one producer batch: a varint event count followed by each
// event's metadata (session-encoded, so repeated strings — metadata keys,
// task prefixes, worker addresses — collapse to dictionary refs after their
// second sighting) and its length-prefixed data payload. Frames from one
// encoder session must reach the paired StreamDecoder in first-delivery
// order; the producer guarantees that by serializing same-partition flushes
// and retrying a frame's exact bytes (str-defs carry explicit ids, so
// re-delivery is idempotent). Broker::append_frame is the one push entry.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "json/json.hpp"
#include "wire/codec.hpp"

namespace recup::mofka {

[[nodiscard]] std::string encode_event_frame(
    wire::StreamEncoder& encoder,
    const std::vector<std::pair<json::Value, std::string>>& events);

/// Decodes a frame built by encode_event_frame, updating the session
/// dictionary. Throws wire::WireError on malformed frames or dictionary
/// refs the session has never seen (e.g. after a broker restart wiped the
/// session).
[[nodiscard]] std::vector<std::pair<json::Value, std::string>>
decode_event_frame(wire::StreamDecoder& decoder, std::string_view frame);

}  // namespace recup::mofka
