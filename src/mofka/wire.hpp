// Binary event-batch frames for the producer -> broker push path, and the
// producer's dedup stamps inside an event's metadata bytes.
//
// Event metadata travels as wire bytes end to end: a plugin writes a record
// self-contained (wire::encode_value's format), the producer stamps it, the
// frame carries it session-encoded, and the broker stores the canonical
// self-contained bytes the session decoder gives back. No json::Value is
// built on the way unless a consumer's data selector or a caller asks for
// one.
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

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "wire/codec.hpp"

namespace recup::mofka {

/// One event on the push path: self-contained metadata bytes and the data
/// payload.
using EventBytes = std::pair<std::string, std::string>;

/// Session-encodes a batch. Throws wire::WireError when a metadata entry is
/// not exactly one self-contained value.
[[nodiscard]] std::string encode_event_frame(
    wire::StreamEncoder& encoder, const std::vector<EventBytes>& events);

/// Decodes a frame built by encode_event_frame, updating the session
/// dictionary; each metadata comes back as canonical self-contained bytes
/// (wire::encode_value of its tree). Throws wire::WireError on malformed
/// frames or dictionary refs the session has never seen (e.g. after a
/// broker restart wiped the session).
[[nodiscard]] std::vector<EventBytes> decode_event_frame(
    wire::StreamDecoder& decoder, std::string_view frame);

/// The producer's stamps: its id and the event's per-partition sequence.
struct Stamps {
  std::uint64_t pid = 0;
  std::uint64_t seq = 0;
};

/// Sets "_pid"/"_seq" in the metadata object, at their key-order
/// positions, replacing any stamps it already carries — the bytes of
/// encode_value of the stamped tree — and returns true. Metadata that is no
/// object is left as it is (false). Throws wire::WireError unless
/// `metadata` holds exactly one self-contained value.
bool stamp_metadata(std::string& metadata, Stamps stamps);

/// The stamps of stored metadata: nullopt unless it is an object carrying
/// both. Checks that `metadata` holds exactly one self-contained value
/// (wire::WireError otherwise); a stamp that is not an integer is a
/// json::TypeError.
[[nodiscard]] std::optional<Stamps> read_stamps(std::string_view metadata);

}  // namespace recup::mofka
