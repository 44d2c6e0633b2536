// Binary wire encoding for the out-of-band data plane: Proxy handles (the
// control plane ships these inside assignment/completion messages) and the
// fetch request/response frames the peer-to-peer data path speaks. Built on
// recup::wire primitives (varints for small-biased fields, fixed64 for the
// hash-valued fingerprint, put_frame/get_frame for self-delimiting
// messages). Malformed or truncated input, including a status byte outside
// FetchStatus, throws wire::WireError, exactly like the core codec.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "datastore/proxy.hpp"
#include "wire/codec.hpp"

namespace recup::datastore {

// Message tags. Deliberately above wire::kMaxTag so a datastore frame can
// never be mistaken for a core-codec value.
inline constexpr std::uint8_t kProxyTag = 0x50;
inline constexpr std::uint8_t kFetchRequestTag = 0x51;
inline constexpr std::uint8_t kFetchResponseTag = 0x52;

/// One peer-to-peer fetch: "send me region `region` of key `key` that your
/// shard `source` holds". Offset/length make range fetches expressible
/// (today the workers always fetch whole regions).
struct FetchRequest {
  std::string key;
  ShardId source = 0;
  mochi::RegionId region = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = UINT64_MAX;
};

/// A fetch's outcome. The source shard answers only kOk or kMissing; the
/// requester reports kUnavailable once every wire attempt failed.
enum class FetchStatus : std::uint8_t {
  kOk = 0,
  kMissing = 1,      ///< no copy on the source shard (dead, or dropped)
  kUnavailable = 2,  ///< wire attempts exhausted; retryable
};

const char* to_string(FetchStatus status);

struct FetchResponse {
  FetchStatus status = FetchStatus::kOk;
  std::uint64_t logical_size = 0;
  std::uint64_t fingerprint = 0;
  std::string payload;  ///< canonical physical payload (empty unless kOk)
};

// --- Proxy ------------------------------------------------------------------
void encode_proxy(const Proxy& proxy, std::string& out);
[[nodiscard]] std::string encode_proxy(const Proxy& proxy);
[[nodiscard]] Proxy decode_proxy(std::string_view bytes, std::size_t& pos);
/// Whole buffer as exactly one proxy (trailing bytes -> error).
[[nodiscard]] Proxy decode_proxy(std::string_view bytes);

// --- Fetch frames -----------------------------------------------------------
// Each message is encoded as a self-delimiting wire frame
// ([u32 length][payload]) so a byte stream of them is parseable.
[[nodiscard]] std::string encode_fetch_request(const FetchRequest& request);
[[nodiscard]] FetchRequest decode_fetch_request(std::string_view frame,
                                                std::size_t& pos);
[[nodiscard]] std::string encode_fetch_response(const FetchResponse& response);
[[nodiscard]] FetchResponse decode_fetch_response(std::string_view frame,
                                                  std::size_t& pos);

}  // namespace recup::datastore
