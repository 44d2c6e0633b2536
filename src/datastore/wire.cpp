#include "datastore/wire.hpp"

namespace recup::datastore {

namespace {

std::uint8_t need_tag(std::string_view bytes, std::size_t& pos,
                      std::uint8_t expected, const char* what) {
  if (pos >= bytes.size()) throw wire::WireError("datastore: truncated input");
  const auto tag = static_cast<std::uint8_t>(bytes[pos++]);
  if (tag != expected) {
    throw wire::WireError(std::string("datastore: expected ") + what +
                          " frame");
  }
  return tag;
}

std::string need_string(std::string_view bytes, std::size_t& pos) {
  const std::uint64_t n = wire::get_varint(bytes, pos);
  if (n > bytes.size() - pos) throw wire::WireError("datastore: truncated input");
  std::string out(bytes.substr(pos, static_cast<std::size_t>(n)));
  pos += static_cast<std::size_t>(n);
  return out;
}

}  // namespace

const char* to_string(FetchStatus status) {
  switch (status) {
    case FetchStatus::kOk:
      return "ok";
    case FetchStatus::kMissing:
      return "missing";
    case FetchStatus::kUnavailable:
      return "unavailable";
  }
  return "unknown";
}

void encode_proxy(const Proxy& proxy, std::string& out) {
  out.push_back(static_cast<char>(kProxyTag));
  wire::put_varint(out, proxy.shard);
  wire::put_varint(out, proxy.node);
  wire::put_varint(out, proxy.region);
  wire::put_varint(out, proxy.size);
  wire::put_fixed64(out, proxy.fingerprint);
}

std::string encode_proxy(const Proxy& proxy) {
  std::string out;
  encode_proxy(proxy, out);
  return out;
}

Proxy decode_proxy(std::string_view bytes, std::size_t& pos) {
  need_tag(bytes, pos, kProxyTag, "proxy");
  Proxy proxy;
  proxy.shard = static_cast<ShardId>(wire::get_varint(bytes, pos));
  proxy.node = static_cast<std::uint32_t>(wire::get_varint(bytes, pos));
  proxy.region = wire::get_varint(bytes, pos);
  proxy.size = wire::get_varint(bytes, pos);
  proxy.fingerprint = wire::get_fixed64(bytes, pos);
  return proxy;
}

Proxy decode_proxy(std::string_view bytes) {
  std::size_t pos = 0;
  Proxy proxy = decode_proxy(bytes, pos);
  if (pos != bytes.size())
    throw wire::WireError("datastore: trailing bytes after proxy");
  return proxy;
}

std::string encode_fetch_request(const FetchRequest& request) {
  std::string payload;
  payload.push_back(static_cast<char>(kFetchRequestTag));
  wire::put_varint(payload, request.key.size());
  payload.append(request.key);
  wire::put_varint(payload, request.source);
  wire::put_varint(payload, request.region);
  wire::put_varint(payload, request.offset);
  wire::put_varint(payload, request.length);
  std::string out;
  wire::put_frame(out, payload);
  return out;
}

FetchRequest decode_fetch_request(std::string_view frame, std::size_t& pos) {
  const std::string_view payload = wire::get_frame(frame, pos);
  std::size_t p = 0;
  need_tag(payload, p, kFetchRequestTag, "fetch-request");
  FetchRequest request;
  request.key = need_string(payload, p);
  request.source = static_cast<ShardId>(wire::get_varint(payload, p));
  request.region = wire::get_varint(payload, p);
  request.offset = wire::get_varint(payload, p);
  request.length = wire::get_varint(payload, p);
  if (p != payload.size())
    throw wire::WireError("datastore: trailing bytes in fetch request");
  return request;
}

std::string encode_fetch_response(const FetchResponse& response) {
  std::string payload;
  payload.push_back(static_cast<char>(kFetchResponseTag));
  payload.push_back(static_cast<char>(response.status));
  wire::put_varint(payload, response.logical_size);
  wire::put_fixed64(payload, response.fingerprint);
  wire::put_varint(payload, response.payload.size());
  payload.append(response.payload);
  std::string out;
  wire::put_frame(out, payload);
  return out;
}

FetchResponse decode_fetch_response(std::string_view frame, std::size_t& pos) {
  const std::string_view payload = wire::get_frame(frame, pos);
  std::size_t p = 0;
  need_tag(payload, p, kFetchResponseTag, "fetch-response");
  if (p >= payload.size()) throw wire::WireError("datastore: truncated input");
  const auto raw = static_cast<std::uint8_t>(payload[p++]);
  if (raw > static_cast<std::uint8_t>(FetchStatus::kUnavailable))
    throw wire::WireError("datastore: unknown fetch status");
  FetchResponse response;
  response.status = static_cast<FetchStatus>(raw);
  response.logical_size = wire::get_varint(payload, p);
  response.fingerprint = wire::get_fixed64(payload, p);
  response.payload = need_string(payload, p);
  if (p != payload.size())
    throw wire::WireError("datastore: trailing bytes in fetch response");
  return response;
}

}  // namespace recup::datastore
