// recup::datastore proxy handles — pass-by-reference task results.
//
// A Proxy is what the control plane carries instead of a bulk payload once a
// task result reaches datastore::kInlineThreshold (4 KiB): the owning store
// shard and its node, the warabi region holding the bytes there, the
// logical payload size, and a content fingerprint the consumer verifies
// after every fetch (a truncated or corrupted transfer can therefore never
// be silently installed as dependency data). A re-publish or the owner's
// death changes the owner, so the scheduler asks DataStore::proxy_for for a
// fresh proxy at each dispatch. This mirrors the ProxyStore design the
// paper's related work draws on: the scheduler path moves handles of a few
// dozen bytes while the data plane moves the real bytes peer-to-peer.
#pragma once

#include <cstdint>

#include "mochi/warabi.hpp"

namespace recup::datastore {

/// A store shard is co-located with one worker and shares its id.
using ShardId = std::uint32_t;

struct Proxy {
  ShardId shard = 0;               ///< owning shard (holds the owner copy)
  std::uint32_t node = 0;          ///< node hosting the owning shard
  mochi::RegionId region = 0;      ///< warabi region on the owning shard
  std::uint64_t size = 0;          ///< logical payload bytes
  std::uint64_t fingerprint = 0;   ///< fnv1a64 of the canonical payload

  /// A default-constructed Proxy means "no out-of-band data" (inline path).
  [[nodiscard]] bool valid() const { return region != 0; }

  friend bool operator==(const Proxy& a, const Proxy& b) {
    return a.shard == b.shard && a.node == b.node && a.region == b.region &&
           a.size == b.size && a.fingerprint == b.fingerprint;
  }
  friend bool operator!=(const Proxy& a, const Proxy& b) { return !(a == b); }
};

}  // namespace recup::datastore
