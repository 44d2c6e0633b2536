// Sequence-number bookkeeping for at-least-once delivery.
//
// A SequenceTracker answers "have I seen sequence number s before?" without
// storing the full history: everything below a watermark is known-seen, and
// a (bounded-in-practice) ahead-set holds out-of-order arrivals until the
// watermark catches up. This is what makes dedup correct under *reorder*
// faults — a naive "s <= max seen" test would mis-classify a held-back
// earlier event as a duplicate and lose it.
#pragma once

#include <cstdint>
#include <set>

namespace recup::mofka {

class SequenceTracker {
 public:
  /// Records `seq` as seen. Returns true the first time, false for
  /// duplicates.
  bool accept(std::uint64_t seq);

  [[nodiscard]] bool seen(std::uint64_t seq) const;
  /// All sequence numbers < watermark() have been seen.
  [[nodiscard]] std::uint64_t watermark() const { return watermark_; }
  /// Out-of-order arrivals currently held above the watermark.
  [[nodiscard]] std::size_t ahead_size() const { return ahead_.size(); }

 private:
  std::uint64_t watermark_ = 0;
  std::set<std::uint64_t> ahead_;
};

}  // namespace recup::mofka
