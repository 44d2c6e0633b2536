#include "platform/pfs.hpp"

#include <algorithm>
#include <stdexcept>

namespace recup::platform {

Pfs::Pfs(sim::Engine& engine, PfsConfig config, RngStream rng)
    : engine_(engine), config_(std::move(config)), rng_(rng) {
  if (config_.ost_count == 0 || config_.stripe_count == 0 ||
      config_.stripe_size == 0) {
    throw std::invalid_argument("invalid PFS configuration");
  }
  osts_.reserve(config_.ost_count);
  for (std::size_t i = 0; i < config_.ost_count; ++i) {
    osts_.push_back(
        std::make_unique<sim::Resource>(engine_, config_.ost_capacity));
  }
}

std::vector<std::pair<std::size_t, std::uint64_t>> Pfs::stripe_spans(
    const std::string& path, std::uint64_t offset,
    std::uint64_t length) const {
  // Starting OST is deterministic per file; stripes rotate over a window of
  // `stripe_count` OSTs, like a Lustre layout.
  const std::size_t base = fnv1a64(path) % config_.ost_count;
  std::vector<std::pair<std::size_t, std::uint64_t>> spans;
  std::uint64_t pos = offset;
  const std::uint64_t end = offset + length;
  while (pos < end) {
    const std::uint64_t stripe_index = pos / config_.stripe_size;
    const std::uint64_t stripe_end = (stripe_index + 1) * config_.stripe_size;
    const std::uint64_t chunk = std::min(end, stripe_end) - pos;
    const std::size_t ost =
        (base + stripe_index % config_.stripe_count) % config_.ost_count;
    if (!spans.empty() && spans.back().first == ost) {
      spans.back().second += chunk;
    } else {
      spans.emplace_back(ost, chunk);
    }
    pos += chunk;
  }
  if (spans.empty()) spans.emplace_back(base, 0);  // zero-length op
  return spans;
}

void Pfs::io(const std::string& path, std::uint64_t offset,
             std::uint64_t length, bool is_write,
             std::function<void(const IoResult&)> on_complete) {
  const auto spans = stripe_spans(path, offset, length);
  const double sigma =
      is_write ? config_.write_jitter_sigma : config_.read_jitter_sigma;

  // Fan out one request per touched OST; the op completes when all complete.
  struct Join {
    std::size_t remaining;
    TimePoint first_start = kTimeInfinity;
    TimePoint last_end = 0.0;
    bool straggler = false;
    std::function<void(const IoResult&)> on_complete;
  };
  auto join = std::make_shared<Join>();
  join->remaining = spans.size();
  join->on_complete = std::move(on_complete);

  for (const auto& [ost, bytes] : spans) {
    Duration service = config_.metadata_latency +
                       static_cast<double>(bytes) / config_.ost_bandwidth;
    service *= rng_.lognormal(1.0, sigma);
    bool straggler = false;
    if (rng_.chance(config_.straggler_probability)) {
      straggler = true;
      ++stragglers_;
      service *= config_.straggler_factor;
    }
    osts_[ost]->request(service, [join, straggler](TimePoint start,
                                                   TimePoint end) {
      join->first_start = std::min(join->first_start, start);
      join->last_end = std::max(join->last_end, end);
      join->straggler = join->straggler || straggler;
      if (--join->remaining == 0) {
        join->on_complete(
            IoResult{join->first_start, join->last_end, join->straggler});
      }
    });
  }
}

void Pfs::metadata_op(std::function<void(const IoResult&)> on_complete) {
  const Duration service =
      config_.metadata_latency *
      rng_.lognormal(1.0, config_.read_jitter_sigma);
  const TimePoint start = engine_.now();
  engine_.schedule_after(service,
                         [this, start, on_complete = std::move(on_complete)] {
                           on_complete(IoResult{start, engine_.now(), false});
                         });
}

Duration Pfs::total_queue_delay() const {
  Duration total = 0.0;
  for (const auto& ost : osts_) total += ost->total_queue_delay();
  return total;
}

}  // namespace recup::platform
