// Per-(node, stream) delivery record, shared by every protocol.
//
// One stream's application deliveries at one node: the instant of each
// delivered seq, the delivered and duplicate counts, and the contiguous
// watermark (every seq below it is delivered). The keys of delivery_time
// are the duplicate-suppression set. Nothing ever removes a key, which is
// what lets a bounded store (net/bounded_store.h) evict a payload without
// the seq re-delivering when a later copy carries it again.
//
// Each protocol's Stats derives from this, so the paper's per-node records
// (Fig 2 duplicates, Fig 9 / Table II delivery instants) read one type. What
// counts as a duplicate stays the protocol's call: record() is the one
// fresh-delivery path, and it aborts on a seq delivered before
// (exactly-once delivery to the application).
//
// Each instant is stored as 48-bit microseconds in 6 B (InstantCodec), which
// covers about 8.9 simulated years; record() aborts on an instant outside
// that range rather than wrapping it. Reads see sim::TimePoint values.
#pragma once

#include <cstdint>

#include "sim/time.h"
#include "util/assert.h"
#include "util/flat_seq_map.h"

namespace brisa::net {

/// FlatSeqMap codec: a delivery instant as 48-bit microseconds.
struct InstantCodec {
  struct Stored {
    std::uint16_t us[3];  ///< little-endian 16-bit limbs
  };
  static_assert(sizeof(Stored) == 6, "a u64 instant would take 8 B");
  static constexpr std::int64_t kLimitUs = std::int64_t{1} << 48;

  [[nodiscard]] static Stored encode(sim::TimePoint at) {
    const std::int64_t us = at.us();
    BRISA_ASSERT_MSG(us >= 0 && us < kLimitUs,
                     "delivery instant outside 48-bit microseconds");
    const auto u = static_cast<std::uint64_t>(us);
    return {{static_cast<std::uint16_t>(u), static_cast<std::uint16_t>(u >> 16),
             static_cast<std::uint16_t>(u >> 32)}};
  }
  [[nodiscard]] static sim::TimePoint decode(Stored s) {
    return sim::TimePoint::from_us(static_cast<std::int64_t>(
        std::uint64_t{s.us[0]} | (std::uint64_t{s.us[1]} << 16) |
        (std::uint64_t{s.us[2]} << 32)));
  }
};

struct DeliveryLog {
  std::uint64_t delivered = 0;
  std::uint64_t duplicates = 0;
  util::FlatSeqMap<sim::TimePoint, InstantCodec> delivery_time;

  [[nodiscard]] bool seen(std::uint64_t seq) const {
    return delivery_time.contains(seq);
  }
  /// Every seq below this one is delivered.
  [[nodiscard]] std::uint64_t contiguous_upto() const {
    return contiguous_upto_;
  }

  /// First delivery of `seq` at `now`; `now` must lie in [0, 2^48) µs.
  void record(std::uint64_t seq, sim::TimePoint now) {
    BRISA_ASSERT_MSG(!seen(seq), "seq delivered twice");
    delivery_time.insert_or_assign(seq, now);
    while (seen(contiguous_upto_)) ++contiguous_upto_;
    ++delivered;
  }

  /// A received copy of `seq`: record()s it when fresh, otherwise counts
  /// one duplicate. Returns whether it was fresh.
  bool receive(std::uint64_t seq, sim::TimePoint now) {
    if (seen(seq)) {
      ++duplicates;
      return false;
    }
    record(seq, now);
    return true;
  }

 private:
  std::uint64_t contiguous_upto_ = 0;
};

}  // namespace brisa::net
