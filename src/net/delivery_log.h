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
#pragma once

#include <cstdint>

#include "sim/time.h"
#include "util/assert.h"
#include "util/flat_seq_map.h"

namespace brisa::net {

struct DeliveryLog {
  std::uint64_t delivered = 0;
  std::uint64_t duplicates = 0;
  util::FlatSeqMap<sim::TimePoint> delivery_time;

  [[nodiscard]] bool seen(std::uint64_t seq) const {
    return delivery_time.contains(seq);
  }
  /// Every seq below this one is delivered.
  [[nodiscard]] std::uint64_t contiguous_upto() const {
    return contiguous_upto_;
  }

  /// First delivery of `seq` at `now`.
  void record(std::uint64_t seq, sim::TimePoint now) {
    BRISA_ASSERT_MSG(!seen(seq), "seq delivered twice");
    delivery_time[seq] = now;
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
