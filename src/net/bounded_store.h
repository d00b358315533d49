// Bounded seq -> payload_bytes serving store for the pull/anti-entropy
// baselines.
//
// Gossip and TAG keep one FlatSeqMap<std::size_t> per stream: the set of
// payloads a node holds and can serve to lagging peers. Under the `[limits]`
// section that store gets entry/byte ceilings; this wrapper owns the map,
// tracks held bytes, and evicts deterministically on insert. With default
// limits (the off state) insert() is the plain map assignment plus one
// always-false bound check — behavior and iteration order are identical to
// the unwrapped map, which is what the zero-cost-when-off golden tests pin.
//
// IMPORTANT: the store never doubles as the duplicate-suppression set (a
// re-arriving evicted seq would re-deliver). Callers dedup through their
// stream's net::DeliveryLog, which never evicts, and pass its contiguous
// watermark to insert().
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/limits.h"
#include "util/flat_seq_map.h"

namespace brisa::net {

class BoundedSeqStore {
 public:
  using Map = util::FlatSeqMap<std::size_t>;
  using const_iterator = Map::const_iterator;

  /// Installs the store bound (node construction time; not re-entrant with
  /// held entries).
  void configure(const Limits& limits) {
    max_entries_ = limits.store_entries;
    max_bytes_ = limits.store_bytes;
    policy_ = limits.eviction;
  }

  /// Stores `seq` -> `bytes`, then evicts until within bounds.
  /// `delivered_upto` is the caller's contiguity watermark (seqs below it
  /// were delivered in order): kDeliveredFirst evicts that prefix first and
  /// only drops newest-first when no such entry remains.
  void insert(std::uint64_t seq, std::size_t bytes,
              std::uint64_t delivered_upto) {
    std::size_t& slot = map_[seq];
    bytes_ += bytes - slot;
    slot = bytes;
    while ((max_entries_ != 0 && map_.size() > max_entries_) ||
           (max_bytes_ != 0 && bytes_ > max_bytes_)) {
      evict_one(delivered_upto);
    }
  }

  [[nodiscard]] bool contains(std::uint64_t seq) const {
    return map_.contains(seq);
  }
  [[nodiscard]] std::size_t count(std::uint64_t seq) const {
    return map_.count(seq);
  }
  [[nodiscard]] const_iterator lower_bound(std::uint64_t seq) const {
    return map_.lower_bound(seq);
  }
  [[nodiscard]] const_iterator begin() const { return map_.begin(); }
  [[nodiscard]] const_iterator end() const { return map_.end(); }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] bool empty() const { return map_.empty(); }

  /// Payload bytes currently held.
  [[nodiscard]] std::size_t payload_bytes() const { return bytes_; }
  /// Entries evicted over the store's lifetime.
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  void evict_one(std::uint64_t delivered_upto) {
    auto victim = map_.begin();  // lowest seq held
    if (policy_ == EvictionPolicy::kDeliveredFirst &&
        (*victim).first >= delivered_upto) {
      // Nothing below the watermark left: protect the in-flight low entries
      // (peers may still need them to close their gaps) and drop the newest
      // speculative one instead — it is the most likely to be re-offered by
      // the ongoing epidemic rounds.
      victim = --map_.end();
    }
    bytes_ -= (*victim).second;
    map_.erase((*victim).first);
    ++evictions_;
  }

  Map map_;
  std::size_t max_entries_ = 0;
  std::size_t max_bytes_ = 0;
  EvictionPolicy policy_ = EvictionPolicy::kOldestFirst;
  std::size_t bytes_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace brisa::net
