// Arrival-ordered ring of (sequence, payload bytes) entries.
//
// BRISA's per-stream retransmit buffer serves retransmissions in the order
// payloads arrived and trims its count cap from the oldest arrival, while a
// `[limits]` bound picks its victim by sequence number, wherever that entry
// sits. A late joiner back-fills old seqs after its first live ones, so
// arrival order is not seq order, and a seq-ordered store would change which
// retransmissions are served first. This ring keeps arrival order with the
// three operations the buffer needs: push at the back, pop at the front, and
// an order-preserving erase at any position.
//
// An entry is 12 bytes (the seq as two 32-bit halves plus a 32-bit byte
// count). The ring allocates nothing while empty and never holds more than
// `bound + 1` entries: its owner trims back to `bound` after every push, so
// one entry past the bound is the most it ever needs.
//
// Growth starts at 64 entries (768 B) and doubles, jumping straight to the
// ceiling when a doubling would stop just short of it. Every stream of a
// run grows its ring at about the same sequence number, so the blocks freed
// by one growth step are freed all at once and fit no later request: on a
// 4,800-stream run, starting at 4 entries left ~2 MB of such holes in the
// heap. Skipping the small steps avoids most of them. The first block is
// about what the std::deque it replaced allocated up front (a 512 B block
// plus its map), and unlike the deque, a stream that never buffers
// allocates nothing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>

#include "util/assert.h"

namespace brisa::util {

class SeqRing {
 public:
  struct Entry {
    std::uint32_t seq_lo;
    std::uint32_t seq_hi;
    std::uint32_t bytes;

    [[nodiscard]] std::uint64_t seq() const {
      return (static_cast<std::uint64_t>(seq_hi) << 32) | seq_lo;
    }
  };
  static_assert(sizeof(Entry) == 12, "a u64 seq would pad entries to 16 B");

  /// A ring whose owner keeps at most `bound` entries between pushes.
  explicit SeqRing(std::size_t bound)
      : max_capacity_(static_cast<std::uint32_t>(
            std::min<std::size_t>(bound, kMaxCapacity - 1) + 1)) {}

  void push_back(std::uint64_t seq, std::size_t bytes) {
    BRISA_ASSERT_MSG(bytes <= std::numeric_limits<std::uint32_t>::max(),
                     "payload size exceeds a SeqRing entry");
    if (size_ == capacity_) grow();
    data_[slot(size_)] = {static_cast<std::uint32_t>(seq),
                          static_cast<std::uint32_t>(seq >> 32),
                          static_cast<std::uint32_t>(bytes)};
    ++size_;
  }

  void pop_front() {
    BRISA_ASSERT_MSG(size_ > 0, "pop_front() of empty SeqRing");
    head_ = static_cast<std::uint32_t>(slot(1));
    --size_;
  }

  /// Removes the entry at arrival position `index`, keeping the others in
  /// order. Shifts whichever side of the gap is shorter.
  void erase(std::size_t index) {
    BRISA_ASSERT_MSG(index < size_, "SeqRing erase past the end");
    if (index < size_ / 2) {
      for (std::size_t k = index; k > 0; --k) {
        data_[slot(k)] = data_[slot(k - 1)];
      }
      head_ = static_cast<std::uint32_t>(slot(1));
    } else {
      for (std::size_t k = index; k + 1 < size_; ++k) {
        data_[slot(k)] = data_[slot(k + 1)];
      }
    }
    --size_;
  }

  /// The entry at arrival position `index` (0 = oldest).
  [[nodiscard]] const Entry& operator[](std::size_t index) const {
    return data_[slot(index)];
  }
  [[nodiscard]] const Entry& front() const { return (*this)[0]; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Entries the current allocation holds; never above bound + 1.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  static constexpr std::size_t kMaxCapacity =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::size_t kMinCapacity = 64;

  [[nodiscard]] std::size_t slot(std::size_t index) const {
    const std::size_t at = head_ + index;
    return at < capacity_ ? at : at - capacity_;
  }

  void grow() {
    BRISA_ASSERT_MSG(capacity_ < max_capacity_,
                     "SeqRing pushed past its bound");
    std::size_t next =
        capacity_ == 0 ? kMinCapacity : 2 * std::size_t{capacity_};
    if (next + capacity_ / 2 > max_capacity_) next = max_capacity_;
    std::unique_ptr<Entry[]> data(new Entry[next]);
    for (std::size_t k = 0; k < size_; ++k) data[k] = data_[slot(k)];
    data_ = std::move(data);
    head_ = 0;
    capacity_ = static_cast<std::uint32_t>(next);
  }

  std::unique_ptr<Entry[]> data_;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;
  std::uint32_t max_capacity_;
};

}  // namespace brisa::util
