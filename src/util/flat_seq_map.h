// Flat map keyed by dense sequence numbers.
//
// Per-message bookkeeping (delivery instants, reception counts) is keyed by
// stream sequence numbers, which a single source allocates contiguously from
// zero. A red-black tree per lookup is pure overhead for that key
// distribution; this container stores values in a vector indexed by the
// sequence itself and keeps just enough of the std::map surface (ordered
// iteration as (seq, value) pairs, find/size/empty) that analysis and test
// code reads the same either way. Holes — sequences a node never saw — cost
// one presence bit each and are skipped during iteration. Presence bits live
// in 64-bit words, so the iteration walks and the largest-key lookup skip a
// word of holes per step.
//
// A codec may store each value narrower than V (Codec::Stored, with static
// encode/decode). Such a map hands values out by copy: iteration yields
// (seq, V) and writes go through insert_or_assign(). The default codec
// stores V itself and keeps operator[] and (seq, V&) iteration.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.h"

namespace brisa::util {

/// The default FlatSeqMap codec: a slot is the value itself.
template <typename V>
struct StoreAsIs {
  using Stored = V;
};

template <typename V, typename Codec = StoreAsIs<V>>
class FlatSeqMap {
  static constexpr bool kPacked = !std::is_same_v<Codec, StoreAsIs<V>>;
  using Stored = typename Codec::Stored;

 public:
  using key_type = std::uint64_t;
  using mapped_type = V;

  template <bool Const>
  class Iterator {
   public:
    using Container =
        std::conditional_t<Const, const FlatSeqMap, FlatSeqMap>;
    using Ref = std::conditional_t<kPacked, V,
                                   std::conditional_t<Const, const V&, V&>>;
    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = std::pair<std::uint64_t, V>;
    using difference_type = std::ptrdiff_t;
    using reference = std::pair<std::uint64_t, Ref>;
    using pointer = void;

    Iterator() = default;
    Iterator(Container* map, std::size_t index) : map_(map), index_(index) {}

    /// Conversion iterator -> const_iterator.
    operator Iterator<true>() const {  // NOLINT(google-explicit-constructor)
      return {map_, index_};
    }

    [[nodiscard]] std::pair<std::uint64_t, Ref> operator*() const {
      if constexpr (kPacked) {
        return {static_cast<std::uint64_t>(index_),
                Codec::decode(map_->values_[index_])};
      } else {
        return {static_cast<std::uint64_t>(index_), map_->values_[index_]};
      }
    }

    /// operator-> support for `it->first` / `it->second`: the arrow-proxy
    /// idiom (the pair lives in the proxy, not the container).
    struct ArrowProxy {
      std::pair<std::uint64_t, Ref> pair;
      [[nodiscard]] const std::pair<std::uint64_t, Ref>* operator->() const {
        return &pair;
      }
    };
    [[nodiscard]] ArrowProxy operator->() const { return ArrowProxy{**this}; }

    Iterator& operator++() {
      index_ = map_->next_present(index_ + 1);
      return *this;
    }
    Iterator operator++(int) {
      Iterator copy = *this;
      ++*this;
      return copy;
    }
    Iterator& operator--() {
      index_ = map_->prev_present(index_);
      return *this;
    }
    Iterator operator--(int) {
      Iterator copy = *this;
      --*this;
      return copy;
    }

    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    friend class FlatSeqMap;
    Container* map_ = nullptr;
    std::size_t index_ = 0;
  };

  using iterator = Iterator<false>;
  using const_iterator = Iterator<true>;

  /// Returns the slot for `seq`, default-constructing it on first touch.
  V& operator[](std::uint64_t seq)
    requires(!kPacked)
  {
    return slot(seq);
  }

  /// Stores `value` at `seq`, inserting the key if absent.
  void insert_or_assign(std::uint64_t seq, const V& value) {
    if constexpr (kPacked) {
      slot(seq) = Codec::encode(value);
    } else {
      slot(seq) = value;
    }
  }

  [[nodiscard]] bool contains(std::uint64_t seq) const {
    const auto index = static_cast<std::size_t>(seq);
    return index < values_.size() && present(index);
  }

  [[nodiscard]] std::size_t count(std::uint64_t seq) const {
    return contains(seq) ? 1 : 0;
  }

  /// Removes `seq` if present; returns the number of entries removed (0/1,
  /// std::map::erase analogue). The slot is value-initialised again, so a
  /// later re-insertion through operator[] sees a default-constructed V. The
  /// slot vectors keep their length: sequence keys are dense and
  /// monotonically growing, so shrinking would only be undone.
  std::size_t erase(std::uint64_t seq) {
    if (!contains(seq)) return 0;
    const auto index = static_cast<std::size_t>(seq);
    words_[index / kWordBits] &= ~(std::uint64_t{1} << (index % kWordBits));
    values_[index] = Stored{};
    --size_;
    return 1;
  }

  [[nodiscard]] iterator find(std::uint64_t seq) {
    return contains(seq) ? iterator(this, static_cast<std::size_t>(seq))
                         : end();
  }
  [[nodiscard]] const_iterator find(std::uint64_t seq) const {
    return contains(seq) ? const_iterator(this, static_cast<std::size_t>(seq))
                         : end();
  }

  /// First present entry with key >= seq (std::map::lower_bound analogue;
  /// drives the pull/anti-entropy batch walks in the baselines).
  [[nodiscard]] iterator lower_bound(std::uint64_t seq) {
    return {this, next_present(clamp_index(seq))};
  }
  [[nodiscard]] const_iterator lower_bound(std::uint64_t seq) const {
    return {this, next_present(clamp_index(seq))};
  }

  /// Largest present key (std::prev(end())->first); map must be non-empty.
  [[nodiscard]] std::uint64_t max_key() const {
    BRISA_ASSERT_MSG(size_ > 0, "max_key() of empty FlatSeqMap");
    return prev_present(values_.size());
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] iterator begin() { return {this, next_present(0)}; }
  [[nodiscard]] iterator end() { return {this, values_.size()}; }
  [[nodiscard]] const_iterator begin() const { return {this, next_present(0)}; }
  [[nodiscard]] const_iterator end() const { return {this, values_.size()}; }

  bool operator==(const FlatSeqMap& other) const {
    if (size_ != other.size_) return false;
    auto it = begin();
    auto jt = other.begin();
    for (; it != end(); ++it, ++jt) {
      if ((*it).first != (*jt).first || !((*it).second == (*jt).second)) {
        return false;
      }
    }
    return true;
  }

 private:
  template <bool Const>
  friend class Iterator;

  static constexpr std::size_t kWordBits = 64;

  /// The stored slot for `seq`, marked present (value-initialised on first
  /// touch).
  Stored& slot(std::uint64_t seq) {
    const auto index = static_cast<std::size_t>(seq);
    if (index >= values_.size()) {
      values_.resize(index + 1);
      words_.resize(index / kWordBits + 1, 0);
    }
    std::uint64_t& word = words_[index / kWordBits];
    const std::uint64_t bit = std::uint64_t{1} << (index % kWordBits);
    if ((word & bit) == 0) {
      word |= bit;
      ++size_;
    }
    return values_[index];
  }

  [[nodiscard]] bool present(std::size_t index) const {
    return ((words_[index / kWordBits] >> (index % kWordBits)) & 1) != 0;
  }
  [[nodiscard]] std::size_t clamp_index(std::uint64_t seq) const {
    return seq < values_.size() ? static_cast<std::size_t>(seq)
                                : values_.size();
  }

  /// First present index >= from, or end. Bits are only ever set below
  /// values_.size(), so a set bit is always a valid index.
  [[nodiscard]] std::size_t next_present(std::size_t from) const {
    if (from >= values_.size()) return values_.size();
    std::size_t word = from / kWordBits;
    std::uint64_t bits =
        words_[word] & (~std::uint64_t{0} << (from % kWordBits));
    while (bits == 0) {
      if (++word == words_.size()) return values_.size();
      bits = words_[word];
    }
    return word * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
  }
  /// Last present index < from.
  [[nodiscard]] std::size_t prev_present(std::size_t from) const {
    BRISA_ASSERT_MSG(size_ > 0, "-- past begin of empty FlatSeqMap");
    BRISA_ASSERT_MSG(from > 0, "-- past begin of FlatSeqMap");
    const std::size_t last = from - 1;
    std::size_t word = last / kWordBits;
    std::uint64_t bits = words_[word] & (~std::uint64_t{0} >>
                                         (kWordBits - 1 - last % kWordBits));
    while (bits == 0) {
      BRISA_ASSERT_MSG(word > 0, "-- past begin of FlatSeqMap");
      bits = words_[--word];
    }
    return word * kWordBits + kWordBits - 1 -
           static_cast<std::size_t>(std::countl_zero(bits));
  }

  std::vector<Stored> values_;
  /// Presence bit per slot of values_, 64 to a word.
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace brisa::util
