// Randomized differential tests for the flat hot-path containers:
// util::SmallVec against std::vector, util::FlatMap against std::map,
// util::FlatSet against std::set, util::FlatSeqMap against std::map, and
// util::SeqRing against std::deque — same operation stream, element-identical
// state and iteration order after every step. Iteration-order equality is
// the load-bearing property: the repo's determinism contract (same seed =>
// byte-identical experiment output) survives the std::map -> FlatMap
// migration only because ascending-key iteration is preserved exactly.
//
// The large-N stress cases push the containers well past their inline
// capacity and back; CI runs this binary under ASan/UBSan, which turns any
// placement-new / destructor mismatch in the small-buffer machinery into a
// hard failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "util/flat_map.h"
#include "util/flat_seq_map.h"
#include "util/seq_ring.h"
#include "util/small_vec.h"

namespace brisa {
namespace {

// --- SmallVec vs std::vector -------------------------------------------------

/// Move-aware element type: counts live instances so leaks/double-destroys
/// surface even without ASan.
struct Tracked {
  static int live;
  int value = 0;
  Tracked() { ++live; }
  explicit Tracked(int v) : value(v) { ++live; }
  Tracked(const Tracked& other) : value(other.value) { ++live; }
  Tracked(Tracked&& other) noexcept : value(other.value) { ++live; }
  Tracked& operator=(const Tracked&) = default;
  Tracked& operator=(Tracked&&) noexcept = default;
  ~Tracked() { --live; }
  bool operator==(const Tracked& other) const { return value == other.value; }
};
int Tracked::live = 0;

template <typename Flat>
void expect_same_vector(const Flat& flat, const std::vector<Tracked>& ref) {
  ASSERT_EQ(flat.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(flat[i].value, ref[i].value) << "at index " << i;
  }
}

TEST(SmallVec, DifferentialAgainstStdVector) {
  sim::Rng rng(0x5e11);
  for (int round = 0; round < 20; ++round) {
    {
      util::SmallVec<Tracked, 4> flat;
      std::vector<Tracked> ref;
      for (int op = 0; op < 400; ++op) {
        const std::uint64_t dice = rng.uniform(100);
        if (dice < 50 || ref.empty()) {
          const int v = static_cast<int>(rng.uniform(1000));
          flat.push_back(Tracked(v));
          ref.push_back(Tracked(v));
        } else if (dice < 70) {
          const std::size_t at = rng.uniform(ref.size() + 1);
          const int v = static_cast<int>(rng.uniform(1000));
          flat.insert(flat.begin() + at, Tracked(v));
          ref.insert(ref.begin() + at, Tracked(v));
        } else if (dice < 90) {
          const std::size_t at = rng.uniform(ref.size());
          flat.erase(flat.begin() + at);
          ref.erase(ref.begin() + at);
        } else {
          flat.pop_back();
          ref.pop_back();
        }
        expect_same_vector(flat, ref);
      }
      // Copy and move preserve contents.
      util::SmallVec<Tracked, 4> copy = flat;
      expect_same_vector(copy, ref);
      util::SmallVec<Tracked, 4> moved = std::move(flat);
      expect_same_vector(moved, ref);
    }
    EXPECT_EQ(Tracked::live, 0) << "instance leak after round " << round;
  }
}

TEST(SmallVec, InlineToHeapTransitionAndBack) {
  util::SmallVec<std::string, 2> v;
  EXPECT_TRUE(v.is_inline());
  v.push_back("alpha");
  v.push_back("beta");
  EXPECT_TRUE(v.is_inline());
  v.push_back("gamma-long-enough-to-defeat-sso-optimizations-everywhere");
  EXPECT_FALSE(v.is_inline());
  EXPECT_EQ(v[0], "alpha");
  EXPECT_EQ(v[2], "gamma-long-enough-to-defeat-sso-optimizations-everywhere");
  // Move-from a spilled vector steals the heap block.
  util::SmallVec<std::string, 2> w = std::move(v);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w[1], "beta");
  EXPECT_EQ(v.size(), 0u);  // NOLINT(bugprone-use-after-move): spec'd empty
  // Moved-from vector is reusable.
  v.push_back("delta");
  EXPECT_EQ(v.size(), 1u);
  EXPECT_TRUE(v.is_inline());
}

TEST(SmallVec, LargeNStress) {
  util::SmallVec<std::uint64_t, 8> v;
  for (std::uint64_t i = 0; i < 100'000; ++i) v.push_back(i * 3);
  ASSERT_EQ(v.size(), 100'000u);
  EXPECT_EQ(v[99'999], 99'999u * 3);
  // Order-preserving erase from the middle.
  v.erase(v.begin() + 50'000);
  EXPECT_EQ(v[50'000], (50'001u) * 3);
  v.clear();
  EXPECT_TRUE(v.empty());
}

// --- FlatMap vs std::map -----------------------------------------------------

template <typename FlatT, typename RefT>
void expect_same_map(const FlatT& flat, const RefT& ref) {
  ASSERT_EQ(flat.size(), ref.size());
  auto fit = flat.begin();
  for (const auto& [key, value] : ref) {
    ASSERT_NE(fit, flat.end());
    EXPECT_EQ(fit->first, key);
    EXPECT_EQ(fit->second, value);
    ++fit;
  }
  EXPECT_EQ(fit, flat.end());
}

TEST(FlatMap, DifferentialAgainstStdMap) {
  sim::Rng rng(0xF1a7);
  for (int round = 0; round < 20; ++round) {
    util::FlatMap<std::uint32_t, std::string, 4> flat;
    std::map<std::uint32_t, std::string> ref;
    for (int op = 0; op < 600; ++op) {
      const auto key = static_cast<std::uint32_t>(rng.uniform(64));
      const std::uint64_t dice = rng.uniform(100);
      if (dice < 35) {
        const std::string value = "v" + std::to_string(rng.uniform(1000));
        flat[key] = value;
        ref[key] = value;
      } else if (dice < 55) {
        const auto [it, inserted] = flat.try_emplace(key, "fresh");
        const auto [rit, rinserted] = ref.try_emplace(key, "fresh");
        EXPECT_EQ(inserted, rinserted);
        EXPECT_EQ(it->second, rit->second);
      } else if (dice < 75) {
        EXPECT_EQ(flat.erase(key), ref.erase(key));
      } else if (dice < 90) {
        const auto it = flat.find(key);
        const auto rit = ref.find(key);
        EXPECT_EQ(it != flat.end(), rit != ref.end());
        if (it != flat.end()) {
          EXPECT_EQ(it->second, rit->second);
        }
      } else {
        EXPECT_EQ(flat.count(key), ref.count(key));
        EXPECT_EQ(flat.contains(key), ref.count(key) > 0);
      }
      // Iteration order must match std::map exactly after every mutation:
      // this is the property the determinism goldens lean on.
      expect_same_map(flat, ref);
    }
  }
}

TEST(FlatMap, EraseByIteratorMatchesStdMap) {
  util::FlatMap<int, int, 4> flat;
  std::map<int, int> ref;
  for (int i = 0; i < 32; ++i) {
    flat[i * 7 % 32] = i;
    ref[i * 7 % 32] = i;
  }
  // Erase every even key through the iterator form.
  for (int key = 0; key < 32; key += 2) {
    const auto it = flat.find(key);
    ASSERT_NE(it, flat.end());
    flat.erase(it);
    ref.erase(key);
  }
  expect_same_map(flat, ref);
}

TEST(FlatMap, LargeNStress) {
  util::FlatMap<std::uint64_t, std::uint64_t, 4> flat;
  std::map<std::uint64_t, std::uint64_t> ref;
  sim::Rng rng(0xbeef);
  for (int i = 0; i < 30'000; ++i) {
    const std::uint64_t key = rng.uniform(50'000);
    flat[key] = key * 2;
    ref[key] = key * 2;
  }
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t key = rng.uniform(50'000);
    EXPECT_EQ(flat.erase(key), ref.erase(key));
  }
  expect_same_map(flat, ref);
}

// --- FlatSet vs std::set -----------------------------------------------------

TEST(FlatSet, DifferentialAgainstStdSet) {
  sim::Rng rng(0x5e7);
  for (int round = 0; round < 20; ++round) {
    util::FlatSet<std::uint32_t, 4> flat;
    std::set<std::uint32_t> ref;
    for (int op = 0; op < 600; ++op) {
      const auto key = static_cast<std::uint32_t>(rng.uniform(48));
      const std::uint64_t dice = rng.uniform(100);
      if (dice < 45) {
        const auto [it, inserted] = flat.insert(key);
        EXPECT_EQ(inserted, ref.insert(key).second);
        EXPECT_EQ(*it, key);
      } else if (dice < 75) {
        EXPECT_EQ(flat.erase(key), ref.erase(key));
      } else {
        EXPECT_EQ(flat.count(key), ref.count(key));
      }
      ASSERT_EQ(flat.size(), ref.size());
      auto fit = flat.begin();
      for (const std::uint32_t expected : ref) {
        EXPECT_EQ(*fit, expected);
        ++fit;
      }
    }
  }
}

// --- FlatSeqMap vs std::map -------------------------------------------------

/// Element-identical state, forward order and reverse order (walking back
/// from end(), the way datacenter_update reads the last delivery).
template <typename V>
void expect_same_seq_map(const util::FlatSeqMap<V>& flat,
                         const std::map<std::uint64_t, V>& ref) {
  ASSERT_EQ(flat.size(), ref.size());
  ASSERT_EQ(flat.empty(), ref.empty());
  auto fit = flat.begin();
  for (const auto& [key, value] : ref) {
    ASSERT_NE(fit, flat.end());
    EXPECT_EQ(fit->first, key);
    EXPECT_EQ(fit->second, value);
    ++fit;
  }
  EXPECT_EQ(fit, flat.end());
  if (ref.empty()) {
    EXPECT_EQ(flat.begin(), flat.end());
    return;
  }
  EXPECT_EQ(flat.max_key(), ref.rbegin()->first);
  auto rit = flat.end();
  for (auto it = ref.rbegin(); it != ref.rend(); ++it) {
    --rit;
    EXPECT_EQ(rit->first, it->first);
    EXPECT_EQ(rit->second, it->second);
  }
  EXPECT_EQ(rit, flat.begin());
}

TEST(FlatSeqMap, DifferentialAgainstStdMap) {
  // Keys straddle the 64-bit presence-word boundaries (63/64/65, 127/128,
  // 191/192) so every walk crosses words in both directions.
  const std::vector<std::uint64_t> keys = {0,  1,   2,   62,  63,  64,
                                           65, 126, 127, 128, 129, 191,
                                           192, 193, 255, 256, 300};
  sim::Rng rng(0x5ee);
  for (int round = 0; round < 10; ++round) {
    util::FlatSeqMap<std::uint32_t> flat;
    std::map<std::uint64_t, std::uint32_t> ref;
    for (int op = 0; op < 2'000; ++op) {
      const std::uint64_t key = keys[rng.uniform(keys.size())];
      const std::uint64_t dice = rng.uniform(100);
      if (dice < 40) {
        const auto value = static_cast<std::uint32_t>(rng.uniform(1'000));
        flat[key] += value;
        ref[key] += value;
      } else if (dice < 65) {
        EXPECT_EQ(flat.erase(key), ref.erase(key));
      } else if (dice < 80) {
        EXPECT_EQ(flat.contains(key), ref.count(key) > 0);
        EXPECT_EQ(flat.count(key), ref.count(key));
        const auto fit = flat.find(key);
        const auto rit = ref.find(key);
        ASSERT_EQ(fit == flat.end(), rit == ref.end());
        if (rit != ref.end()) {
          EXPECT_EQ(fit->second, rit->second);
        }
      } else {
        const auto fit = flat.lower_bound(key);
        const auto rit = ref.lower_bound(key);
        ASSERT_EQ(fit == flat.end(), rit == ref.end()) << "key " << key;
        if (rit != ref.end()) {
          EXPECT_EQ(fit->first, rit->first);
        }
      }
      expect_same_seq_map(flat, ref);
    }
  }
}

// --- FlatSeqMap additions ----------------------------------------------------

TEST(FlatSeqMap, LowerBoundSkipsHolesLikeStdMap) {
  util::FlatSeqMap<int> flat;
  std::map<std::uint64_t, int> ref;
  for (const std::uint64_t seq : {2, 3, 9, 15, 16}) {
    flat[seq] = static_cast<int>(seq) * 10;
    ref[seq] = static_cast<int>(seq) * 10;
  }
  for (std::uint64_t probe = 0; probe <= 20; ++probe) {
    auto fit = flat.lower_bound(probe);
    auto rit = ref.lower_bound(probe);
    if (rit == ref.end()) {
      EXPECT_EQ(fit, flat.end()) << "probe " << probe;
    } else {
      ASSERT_NE(fit, flat.end()) << "probe " << probe;
      EXPECT_EQ(fit->first, rit->first);
      EXPECT_EQ(fit->second, rit->second);
    }
  }
}

// --- SeqRing vs std::deque ---------------------------------------------------

/// Drives a SeqRing and a std::deque reference through the retransmit
/// buffer's operations: push, count-cap trim from the front, and
/// order-preserving erase of the lowest- or highest-seq entry (the
/// `[limits]` victims) once the ring has wrapped.
void ring_differential(std::size_t bound, std::uint64_t salt) {
  util::SeqRing ring(bound);
  std::deque<std::pair<std::uint64_t, std::uint32_t>> ref;
  EXPECT_EQ(ring.capacity(), 0u) << "an empty ring allocates nothing";
  sim::Rng rng(salt);
  std::uint64_t next_seq = 0;
  for (int op = 0; op < 20'000; ++op) {
    // Mostly ascending seqs with back-fill below them, like a late joiner;
    // some seqs exceed 32 bits to exercise the split halves.
    std::uint64_t seq = rng.uniform(100) < 80 ? next_seq++
                                              : rng.uniform(next_seq + 1);
    if (rng.uniform(50) == 0) seq += std::uint64_t{1} << 33;
    const auto bytes = static_cast<std::uint32_t>(rng.uniform(5'000));
    ring.push_back(seq, bytes);
    ref.emplace_back(seq, bytes);
    ASSERT_LE(ring.capacity(), bound + 1);
    while (ref.size() > bound) {
      ring.pop_front();
      ref.pop_front();
    }
    const std::uint64_t dice = rng.uniform(100);
    if (dice < 30 && !ref.empty()) {
      const auto by_seq = [](const auto& a, const auto& b) {
        return a.first < b.first;
      };
      const auto victim =
          dice < 15 ? std::min_element(ref.begin(), ref.end(), by_seq)
                    : std::max_element(ref.begin(), ref.end(), by_seq);
      ring.erase(static_cast<std::size_t>(victim - ref.begin()));
      ref.erase(victim);
    }
    ASSERT_EQ(ring.size(), ref.size());
    ASSERT_EQ(ring.empty(), ref.empty());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ring[i].seq(), ref[i].first) << "op " << op << " at " << i;
      ASSERT_EQ(ring[i].bytes, ref[i].second) << "op " << op << " at " << i;
    }
  }
  EXPECT_EQ(ring.capacity(), bound + 1) << "the bound was never reached";
}

TEST(SeqRing, DifferentialAgainstDequeSmallBound) { ring_differential(5, 1); }

TEST(SeqRing, DifferentialAgainstDequeLargeBound) {
  ring_differential(257, 2);
}

TEST(SeqRing, GrowthStartsAt64AndStopsAtBoundPlusOne) {
  const auto capacities = [](std::size_t bound, std::size_t pushes) {
    util::SeqRing ring(bound);
    std::vector<std::size_t> seen;
    for (std::uint64_t seq = 0; seq < pushes; ++seq) {
      ring.push_back(seq, 1);
      if (ring.size() > bound) ring.pop_front();
      if (seen.empty() || seen.back() != ring.capacity()) {
        seen.push_back(ring.capacity());
      }
    }
    return seen;
  };
  EXPECT_EQ(capacities(5, 20), (std::vector<std::size_t>{6}));
  EXPECT_EQ(capacities(128, 40), (std::vector<std::size_t>{64}));
  // No 256 -> 258 step: a doubling that would stop just short of the
  // ceiling goes straight to it.
  EXPECT_EQ(capacities(257, 600), (std::vector<std::size_t>{64, 128, 258}));
}

}  // namespace
}  // namespace brisa
