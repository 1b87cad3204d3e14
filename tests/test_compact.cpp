// Tests for the sa/common/compact state substrate: FlatLruMap checked
// against a reference model (std::unordered_map + std::list recency)
// under heavy churn with an adversarial hash, backward-shift deletion
// keeping probe runs findable, exact recency order across rehash and
// copy/move, and erase_lru_while popping exactly the stale LRU prefix;
// and the RateLimitPolicy's decrement FIFO matching a sliding-window
// reference decision-for-decision.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sa/common/compact/flat_lru_map.hpp"
#include "sa/mac/address.hpp"
#include "sa/secure/coordinator.hpp"
#include "sa/secure/policy.hpp"

namespace sa {
namespace {

// ------------------------------------------------------ FlatLruMap

/// Deterministic xorshift — the tests must not depend on libstdc++'s
/// distribution implementations.
struct TestRng {
  std::uint64_t s;
  explicit TestRng(std::uint64_t seed) : s(seed | 1) {}
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// Adversarial hash: collapses keys into 4 buckets so every operation
/// lands in long shared probe runs — the worst case for backward-shift
/// deletion and link re-patching. compact_mix64 is applied on top by
/// the map, but a 4-valued input keeps collisions dense regardless.
struct CollidingHash {
  std::size_t operator()(int k) const {
    return static_cast<std::size_t>(k & 3);
  }
};

/// Reference model: exact LRU semantics, no hashing tricks.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t max_entries) : max_(max_entries) {}

  struct Emplaced {
    bool inserted = false;
    bool evicted = false;
    int evicted_key = 0;
  };

  Emplaced get_or_emplace(int key, int value) {
    Emplaced r;
    auto it = index_.find(key);
    if (it != index_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return r;
    }
    if (max_ > 0 && order_.size() >= max_) {
      r.evicted = true;
      r.evicted_key = order_.back().first;
      index_.erase(order_.back().first);
      order_.pop_back();
    }
    order_.emplace_front(key, value);
    index_[key] = order_.begin();
    r.inserted = true;
    return r;
  }

  int* find(int key) {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->second;
  }

  /// Erase least-recently-used entries while their value is below
  /// `bound`; returns how many were erased.
  std::size_t erase_lru_below(int bound) {
    std::size_t erased = 0;
    while (!order_.empty() && order_.back().second < bound) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++erased;
    }
    return erased;
  }

  bool erase(int key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  std::size_t size() const { return order_.size(); }
  /// (key, value) pairs from most to least recently used.
  std::vector<std::pair<int, int>> mru_order() const {
    return {order_.begin(), order_.end()};
  }

 private:
  std::size_t max_;
  std::list<std::pair<int, int>> order_;  ///< front = MRU
  std::unordered_map<int, std::list<std::pair<int, int>>::iterator> index_;
};

/// (key, value) pairs from most to least recently used: the order
/// eviction and erase_lru_while consume from the back.
template <class Hash>
std::vector<std::pair<int, int>> mru_order(const FlatLruMap<int, int, Hash>& map) {
  std::vector<std::pair<int, int>> out;
  map.for_each_lru([&](int k, int v) { out.emplace_back(k, v); });
  return out;
}

TEST(FlatLruMap, MatchesReferenceModelUnderChurn) {
  constexpr std::size_t kBound = 32;
  constexpr int kKeySpace = 96;  // 3x the bound: constant eviction
  FlatLruMap<int, int, CollidingHash> map(kBound);
  ReferenceLru ref(kBound);
  TestRng rng(0x5eed);

  for (int step = 0; step < 20000; ++step) {
    const int key = static_cast<int>(rng.below(kKeySpace));
    switch (rng.below(4)) {
      case 0: {  // insert-or-refresh
        const int value = static_cast<int>(rng.next() & 0xffff);
        const auto got = map.get_or_emplace(key, value);
        const auto want = ref.get_or_emplace(key, value);
        ASSERT_EQ(got.inserted, want.inserted) << "step " << step;
        ASSERT_EQ(got.evicted, want.evicted) << "step " << step;
        if (want.evicted) {
          ASSERT_EQ(map.find(want.evicted_key), nullptr) << "step " << step;
        }
        if (want.inserted) *ref.find(key) = *got.value;  // same stored value
        break;
      }
      case 1: {  // pure read
        int* got = map.find(key);
        int* want = ref.find(key);
        ASSERT_EQ(got == nullptr, want == nullptr) << "step " << step;
        if (want != nullptr) {
          ASSERT_EQ(*got, *want) << "step " << step;
        }
        break;
      }
      case 2: {  // pop the LRU tail while its value is small
        const int bound = static_cast<int>(rng.below(0x8000));
        ASSERT_EQ(map.erase_lru_while([&](int v) { return v < bound; }),
                  ref.erase_lru_below(bound))
            << "step " << step;
        break;
      }
      case 3:  // backward-shift erase
        ASSERT_EQ(map.erase(key), ref.erase(key)) << "step " << step;
        break;
    }
    ASSERT_EQ(map.size(), ref.size()) << "step " << step;
    if (step % 256 == 0) {
      ASSERT_EQ(mru_order(map), ref.mru_order()) << "step " << step;
    }
  }
  EXPECT_EQ(mru_order(map), ref.mru_order());
}

TEST(FlatLruMap, BackwardShiftKeepsProbeRunsFindable) {
  // All keys collide into 4 home slots, so the table is a handful of
  // long contiguous probe runs. Erasing from the middle of a run must
  // shift its successors back, or the keys beyond the hole vanish.
  FlatLruMap<int, int, CollidingHash> map(0);
  for (int k = 0; k < 64; ++k) map.get_or_emplace(k, k * 10);
  for (int k = 8; k < 64; k += 7) ASSERT_TRUE(map.erase(k));
  for (int k = 0; k < 64; ++k) {
    const bool erased = (k >= 8 && (k - 8) % 7 == 0);
    const int* v = map.find(k);
    ASSERT_EQ(v == nullptr, erased) << "key " << k;
    if (v != nullptr) {
      EXPECT_EQ(*v, k * 10);
    }
  }
}

TEST(FlatLruMap, EvictsLeastRecentlyUsedAtBound) {
  FlatLruMap<int, int> map(3);
  map.get_or_emplace(1, 10);
  map.get_or_emplace(2, 20);
  map.get_or_emplace(3, 30);
  EXPECT_EQ(mru_order(map).back().first, 1);
  map.get_or_emplace(1, 0);  // a hit refreshes: 2 becomes LRU
  const auto r = map.get_or_emplace(4, 40);
  EXPECT_TRUE(r.inserted);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(map.find(2), nullptr);
  ASSERT_NE(map.find(1), nullptr);
  EXPECT_EQ(*map.find(1), 10);  // the hit kept the stored value
  EXPECT_EQ(map.size(), 3u);
}

TEST(FlatLruMap, FindDoesNotRefreshRecencyButGetOrEmplaceDoes) {
  FlatLruMap<int, int> map(8);
  map.get_or_emplace(1, 0);
  map.get_or_emplace(2, 0);
  map.find(1);  // pure read: 1 stays LRU
  EXPECT_EQ(mru_order(map), (std::vector<std::pair<int, int>>{{2, 0}, {1, 0}}));
  map.get_or_emplace(1, 0);  // now 2 is LRU
  EXPECT_EQ(mru_order(map), (std::vector<std::pair<int, int>>{{1, 0}, {2, 0}}));
}

TEST(FlatLruMap, EraseLruWhileStopsAtTheFirstEntryToKeep) {
  // Only the tail is read: popping stops at the first entry the
  // predicate keeps, even when a matching entry sits ahead of it. (The
  // spoof detector stamps an entry whenever it refreshes it, so there
  // the matching entries are exactly a prefix from the tail.)
  FlatLruMap<int, int, CollidingHash> map(0);
  for (int k = 0; k < 40; ++k) map.get_or_emplace(k, k);
  map.get_or_emplace(3, 3);  // refreshed: now most recent, value still 3
  // Pops 0, 1, 2, 4..9; stops at 10 and leaves 3 (ahead of the stop).
  EXPECT_EQ(map.erase_lru_while([](int v) { return v < 10; }), 9u);
  EXPECT_EQ(map.size(), 31u);
  EXPECT_EQ(mru_order(map).back().first, 10);
  ASSERT_NE(map.find(3), nullptr);
  for (int k = 10; k < 40; ++k) ASSERT_NE(map.find(k), nullptr) << k;
  EXPECT_EQ(map.erase_lru_while([](int) { return true; }), 31u);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.erase_lru_while([](int) { return true; }), 0u);
}

TEST(FlatLruMap, RehashPreservesRecencyOrderExactly) {
  // Unbounded map grown through several rehashes; the recency order
  // must come out identical to the insertion/refresh history.
  FlatLruMap<int, int, CollidingHash> map(0);
  ReferenceLru ref(0);
  map.get_or_emplace(0, 0);
  ref.get_or_emplace(0, 0);
  const std::size_t first_slots = map.memory_bytes() - sizeof(map);
  for (int k = 1; k < 500; ++k) {
    map.get_or_emplace(k, k);
    ref.get_or_emplace(k, k);
    if (k % 3 == 0 && k > 10) {
      map.get_or_emplace(k / 2, 0);  // refresh an older key
      ref.get_or_emplace(k / 2, 0);
    }
  }
  // It did rehash: from the minimum 8 slots to 1024.
  EXPECT_GE(map.memory_bytes() - sizeof(map), 64 * first_slots);
  EXPECT_EQ(mru_order(map), ref.mru_order());
}

TEST(FlatLruMap, CopyAndMovePreserveEntriesAndOrder) {
  FlatLruMap<int, int, CollidingHash> map(16);
  for (int k = 0; k < 16; ++k) map.get_or_emplace(k, k * 2);
  map.get_or_emplace(3, 0);  // refresh
  map.erase(7);

  FlatLruMap<int, int, CollidingHash> copy(map);
  EXPECT_EQ(mru_order(copy), mru_order(map));

  const auto before = mru_order(map);
  FlatLruMap<int, int, CollidingHash> moved(std::move(map));
  EXPECT_EQ(mru_order(moved), before);
  EXPECT_EQ(map.size(), 0u);  // NOLINT(bugprone-use-after-move): spec'd empty

  EXPECT_FALSE(copy.get_or_emplace(100, 1).evicted);  // 15 -> 16 entries
  EXPECT_EQ(moved.find(100), nullptr);  // the copy is independent
  // The copy kept the bound of 16: the next new key evicts the LRU.
  EXPECT_TRUE(copy.get_or_emplace(101, 1).evicted);
  EXPECT_EQ(copy.size(), 16u);
}

TEST(FlatLruMap, HoldsNonTriviallyCopyableValues) {
  FlatLruMap<int, std::string> map(4);
  map.get_or_emplace(1, "one");
  map.get_or_emplace(2, std::string(100, 'x'));  // heap-allocated
  for (int k = 3; k < 20; ++k) map.get_or_emplace(k, "spill");
  EXPECT_EQ(map.size(), 4u);
  FlatLruMap<int, std::string> copy(map);
  auto& self = copy;
  copy = self;  // self-assignment must not destroy the entries
  EXPECT_EQ(copy.size(), 4u);
}

// ------------------------------------- RateLimitPolicy equivalence

/// The pre-FIFO implementation, reconstructed as a reference: per-MAC
/// admit timestamps pruned on access (an admit at frame a leaves the
/// window once a + window_frames <= now), unbounded tracking.
class SlidingWindowReference {
 public:
  explicit SlidingWindowReference(const RateLimitConfig& cfg) : cfg_(cfg) {}

  bool admit(const MacAddress& mac, std::size_t now) {
    auto& admits = history_[mac];
    while (!admits.empty() && admits.front() + cfg_.window_frames <= now) {
      admits.pop_front();
    }
    if (admits.size() >= cfg_.max_frames) return false;
    admits.push_back(now);
    return true;
  }

 private:
  RateLimitConfig cfg_;
  std::unordered_map<MacAddress, std::deque<std::size_t>> history_;
};

ApObservation rate_obs(const MacAddress& source) {
  ApObservation o;
  o.ap_position = {0.0, 0.0};
  o.packet.detection.fine_peak = 1.0;
  o.packet.bearing_world_deg = {45.0};
  o.packet.frame =
      Frame::data(MacAddress::from_index(0xFF), source, Bytes{1}, 0);
  return o;
}

TEST(RateLimitPolicy, DecrementFifoMatchesSlidingWindowReference) {
  RateLimitConfig cfg;
  cfg.max_frames = 5;
  cfg.window_frames = 37;  // deliberately not a power of two
  cfg.max_tracked_macs = 64;  // in-capacity: 8 MACs tracked below
  RateLimitPolicy policy(cfg);
  SlidingWindowReference ref(cfg);
  TestRng rng(0xacce55);

  std::size_t now = 0;
  std::size_t denied = 0;
  for (int step = 0; step < 8000; ++step) {
    // Mostly consecutive frames, occasionally a long quiet gap that
    // drains whole windows (the erase-on-zero path in the FIFO).
    now += rng.below(100) == 0 ? 300 : 1 + rng.below(3);
    const MacAddress mac =
        MacAddress::from_index(static_cast<std::uint32_t>(rng.below(8)));
    const std::vector<ApObservation> obs{rate_obs(mac)};
    FrameContext ctx(obs, Coordinator::best_observation(obs), now, {});
    const PolicyVerdict got = policy.evaluate(ctx);
    const bool want_admit = ref.admit(mac, now);
    ASSERT_EQ(!got.drop, want_admit) << "frame " << now << " step " << step;
    if (got.drop) ++denied;
  }
  EXPECT_GT(denied, 0u) << "the load never hit the limit: test too weak";
}

TEST(RateLimitPolicy, DeniedFramesDoNotConsumeBudget) {
  RateLimitConfig cfg;
  cfg.max_frames = 2;
  cfg.window_frames = 10;
  RateLimitPolicy policy(cfg);
  const MacAddress mac = MacAddress::from_index(1);
  auto eval = [&](std::size_t now) {
    const std::vector<ApObservation> obs{rate_obs(mac)};
    FrameContext ctx(obs, Coordinator::best_observation(obs), now, {});
    return !policy.evaluate(ctx).drop;
  };
  EXPECT_TRUE(eval(0));
  EXPECT_TRUE(eval(1));
  for (std::size_t f = 2; f < 10; ++f) EXPECT_FALSE(eval(f));
  // The admits at 0 and 1 leave the window at 10 and 11 — the denials
  // in between must not have extended the occupancy.
  EXPECT_TRUE(eval(10));
  EXPECT_TRUE(eval(11));
  EXPECT_FALSE(eval(12));
}

TEST(RateLimitPolicy, EvictionGenerationGuardsStaleDecrements) {
  // Tight tracking bound: MAC A's window entry is LRU-evicted by other
  // traffic while its decrement is still pending in the FIFO. When A
  // returns (a fresh generation), the stale decrement must not debit
  // the new window — otherwise A would get budget it never had.
  RateLimitConfig cfg;
  cfg.max_frames = 1;
  cfg.window_frames = 50;
  cfg.max_tracked_macs = 2;
  RateLimitPolicy policy(cfg);
  auto eval = [&](std::uint32_t mac_index, std::size_t now) {
    const MacAddress mac = MacAddress::from_index(mac_index);
    const std::vector<ApObservation> obs{rate_obs(mac)};
    FrameContext ctx(obs, Coordinator::best_observation(obs), now, {});
    return !policy.evaluate(ctx).drop;
  };
  EXPECT_TRUE(eval(1, 0));   // A admitted; decrement due at 50
  EXPECT_TRUE(eval(2, 1));   // fill the 2-entry map...
  EXPECT_TRUE(eval(3, 2));   // ...and evict A
  EXPECT_TRUE(eval(1, 3));   // A re-enters with a fresh window (gen 4)
  EXPECT_FALSE(eval(1, 4));  // and is at its 1-frame limit
  // At 50 the stale generation-1 decrement is retired and must be ignored;
  // A's live admit from frame 3 expires at 53, not before.
  EXPECT_FALSE(eval(1, 50));
  EXPECT_FALSE(eval(1, 52));
  EXPECT_TRUE(eval(1, 53));
}

}  // namespace
}  // namespace sa
