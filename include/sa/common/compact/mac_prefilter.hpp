// Blocked Bloom filter fronting the exact per-MAC structures (pattern
// after xia-core's RID libbloom forwarding): the overwhelmingly common
// negative cases — a MAC that is not on the ACL, a MAC the spoof
// tracker has never seen — resolve in one 64-byte cache line without
// probing the table.
//
// Safety argument (no false negatives, ever):
//  - every key admitted to the exact structure is insert()ed into the
//    filter at admission time, and bits are never cleared by deletion;
//  - eviction/erase only over-approximates (stale set bits can cause a
//    false positive, which the exact probe behind the filter resolves);
//  - when staleness accumulates — note_erase() counts removals since
//    the last epoch — should_rebuild() asks for a rebuild, and
//    rebuild() re-populates a cleanly sized filter from the exact
//    structure's live keys. Between epochs the filter is a superset of
//    the live key set; at an epoch boundary it is exact.
//
// Not thread safe; single-owner like the maps it fronts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sa/common/compact/flat_lru_map.hpp"
#include "sa/mac/address.hpp"

namespace sa {

/// 48-bit MAC packed into the low bits of a u64 (big-endian octet
/// order, so vendor prefixes land in the high bits).
inline std::uint64_t pack_mac(const MacAddress& addr) noexcept {
  std::uint64_t v = 0;
  for (const std::uint8_t o : addr.octets()) v = (v << 8) | o;
  return v;
}

class MacPrefilter {
 public:
  /// Sized for `expected_entries` at ~12 bits per entry; the filter
  /// grows at the next rebuild() when occupancy outpaces the sizing.
  explicit MacPrefilter(std::size_t expected_entries = 1024) {
    resize_for(expected_entries);
  }

  /// One cache line, k=8 probes. False positives possible (the exact
  /// structure resolves them); false negatives are not.
  bool maybe_contains(const MacAddress& addr) const noexcept {
    const std::uint64_t h = compact_mix64(pack_mac(addr));
    const Block& b = blocks_[(h >> 32) & block_mask_];
    std::uint32_t bit = static_cast<std::uint32_t>(h);
    const std::uint32_t step = (static_cast<std::uint32_t>(h >> 13) << 1) | 1u;
    for (int i = 0; i < kProbes; ++i) {
      const std::uint32_t p = bit & (kBlockBits - 1);
      if ((b.words[p >> 6] & (1ull << (p & 63))) == 0) return false;
      bit += step;
    }
    return true;
  }

  /// Record a key at admission into the exact structure.
  void insert(const MacAddress& addr) noexcept {
    const std::uint64_t h = compact_mix64(pack_mac(addr));
    Block& b = blocks_[(h >> 32) & block_mask_];
    std::uint32_t bit = static_cast<std::uint32_t>(h);
    const std::uint32_t step = (static_cast<std::uint32_t>(h >> 13) << 1) | 1u;
    for (int i = 0; i < kProbes; ++i) {
      const std::uint32_t p = bit & (kBlockBits - 1);
      b.words[p >> 6] |= 1ull << (p & 63);
      bit += step;
    }
    ++inserted_;
  }

  /// Record an eviction/erase from the exact structure. Bits stay set
  /// (they may be shared); this only advances the staleness epoch.
  void note_erase() noexcept { ++stale_; }

  /// True when stale bits or occupancy warrant re-populating.
  bool should_rebuild(std::size_t live_entries) const noexcept {
    return stale_ > 16 + live_entries / 2 || inserted_ > capacity_entries_;
  }

  /// Re-populate from the exact structure's live keys: `each` must
  /// invoke its argument once per live key. Resizes to fit
  /// `live_entries` and resets the epoch counters.
  template <class ForEachKey>
  void rebuild(std::size_t live_entries, ForEachKey&& each) {
    resize_for(live_entries);
    for (Block& b : blocks_) std::memset(b.words, 0, sizeof(b.words));
    std::size_t reinserted = 0;
    each([&](const MacAddress& key) {
      insert(key);
      ++reinserted;
    });
    inserted_ = reinserted;
    stale_ = 0;
  }

  std::size_t memory_bytes() const {
    return sizeof(*this) + blocks_.capacity() * sizeof(Block);
  }
  std::size_t capacity_entries() const { return capacity_entries_; }

 private:
  static constexpr int kProbes = 8;
  static constexpr std::uint32_t kBlockBits = 512;  // one 64-byte line
  static constexpr std::size_t kBitsPerEntry = 12;

  struct alignas(64) Block {
    std::uint64_t words[8] = {};
  };

  void resize_for(std::size_t expected_entries) {
    std::size_t blocks = 1;
    while (blocks * kBlockBits < expected_entries * kBitsPerEntry &&
           blocks < (std::size_t{1} << 32)) {
      blocks *= 2;
    }
    if (blocks != blocks_.size()) {
      blocks_.assign(blocks, Block{});
    }
    block_mask_ = blocks - 1;
    capacity_entries_ = blocks * kBlockBits / kBitsPerEntry;
  }

  std::vector<Block> blocks_;
  std::size_t block_mask_ = 0;
  std::size_t capacity_entries_ = 0;
  std::size_t inserted_ = 0;  ///< insertions since the last rebuild
  std::size_t stale_ = 0;     ///< erases/evictions since the last rebuild
};

}  // namespace sa
