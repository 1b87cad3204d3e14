// Flat open-addressing hash map with intrusive LRU linkage: the one
// container every per-MAC defence keeps its state in (the ACL's allow
// set, the spoof detector's trackers, the rate limiter's windows, the
// fleet's home map). One contiguous slot array holds key, value and
// the LRU list (u32 prev/next slot indices), so a tracked client costs
// bytes, not allocations: no nodes, no per-entry malloc, no pointer
// chasing on the hot path.
//
// Layout and invariants:
//  - power-of-two capacity, linear probing, grown before load factor
//    exceeds 13/16;
//  - tombstone-free deletion via Knuth backward-shift: erasing a slot
//    shifts each successor in its probe run back by one (never past its
//    home slot), so probe runs stay contiguous and lookups terminate at
//    the first empty slot;
//  - the LRU list is threaded through the slots themselves; relocating
//    a slot (backward shift, rehash) re-patches its neighbours' links,
//    so recency order survives table maintenance exactly;
//  - `max_entries` bounds the map: inserting a new key at the bound
//    evicts the least-recently-used entry first and reports that it
//    did, so callers can keep eviction stats;
//  - erase_lru_while() pops entries off the LRU tail, which is how a
//    caller that stamps each entry when it refreshes it (the spoof
//    detector's idle expiry) finds every stale entry without a scan.
//
// Recency policy (matches the spoof detector's historical behaviour):
// get_or_emplace() refreshes recency; find() is a pure read and does
// not. Pointers returned by find()/get_or_emplace() are invalidated by
// any later mutation (erase or insert may shift or rehash slots) — use
// them immediately.
//
// Not thread safe; in the engine the session's control thread owns the
// policy chain's maps and the spoof shards' maps outright, so the map
// itself takes no lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sa/common/error.hpp"

namespace sa {

/// 64-bit avalanche finalizer (splitmix64). std::hash is identity-like
/// for small keys; power-of-two masking needs every input bit to reach
/// the low bits.
inline std::uint64_t compact_mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

template <class K, class V, class Hash = std::hash<K>>
class FlatLruMap {
 public:
  /// `max_entries` bounds the map (0 = unbounded): inserting a new key
  /// at the bound evicts the least-recently-used entry first.
  explicit FlatLruMap(std::size_t max_entries = 0)
      : max_entries_(max_entries) {}

  FlatLruMap(FlatLruMap&& other) noexcept { steal(other); }
  FlatLruMap& operator=(FlatLruMap&& other) noexcept {
    if (this != &other) {
      destroy_all();
      steal(other);
    }
    return *this;
  }

  FlatLruMap(const FlatLruMap& other)
    requires std::is_copy_constructible_v<V>
      : max_entries_(other.max_entries_), hash_(other.hash_) {
    copy_entries_from(other);
  }
  FlatLruMap& operator=(const FlatLruMap& other)
    requires std::is_copy_constructible_v<V>
  {
    if (this != &other) {
      destroy_all();
      slots_.clear();
      size_ = 0;
      head_ = tail_ = kNil;
      max_entries_ = other.max_entries_;
      hash_ = other.hash_;
      copy_entries_from(other);
    }
    return *this;
  }

  ~FlatLruMap() { destroy_all(); }

  struct EmplaceResult {
    V* value = nullptr;
    bool inserted = false;  ///< true when the key was not present
    bool evicted = false;   ///< true when the LRU entry was evicted
  };

  /// Find-or-insert; either way the entry becomes most recently used.
  /// On insert the value is constructed from `args`; at the bound the
  /// LRU entry is evicted first.
  template <class... Args>
  EmplaceResult get_or_emplace(const K& key, Args&&... args) {
    reserve_one();
    EmplaceResult r;
    if (const std::uint32_t idx = find_index(key); idx != kNil) {
      move_to_front(idx);
      r.value = value_ptr(idx);
      return r;
    }
    if (max_entries_ > 0 && size_ >= max_entries_) {
      r.evicted = true;
      erase_slot(tail_);
    }
    const std::uint32_t idx = probe_empty(key);
    Slot& s = slots_[idx];
    ::new (static_cast<void*>(s.value)) V(std::forward<Args>(args)...);
    s.key = key;
    s.occupied = true;
    link_front(idx);
    ++size_;
    r.value = value_ptr(idx);
    r.inserted = true;
    return r;
  }

  /// Pure read: no recency refresh. nullptr when absent.
  V* find(const K& key) {
    const std::uint32_t idx = find_index(key);
    return idx == kNil ? nullptr : value_ptr(idx);
  }
  const V* find(const K& key) const {
    const std::uint32_t idx = find_index(key);
    return idx == kNil ? nullptr : value_ptr(idx);
  }

  /// Remove a key; false when absent.
  bool erase(const K& key) {
    const std::uint32_t idx = find_index(key);
    if (idx == kNil) return false;
    erase_slot(idx);
    return true;
  }

  /// Erase least-recently-used entries while `pred(value)` holds for
  /// the current LRU entry; returns how many were erased.
  template <class Pred>
  std::size_t erase_lru_while(Pred&& pred) {
    std::size_t erased = 0;
    while (tail_ != kNil && pred(std::as_const(*value_ptr(tail_)))) {
      erase_slot(tail_);
      ++erased;
    }
    return erased;
  }

  std::size_t size() const { return size_; }

  /// Visit every entry from most to least recently used.
  template <class Fn>
  void for_each_lru(Fn&& fn) const {
    for (std::uint32_t i = head_; i != kNil; i = slots_[i].next) {
      fn(slots_[i].key, *value_ptr(i));
    }
  }

  /// Bytes held by the slot array (the map's entire footprint beyond
  /// sizeof(*this); values' own heap allocations are not included).
  std::size_t memory_bytes() const {
    return sizeof(*this) + slots_.capacity() * sizeof(Slot);
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kMinCapacity = 8;

  struct Slot {
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    bool occupied = false;
    K key{};
    alignas(V) unsigned char value[sizeof(V)];
  };

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t home_of(const K& key) const {
    return static_cast<std::size_t>(
        compact_mix64(static_cast<std::uint64_t>(hash_(key))) & mask());
  }
  std::size_t probe_distance(std::size_t idx, std::size_t home) const {
    return (idx - home) & mask();
  }

  V* value_ptr(std::size_t idx) {
    return std::launder(reinterpret_cast<V*>(slots_[idx].value));
  }
  const V* value_ptr(std::size_t idx) const {
    return std::launder(reinterpret_cast<const V*>(slots_[idx].value));
  }

  std::uint32_t find_index(const K& key) const {
    if (slots_.empty()) return kNil;
    std::size_t i = home_of(key);
    while (slots_[i].occupied) {
      if (slots_[i].key == key) return static_cast<std::uint32_t>(i);
      i = (i + 1) & mask();
    }
    return kNil;
  }

  /// First empty slot in `key`'s probe run. Precondition: key absent
  /// and at least one empty slot exists (load < 1 by construction).
  std::uint32_t probe_empty(const K& key) const {
    std::size_t i = home_of(key);
    while (slots_[i].occupied) i = (i + 1) & mask();
    return static_cast<std::uint32_t>(i);
  }

  void link_front(std::uint32_t idx) {
    Slot& s = slots_[idx];
    s.prev = kNil;
    s.next = head_;
    if (head_ != kNil) slots_[head_].prev = idx;
    head_ = idx;
    if (tail_ == kNil) tail_ = idx;
  }

  void unlink(std::uint32_t idx) {
    Slot& s = slots_[idx];
    if (s.prev != kNil) {
      slots_[s.prev].next = s.next;
    } else {
      head_ = s.next;
    }
    if (s.next != kNil) {
      slots_[s.next].prev = s.prev;
    } else {
      tail_ = s.prev;
    }
    s.prev = s.next = kNil;
  }

  void move_to_front(std::uint32_t idx) {
    if (head_ == idx) return;
    unlink(idx);
    link_front(idx);
  }

  /// Move an occupied slot into an empty one, re-patching the moved
  /// entry's LRU neighbours (links are slot indices, so a relocation
  /// must rename the entry everywhere the list mentions it).
  void relocate(std::size_t from, std::size_t to) {
    Slot& src = slots_[from];
    Slot& dst = slots_[to];
    ::new (static_cast<void*>(dst.value)) V(std::move(*value_ptr(from)));
    value_ptr(from)->~V();
    dst.key = src.key;
    dst.prev = src.prev;
    dst.next = src.next;
    dst.occupied = true;
    src.occupied = false;
    src.prev = src.next = kNil;
    const std::uint32_t t = static_cast<std::uint32_t>(to);
    if (dst.prev != kNil) {
      slots_[dst.prev].next = t;
    } else {
      head_ = t;
    }
    if (dst.next != kNil) {
      slots_[dst.next].prev = t;
    } else {
      tail_ = t;
    }
  }

  /// Knuth deletion for linear probing (Algorithm R): scan the probe
  /// run after the hole and pull back every entry whose probe path
  /// passes through the hole, until the run's first empty slot. An
  /// entry whose home lies cyclically strictly inside (hole, j] never
  /// probed the hole and must stay put — moving it would park it
  /// before its home slot, where lookups cannot reach it.
  void erase_slot(std::uint32_t idx) {
    unlink(idx);
    value_ptr(idx)->~V();
    slots_[idx].occupied = false;
    --size_;
    std::size_t hole = idx;
    std::size_t j = (hole + 1) & mask();
    while (slots_[j].occupied) {
      const std::size_t home = home_of(slots_[j].key);
      // hole cyclically in [home, j) <=> dist(home->j) >= dist(hole->j).
      if (probe_distance(j, home) >= probe_distance(j, hole)) {
        relocate(j, hole);
        hole = j;
      }
      j = (j + 1) & mask();
    }
  }

  void reserve_one() {
    if (slots_.empty()) {
      slots_.resize(kMinCapacity);
      return;
    }
    // Grow before load factor exceeds 13/16.
    if ((size_ + 1) * 16 > slots_.size() * 13) rehash(slots_.size() * 2);
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    const std::uint32_t old_tail = tail_;
    slots_.clear();
    slots_.resize(new_capacity);
    head_ = tail_ = kNil;
    size_ = 0;
    // Reinsert from least to most recently used, pushing each to the
    // front: the rebuilt list reproduces the old recency order exactly.
    for (std::uint32_t i = old_tail; i != kNil; i = old[i].prev) {
      const std::uint32_t idx = probe_empty(old[i].key);
      Slot& s = slots_[idx];
      V* v = std::launder(reinterpret_cast<V*>(old[i].value));
      ::new (static_cast<void*>(s.value)) V(std::move(*v));
      v->~V();
      s.key = old[i].key;
      s.occupied = true;
      link_front(idx);
      ++size_;
    }
  }

  void destroy_all() {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].occupied) value_ptr(i)->~V();
    }
  }

  void steal(FlatLruMap& other) noexcept {
    slots_ = std::move(other.slots_);
    size_ = other.size_;
    max_entries_ = other.max_entries_;
    head_ = other.head_;
    tail_ = other.tail_;
    hash_ = std::move(other.hash_);
    other.slots_.clear();
    other.size_ = 0;
    other.head_ = other.tail_ = kNil;
  }

  void copy_entries_from(const FlatLruMap& other) {
    // Walk the source from LRU to MRU so repeated get_or_emplace
    // rebuilds the identical recency order.
    std::vector<std::uint32_t> order;
    order.reserve(other.size_);
    for (std::uint32_t i = other.tail_; i != kNil; i = other.slots_[i].prev) {
      order.push_back(i);
    }
    for (const std::uint32_t i : order) {
      get_or_emplace(other.slots_[i].key, *other.value_ptr(i));
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t max_entries_ = 0;
  std::uint32_t head_ = kNil;  ///< most recently used
  std::uint32_t tail_ = kNil;  ///< least recently used
  [[no_unique_address]] Hash hash_{};
};

}  // namespace sa
