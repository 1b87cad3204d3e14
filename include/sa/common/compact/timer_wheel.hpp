// Hierarchical timing wheel (after ndn-dpdk container/mintmr), ticking
// on frame indices: idle rate-limit windows and stale tracker entries
// expire in O(1) amortized per tick instead of scan-on-access.
//
// Four levels of 256 slots cover a 2^32-tick horizon; later deadlines
// land in an overflow list that is re-examined when the top level
// cascades. Events carry an absolute deadline plus an opaque payload
// (a MAC, or a (MAC, generation) pair) — payload addressing keeps the
// wheel decoupled from slot positions in the flat maps, which move
// under backward-shift and rehash.
//
// advance(to, fire) fires every event with deadline <= to, in
// non-decreasing deadline order, then sets now() = to. The consumer
// drives it from its own decision stream (the engine's control thread
// passes the global frame sequence), so expiry is deterministic at any
// thread count: the consumer sees its frames in the same order with
// the same indices no matter how many workers exist.
//
// Not thread safe; each wheel has a single owner.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sa {

template <class T>
class TimerWheel {
 public:
  explicit TimerWheel(std::uint64_t start_tick = 0) : now_(start_tick) {}

  std::uint64_t now() const { return now_; }
  std::size_t scheduled() const { return scheduled_; }

  /// Schedule `payload` to fire once now() reaches `deadline`. A
  /// deadline at or before now() fires on the next advance().
  void schedule(std::uint64_t deadline, T payload) {
    if (deadline <= now_) deadline = now_ + 1;
    place(Event{deadline, std::move(payload)});
    ++scheduled_;
  }

  /// Advance to `to`, invoking fire(payload, deadline) for every due
  /// event in non-decreasing deadline order. `fire` may schedule() new
  /// events (lazy rescheduling); it must not call advance() reentrantly.
  template <class Fn>
  void advance(std::uint64_t to, Fn&& fire) {
    while (now_ < to) {
      if (scheduled_ == 0) {  // nothing pending: skip the idle ticks
        now_ = to;
        return;
      }
      ++now_;
      // Cascade outer levels when the inner ones wrap: slot 0 of level
      // L is reached every 256^L ticks, at which point the events
      // parked in level L's current slot re-place into finer levels.
      for (std::size_t level = 1; level < kLevels; ++level) {
        if ((now_ & ((std::uint64_t{1} << (kSlotBits * level)) - 1)) != 0) {
          break;
        }
        cascade(levels_[level][slot_at(level, now_)]);
        if (level == kLevels - 1 && slot_at(level, now_) == 0) {
          cascade(overflow_);
        }
      }
      auto& due = levels_[0][slot_at(0, now_)];
      if (!due.empty()) {
        // Everything here has deadline == now_ (level 0 holds only the
        // next 256 ticks, one deadline per slot).
        scratch_.clear();
        scratch_.swap(due);
        scheduled_ -= scratch_.size();
        for (Event& e : scratch_) {
          fire(std::move(e.payload), e.deadline);
        }
      }
    }
  }

  std::size_t memory_bytes() const {
    std::size_t bytes = sizeof(*this);
    for (const auto& level : levels_) {
      for (const auto& slot : level) bytes += slot.capacity() * sizeof(Event);
    }
    bytes += overflow_.capacity() * sizeof(Event);
    bytes += scratch_.capacity() * sizeof(Event);
    return bytes;
  }

 private:
  static constexpr std::size_t kSlotBits = 8;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static constexpr std::size_t kLevels = 4;

  struct Event {
    std::uint64_t deadline;
    T payload;
  };

  static std::size_t slot_at(std::size_t level, std::uint64_t tick) {
    return static_cast<std::size_t>(tick >> (kSlotBits * level)) &
           (kSlots - 1);
  }

  void place(Event e) {
    const std::uint64_t delta = e.deadline - now_;
    for (std::size_t level = 0; level < kLevels; ++level) {
      if ((delta >> (kSlotBits * (level + 1))) == 0) {
        levels_[level][slot_at(level, e.deadline)].push_back(std::move(e));
        return;
      }
    }
    overflow_.push_back(std::move(e));
  }

  void cascade(std::vector<Event>& from) {
    if (from.empty()) return;
    std::vector<Event> moved;
    moved.swap(from);
    for (Event& e : moved) place(std::move(e));
  }

  std::uint64_t now_;
  std::size_t scheduled_ = 0;
  std::array<std::array<std::vector<Event>, kSlots>, kLevels> levels_;
  std::vector<Event> overflow_;
  std::vector<Event> scratch_;
};

}  // namespace sa
