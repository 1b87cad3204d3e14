// Per-MAC tracker state sharded by MAC hash. Each shard is an
// independent SpoofDetector, and a MAC always maps to the same shard,
// so every client's signature history evolves strictly in frame order.
// Nothing here takes a lock: the session's control thread makes every
// observe() call, in frame order, and any other thread may touch the
// shards only while the session is quiescent — stats() readers after
// drain() or wait_idle(), and the session's fleet-handoff hooks (the
// callers of export_tracker(), import_tracker() and forget()), which
// FleetCoordinator calls under its control-plane lock after wait_idle().
#pragma once

#include <vector>

#include "sa/secure/spoofdetector.hpp"

namespace sa {

class ShardedSpoofDetector {
 public:
  /// `max_tracked_macs` is the total tracker budget, divided evenly
  /// across shards; 0 means unbounded, and a nonzero bound must be
  /// >= num_shards (each shard needs at least one slot — a smaller
  /// bound would silently inflate to num_shards). Each shard LRU-evicts
  /// independently, so once the bound is actually binding, *which* MAC
  /// is evicted depends on the MAC-hash sharding — decisions can then
  /// diverge from a serial SpoofDetector with the same global bound.
  /// Equivalence with a plain Coordinator therefore assumes the bound
  /// is not hit (or is 0, the default); the session's decisions are the
  /// same at any worker count either way.
  /// `idle_expiry_frames` (0 = off) is forwarded to every shard's
  /// detector: a tracker not observed for that many of its shard's
  /// observation ticks is expired off the shard's LRU list. Shard
  /// observation order is fixed by the session's control thread
  /// regardless of worker count, so expiry stays deterministic at any
  /// thread count.
  explicit ShardedSpoofDetector(TrackerConfig tracker_config,
                                std::size_t num_shards = 8,
                                std::size_t max_tracked_macs = 0,
                                std::size_t idle_expiry_frames = 0);

  std::size_t num_shards() const { return shards_.size(); }

  /// Feed one (MAC, signature) pair to its owning shard. The tracker
  /// comparison is subband-wise, like SpoofDetector's.
  SpoofObservation observe(const MacAddress& source,
                           const SubbandSignature& signature);
  /// Single-band compatibility overload.
  SpoofObservation observe(const MacAddress& source,
                           const AoaSignature& signature);

  /// Forget a MAC entirely (e.g. after deauthentication).
  void forget(const MacAddress& source);

  /// Copy out a MAC's tracker state (cross-site handoff export).
  /// nullopt if the MAC is not tracked.
  std::optional<TrackerSnapshot> export_tracker(const MacAddress& source) const;

  /// Install handed-off tracker state into the owning shard (see
  /// SpoofDetector::import_tracker — no observation tick is consumed).
  void import_tracker(const MacAddress& source, const TrackerSnapshot& snap);

  /// Aggregate statistics over every shard.
  SpoofDetectorStats stats() const;

 private:
  std::size_t shard_of(const MacAddress& source) const;

  std::vector<SpoofDetector> shards_;
};

}  // namespace sa
