// Address-spoofing prevention (paper §2.3.2): bind each MAC address to a
// tracked AoA signature; flag packets whose signature diverges from the
// one trained for that address.
//
// Tracker state lives in one flat open-addressing LRU map (no node
// allocations). The LRU list is also the idle-expiry schedule: only
// observe() and import_tracker() stamp an entry's last-seen tick, and
// both make it most recently used, so the list runs in last-seen order
// and every idle tracker sits at its tail.
//
// Recency policy (deliberate, and preserved from the node-based
// implementation): observe() refreshes a MAC's LRU recency whether it
// hits or inserts; the read-only tracker() accessor does NOT — a
// forensic lookup must not keep a client resident under eviction
// pressure.
#pragma once

#include "sa/common/compact/flat_lru_map.hpp"
#include "sa/mac/address.hpp"
#include "sa/signature/tracker.hpp"

namespace sa {

enum class SpoofVerdict {
  kTraining,    ///< still learning this MAC's signature
  kLegitimate,  ///< signature matches the trained reference
  kSpoof,       ///< signature mismatch — injection suspected
};

struct SpoofObservation {
  SpoofVerdict verdict = SpoofVerdict::kTraining;
  double score = 0.0;
};

struct SpoofDetectorStats {
  std::size_t packets = 0;
  std::size_t alarms = 0;
  std::size_t tracked_macs = 0;
  std::size_t evictions = 0;    ///< trackers dropped by the LRU bound
  std::size_t expirations = 0;  ///< trackers dropped by idle expiry
};

class SpoofDetector {
 public:
  /// `max_tracked_macs` bounds the per-MAC tracker map: when a new MAC
  /// would exceed it, the least-recently-observed MAC's tracker is
  /// evicted (it retrains from scratch if that client returns). 0 means
  /// unbounded — unacceptable at deployment scale, but the historical
  /// default.
  ///
  /// `idle_expiry_frames` > 0 additionally expires any tracker not
  /// observed for that many observation ticks: each observe() first
  /// erases trackers off the LRU tail while they are that stale. Off
  /// (0) by default: expiring a tracker changes decisions (a returning
  /// client retrains), so deployments opt in.
  explicit SpoofDetector(TrackerConfig tracker_config = {},
                         std::size_t max_tracked_macs = 0,
                         std::size_t idle_expiry_frames = 0);

  /// Feed one (MAC, signature) pair from a decoded uplink frame. The
  /// per-MAC tracker compares subband-wise (one band = the paper's
  /// narrowband behavior, unchanged). The detector's own packet count
  /// is the idle-expiry tick — strictly increasing per detector, and
  /// deterministic at any engine thread count because a MAC's shard
  /// observes its frames in the same order regardless of workers.
  SpoofObservation observe(const MacAddress& source,
                           const SubbandSignature& signature);
  /// Single-band compatibility overload.
  SpoofObservation observe(const MacAddress& source,
                           const AoaSignature& signature);

  /// Tracker for a MAC, if it has been seen. The pointer is invalidated
  /// by the next observe()/forget() (flat storage moves under insertion
  /// and erasure) — use it immediately.
  const SignatureTracker* tracker(const MacAddress& source) const;

  /// Forget a MAC entirely (e.g. after deauthentication).
  void forget(const MacAddress& source);

  /// Copy out a MAC's tracker state for cross-site handoff; nullopt if
  /// the MAC is not tracked. Read-only: no LRU touch, no tick consumed.
  std::optional<TrackerSnapshot> export_tracker(const MacAddress& source) const;

  /// Install handed-off tracker state for a MAC, inserting it into the
  /// map exactly as a first observation would (most recently used, a
  /// full idle window ahead), but without consuming an observation
  /// tick — the imported client has not sent a frame here yet.
  /// Overwrites any existing tracker for the MAC.
  void import_tracker(const MacAddress& source, const TrackerSnapshot& snap);

  SpoofDetectorStats stats() const;

 private:
  struct Entry {
    explicit Entry(const TrackerConfig& config) : tracker(config) {}
    SignatureTracker tracker;
    std::uint64_t last_seen = 0;
  };

  /// Insert or refresh `source`'s entry as most recently used, stamped
  /// with tick `now`.
  Entry& admit(const MacAddress& source, std::uint64_t now);

  TrackerConfig tracker_config_;
  std::size_t idle_expiry_frames_;
  FlatLruMap<MacAddress, Entry> trackers_;
  std::size_t packets_ = 0;
  std::size_t alarms_ = 0;
  std::size_t evictions_ = 0;
  std::size_t expirations_ = 0;
};

}  // namespace sa
