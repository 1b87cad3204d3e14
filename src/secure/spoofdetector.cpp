#include "sa/secure/spoofdetector.hpp"

namespace sa {

SpoofDetector::SpoofDetector(TrackerConfig tracker_config,
                             std::size_t max_tracked_macs,
                             std::size_t idle_expiry_frames)
    : tracker_config_(tracker_config),
      idle_expiry_frames_(idle_expiry_frames),
      trackers_(max_tracked_macs) {}

SpoofObservation SpoofDetector::observe(const MacAddress& source,
                                        const AoaSignature& signature) {
  return observe(source, SubbandSignature::single(signature));
}

SpoofObservation SpoofDetector::observe(const MacAddress& source,
                                        const SubbandSignature& signature) {
  const std::uint64_t now = ++packets_;
  if (idle_expiry_frames_ > 0) {
    // The LRU tail holds the smallest last_seen, so the idle trackers
    // are exactly a prefix of the list read from its tail.
    expirations_ += trackers_.erase_lru_while([&](const Entry& e) {
      return e.last_seen + idle_expiry_frames_ <= now;
    });
  }

  const TrackerDecision d = admit(source, now).tracker.observe(signature);
  SpoofObservation out;
  out.score = d.score;
  switch (d.verdict) {
    case TrackerVerdict::kTraining:
      out.verdict = SpoofVerdict::kTraining;
      break;
    case TrackerVerdict::kMatch:
      out.verdict = SpoofVerdict::kLegitimate;
      break;
    case TrackerVerdict::kMismatch:
      out.verdict = SpoofVerdict::kSpoof;
      ++alarms_;
      break;
  }
  return out;
}

SpoofDetector::Entry& SpoofDetector::admit(const MacAddress& source,
                                           std::uint64_t now) {
  const auto r = trackers_.get_or_emplace(source, tracker_config_);
  if (r.evicted) ++evictions_;
  r.value->last_seen = now;
  return *r.value;
}

const SignatureTracker* SpoofDetector::tracker(const MacAddress& source) const {
  const Entry* e = trackers_.find(source);
  return e == nullptr ? nullptr : &e->tracker;
}

std::optional<TrackerSnapshot> SpoofDetector::export_tracker(
    const MacAddress& source) const {
  const Entry* e = trackers_.find(source);
  if (e == nullptr) return std::nullopt;
  return e->tracker.snapshot();
}

void SpoofDetector::import_tracker(const MacAddress& source,
                                   const TrackerSnapshot& snap) {
  // observe()'s insertion path with now = packets_ (no tick): the
  // entry becomes the most-recently-seen client, with a full idle
  // window ahead of it, without advancing any other client's clock.
  admit(source, packets_).tracker.restore(snap);
}

void SpoofDetector::forget(const MacAddress& source) { trackers_.erase(source); }

SpoofDetectorStats SpoofDetector::stats() const {
  return SpoofDetectorStats{packets_, alarms_, trackers_.size(), evictions_,
                            expirations_};
}

}  // namespace sa
