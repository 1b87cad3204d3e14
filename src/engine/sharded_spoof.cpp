#include "sa/engine/sharded_spoof.hpp"

#include "sa/common/error.hpp"

namespace sa {

ShardedSpoofDetector::ShardedSpoofDetector(TrackerConfig tracker_config,
                                           std::size_t num_shards,
                                           std::size_t max_tracked_macs,
                                           std::size_t idle_expiry_frames) {
  SA_EXPECTS(num_shards >= 1);
  SA_EXPECTS(max_tracked_macs == 0 || max_tracked_macs >= num_shards);
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    // Distribute the budget's remainder so the shard caps sum to
    // exactly max_tracked_macs.
    const std::size_t per_shard =
        max_tracked_macs == 0 ? 0 : (max_tracked_macs + i) / num_shards;
    shards_.emplace_back(tracker_config, per_shard, idle_expiry_frames);
  }
}

std::size_t ShardedSpoofDetector::shard_of(const MacAddress& source) const {
  return std::hash<MacAddress>{}(source) % shards_.size();
}

SpoofObservation ShardedSpoofDetector::observe(
    const MacAddress& source, const SubbandSignature& signature) {
  return shards_[shard_of(source)].observe(source, signature);
}

SpoofObservation ShardedSpoofDetector::observe(const MacAddress& source,
                                               const AoaSignature& signature) {
  return observe(source, SubbandSignature::single(signature));
}

void ShardedSpoofDetector::forget(const MacAddress& source) {
  shards_[shard_of(source)].forget(source);
}

std::optional<TrackerSnapshot> ShardedSpoofDetector::export_tracker(
    const MacAddress& source) const {
  return shards_[shard_of(source)].export_tracker(source);
}

void ShardedSpoofDetector::import_tracker(const MacAddress& source,
                                          const TrackerSnapshot& snap) {
  shards_[shard_of(source)].import_tracker(source, snap);
}

SpoofDetectorStats ShardedSpoofDetector::stats() const {
  SpoofDetectorStats total;
  for (const SpoofDetector& shard : shards_) {
    const SpoofDetectorStats s = shard.stats();
    total.packets += s.packets;
    total.alarms += s.alarms;
    total.tracked_macs += s.tracked_macs;
    total.evictions += s.evictions;
    total.expirations += s.expirations;
  }
  return total;
}

}  // namespace sa
