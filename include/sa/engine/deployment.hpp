// Engine configuration and the cross-AP frame grouping shared by the
// EngineSession dataplane (sa/engine/session.hpp) and its serial
// reference.
//
// A SecureAngle deployment receives continuous per-AP sample streams and
// must turn them into one ordered stream of frame decisions:
//
//   per-AP sample chunks
//     -> StreamingReceiver::scan        (per AP, on the AP's worker)
//     -> AccessPoint::demodulate        (per candidate frame, same
//                                        worker: PHY header decode,
//                                        per-subband covariance and AoA,
//                                        signature)
//     -> StreamingReceiver::commit      (per AP, same worker)
//     -> group_frame_observations       (the control thread, in round
//                                        order: fuse the APs' views, then
//                                        decode each frame's DATA once,
//                                        at its strongest AP)
//     -> spoof observe + policy chain   (the control thread, same pass,
//                                        in sequence order)
//     -> EngineDecision stream
//
// Determinism: the emitted FrameDecision sequence is identical at any
// thread count — and identical to feeding the same chunk streams through
// serial StreamingReceivers, the same grouping, and Coordinator::process.
#pragma once

#include <cstdint>
#include <vector>

#include "sa/engine/sharded_spoof.hpp"
#include "sa/secure/coordinator.hpp"
#include "sa/secure/streaming.hpp"

namespace sa {

struct EngineConfig {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  std::size_t num_threads = 1;
  /// MAC-hash shards for per-client tracker state.
  std::size_t num_shards = 8;
  /// Detections across APs within this many samples of each other are
  /// fused as one frame (propagation plus detection jitter; a WARP
  /// buffer is 8000 samples).
  std::size_t group_slack_samples = 1600;
  StreamingConfig streaming;
  CoordinatorConfig coordinator;
};

/// One cross-AP view of one frame, ready for the coordinator.
struct FrameGroup {
  std::size_t absolute_start = 0;  ///< earliest detection across APs
  std::vector<ApObservation> observations;
};

/// Fuse per-AP stream packets into frame groups: packets whose absolute
/// start samples lie within `slack_samples` of a group's first packet are
/// the same transmission heard by different APs. Deterministic: groups
/// are ordered by (start sample, AP index). Each group's
/// Coordinator::best_observation then gets its DATA decoded
/// (decode_data), and every other observation's pending DATA samples
/// are released undecoded: only the best one carries a `phy`/`frame`.
std::vector<FrameGroup> group_frame_observations(
    std::vector<std::vector<StreamingReceiver::StreamPacket>> per_ap_packets,
    const std::vector<Vec2>& ap_positions, std::size_t slack_samples);

/// One decision in the engine's output stream, in sequence order.
struct EngineDecision {
  std::size_t sequence = 0;        ///< global frame index, monotonically increasing
  std::size_t absolute_start = 0;  ///< earliest detection sample across APs
  FrameDecision decision;
};

}  // namespace sa
