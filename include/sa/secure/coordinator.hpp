// Multi-AP coordination: the controller that a SecureAngle deployment
// runs centrally. It fuses the per-AP views of each uplink frame and
// runs the configured SecurityPolicy chain over them (sa/secure/
// policy.hpp): decode gating, the ACL baseline, the virtual fence
// (Sec. 2.3.1), spoof detection (Sec. 2.3.2), per-MAC rate limiting —
// in declared order, short-circuiting on the first drop. The fusion
// step is also where cross-AP false-positive AoA removal happens
// (Sec. 3.1), via the context's cached localize() outlier rejection.
#pragma once

#include <optional>
#include <vector>

#include "sa/secure/accesspoint.hpp"
#include "sa/secure/policy.hpp"
#include "sa/secure/spoofdetector.hpp"
#include "sa/secure/virtualfence.hpp"

namespace sa {

struct CoordinatorConfig {
  /// Fence boundary; nullopt disables the fence check (FencePolicy is
  /// skipped even if named in `policies`).
  std::optional<Polygon> fence_boundary;
  double fence_max_residual_deg = 20.0;
  TrackerConfig tracker;
  /// LRU bound on per-MAC spoof trackers; 0 = unbounded. Under the
  /// engine the bound is split across MAC-hash shards (must then be
  /// >= num_shards), and when eviction actually fires the engine's
  /// eviction choices — hence decisions for evicted-and-returning
  /// MACs — can differ from a serial Coordinator's global LRU. They
  /// are the same at any engine worker count.
  std::size_t max_tracked_macs = 0;
  /// Expire spoof trackers idle for this many observation ticks (see
  /// SpoofDetector); 0 (default) = never. Opt-in because an expired
  /// tracker retrains when its client returns, which changes decisions
  /// — with it off, decisions are unchanged.
  std::size_t spoof_idle_frames = 0;
  /// Minimum APs that must hear a frame before it can be localized.
  std::size_t min_aps_for_fence = 2;
  /// Fence policy when a frame is heard by fewer than min_aps_for_fence
  /// APs: false (default) = fail closed and drop it — only clients
  /// positively localized inside the boundary get access, which is the
  /// paper's intent; true = fail open and let it through.
  bool fence_fail_open = false;
  /// Policy chain, in evaluation order. DecodePolicy is implicit and
  /// always first. The default (spoof before fence) mirrors the
  /// pre-chain coordinator, keeping its output byte-identical.
  std::vector<PolicyKind> policies = default_policy_chain();
  /// Allow list for AclPolicy; required iff `policies` names kAcl.
  std::optional<AccessControlList> acl;
  /// RateLimitPolicy settings, used iff `policies` names kRateLimit.
  RateLimitConfig rate_limit;
};

class Coordinator {
 public:
  /// Builds the policy chain described by `config`.
  explicit Coordinator(CoordinatorConfig config);

  /// Custom chain: `config` still supplies the tracker settings for the
  /// spoof judge (used iff the chain contains a SpoofPolicy), but the
  /// caller composes the policies — including its own SecurityPolicy
  /// subclasses.
  Coordinator(CoordinatorConfig config, PolicyChain chain);

  /// Fuse all APs' observations of one frame and decide its fate.
  /// Precondition: every observation refers to the same transmission.
  FrameDecision process(const std::vector<ApObservation>& observations);

  /// The engine's entry point: identical decision logic and statistics,
  /// but the spoof observation (present iff the frame was decodable and
  /// the chain wants spoof checking) was computed by the caller against
  /// its own MAC-sharded tracker state instead of this coordinator's
  /// detector, and the caller supplies the global frame index for
  /// stateful policies (rate limiting windows on it). The engine's
  /// control thread passes each frame's sequence number, the same clock
  /// its fleet-handoff export advances rate windows to.
  FrameDecision process_prejudged(
      const std::vector<ApObservation>& observations,
      const std::optional<SpoofObservation>& spoof, std::size_t frame_index);

  /// The observation whose detection is strongest — the copy whose PHY
  /// decode and signature are the most trustworthy. The frame content
  /// and the spoof check both come from it.
  static const ApObservation& best_observation(
      const std::vector<ApObservation>& observations);

  const PolicyChain& chain() const { return chain_; }
  /// Quiescent maintenance access (fleet handoff export/import between
  /// frames) — never while process*() may be running.
  PolicyChain& mutable_chain() { return chain_; }
  /// True iff the chain contains a SpoofPolicy — i.e. callers feeding
  /// process_prejudged() must supply a spoof observation for decodable
  /// frames.
  bool wants_spoof() const { return wants_spoof_; }
  const SpoofDetector& spoof_detector() const { return spoof_; }

 private:
  CoordinatorConfig config_;
  PolicyChain chain_;
  bool wants_spoof_ = false;
  SpoofDetector spoof_;
};

}  // namespace sa
