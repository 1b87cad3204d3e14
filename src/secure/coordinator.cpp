#include "sa/secure/coordinator.hpp"

#include <utility>

#include "sa/common/error.hpp"

namespace sa {

namespace {

PolicyChain build_chain(const CoordinatorConfig& config) {
  PolicyChain chain;
  chain.add(std::make_unique<DecodePolicy>());
  for (const PolicyKind kind : config.policies) {
    switch (kind) {
      case PolicyKind::kAcl:
        SA_EXPECTS(config.acl.has_value());
        chain.add(std::make_unique<AclPolicy>(*config.acl));
        break;
      case PolicyKind::kFence:
        if (config.fence_boundary) {
          chain.add(std::make_unique<FencePolicy>(
              VirtualFence(*config.fence_boundary,
                           config.fence_max_residual_deg),
              config.min_aps_for_fence, config.fence_fail_open));
        }
        break;
      case PolicyKind::kSpoof:
        chain.add(std::make_unique<SpoofPolicy>());
        break;
      case PolicyKind::kRateLimit:
        chain.add(std::make_unique<RateLimitPolicy>(config.rate_limit));
        break;
    }
  }
  return chain;
}

}  // namespace

Coordinator::Coordinator(CoordinatorConfig config)
    : config_(std::move(config)),
      chain_(build_chain(config_)),
      wants_spoof_(chain_.contains(SpoofPolicy::kName)),
      spoof_(config_.tracker, config_.max_tracked_macs,
             config_.spoof_idle_frames) {}

Coordinator::Coordinator(CoordinatorConfig config, PolicyChain chain)
    : config_(std::move(config)),
      chain_(std::move(chain)),
      wants_spoof_(chain_.contains(SpoofPolicy::kName)),
      spoof_(config_.tracker, config_.max_tracked_macs,
             config_.spoof_idle_frames) {}

const ApObservation& Coordinator::best_observation(
    const std::vector<ApObservation>& observations) {
  SA_EXPECTS(!observations.empty());
  const ApObservation* best = &observations.front();
  for (const auto& o : observations) {
    if (o.packet.detection.fine_peak > best->packet.detection.fine_peak) {
      best = &o;
    }
  }
  return *best;
}

FrameDecision Coordinator::process(
    const std::vector<ApObservation>& observations) {
  const ApObservation& best = best_observation(observations);
  // The spoof judge observes every decodable frame — training advances
  // even when another policy later drops the frame, exactly as the
  // engine's pre-judged path behaves.
  std::optional<SpoofObservation> so;
  if (wants_spoof_ && best.packet.frame) {
    so = spoof_.observe(best.packet.frame->addr2, best.packet.subband);
  }
  // A serial chain's processed count *is* the global frame index.
  FrameContext ctx(observations, best, chain_.frames(), so);
  return chain_.run(ctx);
}

FrameDecision Coordinator::process_prejudged(
    const std::vector<ApObservation>& observations,
    const std::optional<SpoofObservation>& spoof, std::size_t frame_index) {
  const ApObservation& best = best_observation(observations);
  if (wants_spoof_) {
    SA_EXPECTS(spoof.has_value() == best.packet.frame.has_value());
  }
  FrameContext ctx(observations, best, frame_index, spoof);
  return chain_.run(ctx);
}

}  // namespace sa
