#include "sa/secure/policy.hpp"

#include <algorithm>

#include "sa/common/error.hpp"

namespace sa {

FrameContext::FrameContext(const std::vector<ApObservation>& observations,
                           const ApObservation& best, std::size_t frame_index,
                           std::optional<SpoofObservation> spoof)
    : observations_(&observations),
      best_(&best),
      frame_index_(frame_index),
      spoof_(spoof) {
  SA_EXPECTS(!observations.empty());
  if (best.packet.frame) source_ = best.packet.frame->addr2;
}

const std::optional<LocalizationResult>& FrameContext::localization() {
  if (!localization_computed_) {
    localization_computed_ = true;
    std::vector<FenceObservation> obs;
    obs.reserve(observations_->size());
    for (const auto& o : *observations_) {
      obs.push_back({o.ap_position, o.packet.bearing_world_deg});
    }
    location_ = localize(obs);
  }
  return location_;
}

PolicyChain& PolicyChain::add(std::unique_ptr<SecurityPolicy> policy) {
  SA_EXPECTS(policy != nullptr);
  stats_.push_back(PolicyStats{policy->name(), 0, 0, 0});
  policies_.push_back(std::move(policy));
  return *this;
}

FrameDecision PolicyChain::run(FrameContext& ctx) {
  ++frames_;
  FrameDecision d;
  d.trace.reserve(policies_.size());
  for (std::size_t i = 0; i < policies_.size(); ++i) {
    const PolicyVerdict v = policies_[i]->evaluate(ctx);
    ++stats_[i].evaluated;
    d.trace.push_back({stats_[i].name, v.drop, v.detail});
    if (v.drop) {
      ++stats_[i].dropped;
      d.accepted = false;
      d.policy = stats_[i].name;
      d.detail = v.detail;
      break;
    }
    ++stats_[i].accepted;
  }
  if (d.accepted) {
    ++accepted_;
    d.detail = "accepted";
  }
  d.source = ctx.source();
  if (ctx.spoof()) {
    d.spoof = ctx.spoof()->verdict;
    d.spoof_score = ctx.spoof()->score;
  }
  if (ctx.localization_computed()) {
    d.location = ctx.localization();
  }
  return d;
}

std::size_t PolicyChain::drops(std::string_view policy_name) const {
  for (const auto& s : stats_) {
    if (s.name == policy_name) return s.dropped;
  }
  return 0;
}

bool PolicyChain::contains(std::string_view policy_name) const {
  return std::any_of(stats_.begin(), stats_.end(), [&](const PolicyStats& s) {
    return s.name == policy_name;
  });
}

// ------------------------------------------------------------- policies

PolicyVerdict DecodePolicy::evaluate(FrameContext& ctx) {
  if (!ctx.decoded()) return PolicyVerdict::deny(kDetailUndecodable);
  return PolicyVerdict::accept();
}

PolicyVerdict AclPolicy::evaluate(FrameContext& ctx) {
  if (!ctx.source()) return PolicyVerdict::deny(kDetailDenied);
  if (!acl_.is_allowed(*ctx.source())) return PolicyVerdict::deny(kDetailDenied);
  return PolicyVerdict::accept();
}

FencePolicy::FencePolicy(VirtualFence fence, std::size_t min_aps,
                         bool fail_open)
    : fence_(std::move(fence)), min_aps_(min_aps), fail_open_(fail_open) {}

PolicyVerdict FencePolicy::evaluate(FrameContext& ctx) {
  if (ctx.observations().size() < min_aps_) {
    // Fail closed by default: only clients positively localized inside
    // the boundary get access, which is the paper's intent.
    if (fail_open_) return PolicyVerdict::accept();
    return PolicyVerdict::deny(kDetailTooFewAps);
  }
  const FenceDecision fd = fence_.check_localized(ctx.localization());
  if (!fd.allowed) return PolicyVerdict::deny(fd.reason);
  return PolicyVerdict::accept(fd.reason);
}

PolicyVerdict SpoofPolicy::evaluate(FrameContext& ctx) {
  if (ctx.spoof() && ctx.spoof()->verdict == SpoofVerdict::kSpoof) {
    return PolicyVerdict::deny(kDetailSpoof);
  }
  return PolicyVerdict::accept();
}

RateLimitPolicy::RateLimitPolicy(RateLimitConfig config)
    : config_(config), history_(config.max_tracked_macs) {
  SA_EXPECTS(config_.max_frames >= 1);
  SA_EXPECTS(config_.window_frames >= 1);
}

void RateLimitPolicy::retire_until(std::uint64_t now) {
  SA_EXPECTS(now >= clock_);
  clock_ = now;
  // Retire admits that have left the window: the decrement for an admit
  // at frame a is due at a + window_frames, i.e. exactly when the old
  // implementation's prune dropped a (a < now - window_frames + 1).
  while (!pending_.empty() && pending_.front().due <= now) {
    const Decrement d = pending_.front();
    pending_.pop_front();
    RateState* st = history_.find(d.mac);  // pure read: no LRU touch
    if (st == nullptr || st->generation != d.generation) continue;
    if (--st->in_window == 0) history_.erase(d.mac);
  }
}

void RateLimitPolicy::advance_to(std::size_t frame) { retire_until(frame); }

PolicyVerdict RateLimitPolicy::evaluate(FrameContext& ctx) {
  if (!ctx.source()) return PolicyVerdict::deny(kDetailNoSource);
  const MacAddress& mac = *ctx.source();
  const std::size_t now = ctx.frame_index();

  retire_until(now);

  const auto r = history_.get_or_emplace(mac);
  if (r.evicted) ++evictions_;
  if (r.inserted) r.value->generation = ++next_generation_;
  if (r.value->restart_pending) {
    // Rate-window restart rule: residue imported by a handoff re-enters
    // the window at the client's first local frame. Schedule its
    // decrements one full window out now — before the deny check, or a
    // max_frames residue would deny forever.
    r.value->restart_pending = false;
    for (std::uint32_t i = 0; i < r.value->in_window; ++i) {
      pending_.push_back({now + config_.window_frames, r.value->generation,
                          mac});
    }
  }
  if (r.value->in_window >= config_.max_frames) {
    // Denied frames never consume window budget (and never did).
    return PolicyVerdict::deny(kDetailLimited);
  }
  ++r.value->in_window;
  pending_.push_back({now + config_.window_frames, r.value->generation, mac});
  return PolicyVerdict::accept();
}

std::optional<std::uint32_t> RateLimitPolicy::export_residue(
    const MacAddress& mac) const {
  const RateState* st = history_.find(mac);
  if (st == nullptr) return std::nullopt;
  return st->in_window;
}

void RateLimitPolicy::import_residue(const MacAddress& mac,
                                     std::uint32_t in_window) {
  if (in_window == 0) {
    forget(mac);
    return;
  }
  const auto r = history_.get_or_emplace(mac);
  if (r.evicted) ++evictions_;
  // Always a fresh generation — whether inserted or overwriting — so any
  // decrement still scheduled for a prior incarnation cannot debit the
  // imported count.
  r.value->generation = ++next_generation_;
  r.value->in_window = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(in_window, config_.max_frames));
  r.value->restart_pending = true;
}

void RateLimitPolicy::forget(const MacAddress& mac) { history_.erase(mac); }

// ------------------------------------------------------- chain building

std::string_view to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kAcl: return AclPolicy::kName;
    case PolicyKind::kFence: return FencePolicy::kName;
    case PolicyKind::kSpoof: return SpoofPolicy::kName;
    case PolicyKind::kRateLimit: return RateLimitPolicy::kName;
  }
  return "?";
}

std::optional<PolicyKind> policy_kind_from_string(std::string_view name) {
  if (name == AclPolicy::kName) return PolicyKind::kAcl;
  if (name == FencePolicy::kName) return PolicyKind::kFence;
  if (name == SpoofPolicy::kName) return PolicyKind::kSpoof;
  if (name == RateLimitPolicy::kName) return PolicyKind::kRateLimit;
  return std::nullopt;
}

}  // namespace sa
