// Unit tests for the composable SecurityPolicy chain: ordering and
// short-circuiting, per-policy counters, the built-in policies (decode,
// ACL, fence, spoof, rate limit), FrameContext's cached localization,
// string_view detail stability across copies, and the spoof detector's
// LRU tracker bound and idle expiry.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <random>
#include <unordered_map>
#include <vector>

#include "sa/common/angles.hpp"
#include "sa/common/error.hpp"
#include "sa/common/geometry.hpp"
#include "sa/engine/sharded_spoof.hpp"
#include "sa/secure/coordinator.hpp"
#include "sa/secure/policy.hpp"
#include "sa/secure/spoofdetector.hpp"

namespace sa {
namespace {

// ------------------------------------------------------------- fixtures

/// One fabricated AP view: a decoded (or undecodable) frame with chosen
/// world bearings — enough for every policy except the spoof judge.
ApObservation make_obs(Vec2 ap_position, std::vector<double> bearings,
                       std::optional<MacAddress> source,
                       double fine_peak = 1.0) {
  ApObservation o;
  o.ap_position = ap_position;
  o.packet.detection.fine_peak = fine_peak;
  o.packet.bearing_world_deg = std::move(bearings);
  if (source) {
    o.packet.frame = Frame::data(MacAddress::from_index(0xFF), *source,
                                 Bytes{1}, 0);
  }
  return o;
}

/// Two APs that localize the client to `target`.
std::vector<ApObservation> two_ap_view(Vec2 target,
                                       std::optional<MacAddress> source) {
  const Vec2 a{0.0, 0.0}, b{12.0, 0.0};
  return {make_obs(a, {bearing_deg(a, target)}, source, 2.0),
          make_obs(b, {bearing_deg(b, target)}, source, 1.0)};
}

FrameContext context_for(const std::vector<ApObservation>& obs,
                         std::size_t frame_index = 0,
                         std::optional<SpoofObservation> spoof = {}) {
  return FrameContext(obs, Coordinator::best_observation(obs), frame_index,
                      spoof);
}

/// A synthetic signature with one bump at `angle_deg` (for the spoof
/// detector's LRU tests; content is irrelevant there).
AoaSignature signature_at(double angle_deg) {
  std::vector<double> angles, values;
  for (int a = 0; a < 360; a += 2) {
    angles.push_back(a);
    const double d = angular_distance_deg(a, angle_deg);
    values.push_back(1e-3 + std::exp(-d * d / 50.0));
  }
  return AoaSignature::from_spectrum(
      Pseudospectrum(std::move(angles), std::move(values), true));
}

/// Test double: records evaluations, drops on request.
class ProbePolicy final : public SecurityPolicy {
 public:
  ProbePolicy(std::string_view name, bool drop, int* evaluations)
      : name_(name), drop_(drop), evaluations_(evaluations) {}
  std::string_view name() const override { return name_; }
  PolicyVerdict evaluate(FrameContext&) override {
    ++*evaluations_;
    return drop_ ? PolicyVerdict::deny("probe says no")
                 : PolicyVerdict::accept();
  }

 private:
  std::string_view name_;
  bool drop_;
  int* evaluations_;
};

// ------------------------------------------------------------ the chain

TEST(PolicyChain, RunsInDeclaredOrderAndShortCircuits) {
  int first = 0, dropper = 0, after = 0;
  PolicyChain chain;
  chain.add(std::make_unique<ProbePolicy>("first", false, &first))
      .add(std::make_unique<ProbePolicy>("dropper", true, &dropper))
      .add(std::make_unique<ProbePolicy>("after", false, &after));

  const auto obs = two_ap_view({6.0, 4.0}, MacAddress::from_index(1));
  auto ctx = context_for(obs);
  const FrameDecision d = chain.run(ctx);

  EXPECT_FALSE(d.accepted);
  EXPECT_EQ(d.policy, "dropper");
  EXPECT_EQ(d.detail, "probe says no");
  EXPECT_EQ(first, 1);
  EXPECT_EQ(dropper, 1);
  EXPECT_EQ(after, 0);  // short-circuited
  ASSERT_EQ(d.trace.size(), 2u);
  EXPECT_EQ(d.trace[0].policy, "first");
  EXPECT_FALSE(d.trace[0].dropped);
  EXPECT_EQ(d.trace[1].policy, "dropper");
  EXPECT_TRUE(d.trace[1].dropped);
}

TEST(PolicyChain, KeepsPerPolicyCounters) {
  int a = 0, b = 0;
  PolicyChain chain;
  chain.add(std::make_unique<ProbePolicy>("a", false, &a))
      .add(std::make_unique<ProbePolicy>("b", true, &b));
  const auto obs = two_ap_view({6.0, 4.0}, MacAddress::from_index(1));
  for (int i = 0; i < 3; ++i) {
    auto ctx = context_for(obs, i);
    chain.run(ctx);
  }
  EXPECT_EQ(chain.frames(), 3u);
  EXPECT_EQ(chain.accepted(), 0u);
  EXPECT_EQ(chain.drops("b"), 3u);
  EXPECT_EQ(chain.drops("a"), 0u);
  EXPECT_EQ(chain.drops("nonexistent"), 0u);
  EXPECT_TRUE(chain.contains("a"));
  EXPECT_FALSE(chain.contains("c"));
  const auto& stats = chain.policy_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].evaluated, 3u);
  EXPECT_EQ(stats[0].accepted, 3u);
  EXPECT_EQ(stats[1].evaluated, 3u);
  EXPECT_EQ(stats[1].dropped, 3u);
}

TEST(PolicyChain, EmptyChainAcceptsEverything) {
  PolicyChain chain;
  const auto obs = two_ap_view({6.0, 4.0}, std::nullopt);
  auto ctx = context_for(obs);
  const FrameDecision d = chain.run(ctx);
  EXPECT_TRUE(d.accepted);
  EXPECT_EQ(d.detail, "accepted");
  EXPECT_TRUE(d.trace.empty());
}

TEST(FrameContext, LocalizationIsSolvedOnceAndCached) {
  auto obs = two_ap_view({6.0, 4.0}, MacAddress::from_index(1));
  auto ctx = context_for(obs);
  EXPECT_FALSE(ctx.localization_computed());
  const auto& first = ctx.localization();
  ASSERT_TRUE(first.has_value());
  EXPECT_NEAR(first->position.x, 6.0, 1e-6);
  EXPECT_NEAR(first->position.y, 4.0, 1e-6);
  EXPECT_TRUE(ctx.localization_computed());
  // Mutate the underlying bearings: a second call must return the cached
  // solution, proving fence-like policies share one solve.
  obs[0].packet.bearing_world_deg = {123.0};
  obs[1].packet.bearing_world_deg = {321.0};
  const auto& second = ctx.localization();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->position.x, first->position.x);
  EXPECT_EQ(second->position.y, first->position.y);
}

TEST(FrameContext, ExposesDecodedSource) {
  const auto mac = MacAddress::from_index(7);
  const auto obs = two_ap_view({6.0, 4.0}, mac);
  auto ctx = context_for(obs);
  EXPECT_TRUE(ctx.decoded());
  ASSERT_TRUE(ctx.source().has_value());
  EXPECT_EQ(*ctx.source(), mac);

  const auto undecoded = two_ap_view({6.0, 4.0}, std::nullopt);
  auto ctx2 = context_for(undecoded);
  EXPECT_FALSE(ctx2.decoded());
  EXPECT_FALSE(ctx2.source().has_value());
}

// ------------------------------------------------------ built-in policies

TEST(DecodePolicy, DropsUndecodableFrames) {
  DecodePolicy policy;
  const auto good = two_ap_view({6.0, 4.0}, MacAddress::from_index(1));
  auto ctx = context_for(good);
  EXPECT_FALSE(policy.evaluate(ctx).drop);

  const auto bad = two_ap_view({6.0, 4.0}, std::nullopt);
  auto ctx2 = context_for(bad);
  const auto v = policy.evaluate(ctx2);
  EXPECT_TRUE(v.drop);
  EXPECT_EQ(v.detail, DecodePolicy::kDetailUndecodable);
}

TEST(AclPolicy, AllowsListedMacsOnly) {
  AccessControlList acl;
  acl.allow(MacAddress::from_index(1));
  AclPolicy policy(acl);

  const auto listed = two_ap_view({6.0, 4.0}, MacAddress::from_index(1));
  auto ctx = context_for(listed);
  EXPECT_FALSE(policy.evaluate(ctx).drop);

  const auto unlisted = two_ap_view({6.0, 4.0}, MacAddress::from_index(2));
  auto ctx2 = context_for(unlisted);
  const auto v = policy.evaluate(ctx2);
  EXPECT_TRUE(v.drop);
  EXPECT_EQ(v.detail, AclPolicy::kDetailDenied);
}

TEST(FencePolicy, FailClosedDropsUnderheardFrames) {
  FencePolicy closed(VirtualFence(Polygon::rectangle({0, 0}, {12, 10})),
                     /*min_aps=*/2, /*fail_open=*/false);
  const std::vector<ApObservation> one_ap{
      make_obs({0.0, 0.0}, {45.0}, MacAddress::from_index(1))};
  auto ctx = context_for(one_ap);
  const auto v = closed.evaluate(ctx);
  EXPECT_TRUE(v.drop);
  EXPECT_EQ(v.detail, FencePolicy::kDetailTooFewAps);
  // Fail closed never even tries to localize.
  EXPECT_FALSE(ctx.localization_computed());
}

TEST(FencePolicy, FailOpenWavesUnderheardFramesThrough) {
  FencePolicy open(VirtualFence(Polygon::rectangle({0, 0}, {12, 10})),
                   /*min_aps=*/2, /*fail_open=*/true);
  const std::vector<ApObservation> one_ap{
      make_obs({0.0, 0.0}, {45.0}, MacAddress::from_index(1))};
  auto ctx = context_for(one_ap);
  EXPECT_FALSE(open.evaluate(ctx).drop);
  EXPECT_FALSE(ctx.localization_computed());
}

TEST(FencePolicy, DropsClientsLocalizedOutside) {
  FencePolicy policy(VirtualFence(Polygon::rectangle({0, 0}, {12, 10})), 2,
                     false);
  // Inside.
  auto inside = two_ap_view({6.0, 4.0}, MacAddress::from_index(1));
  auto ctx = context_for(inside);
  EXPECT_FALSE(policy.evaluate(ctx).drop);
  EXPECT_TRUE(ctx.localization_computed());
  // Outside (localizes fine, fails the boundary test).
  auto outside = two_ap_view({20.0, 4.0}, MacAddress::from_index(1));
  auto ctx2 = context_for(outside);
  const auto v = policy.evaluate(ctx2);
  EXPECT_TRUE(v.drop);
  EXPECT_EQ(v.detail, "outside fence");
}

TEST(SpoofPolicy, DropsOnSpoofVerdictOnly) {
  SpoofPolicy policy;
  const auto obs = two_ap_view({6.0, 4.0}, MacAddress::from_index(1));
  for (const SpoofVerdict verdict :
       {SpoofVerdict::kTraining, SpoofVerdict::kLegitimate}) {
    auto ctx = context_for(obs, 0, SpoofObservation{verdict, 0.9});
    EXPECT_FALSE(policy.evaluate(ctx).drop);
  }
  auto ctx = context_for(obs, 0, SpoofObservation{SpoofVerdict::kSpoof, 0.1});
  const auto v = policy.evaluate(ctx);
  EXPECT_TRUE(v.drop);
  EXPECT_EQ(v.detail, SpoofPolicy::kDetailSpoof);
  // No judge in play (e.g. chain without spoof): accept.
  auto ctx2 = context_for(obs);
  EXPECT_FALSE(policy.evaluate(ctx2).drop);
}

TEST(RateLimitPolicy, EnforcesPerMacWindow) {
  RateLimitConfig cfg;
  cfg.max_frames = 2;
  cfg.window_frames = 10;
  RateLimitPolicy policy(cfg);
  const auto mac1 = two_ap_view({6.0, 4.0}, MacAddress::from_index(1));
  const auto mac2 = two_ap_view({6.0, 4.0}, MacAddress::from_index(2));

  auto eval = [&](const std::vector<ApObservation>& obs, std::size_t index) {
    auto ctx = context_for(obs, index);
    return policy.evaluate(ctx);
  };
  EXPECT_FALSE(eval(mac1, 0).drop);
  EXPECT_FALSE(eval(mac1, 1).drop);
  const auto v = eval(mac1, 2);  // third frame in the window
  EXPECT_TRUE(v.drop);
  EXPECT_EQ(v.detail, RateLimitPolicy::kDetailLimited);
  // Another MAC is unaffected.
  EXPECT_FALSE(eval(mac2, 3).drop);
  // Once the window slides past the burst, the MAC may send again.
  EXPECT_FALSE(eval(mac1, 25).drop);
}

TEST(RateLimitPolicy, WindowEdgeFramesCountInExactlyOneWindow) {
  // The window covering frame index `now` is [now - W + 1, now] — W
  // indices inclusive. A frame landing exactly on an edge must be
  // counted in exactly one window position at a time: it still counts
  // at distance W-1 (deny) and is pruned at distance W (accept), with
  // no double-count and no off-by-one gap. The same RateLimitPolicy
  // instance runs inside the one Coordinator whether driven serially or
  // by the engine's control thread, and frame indices are the chain's
  // global frame counter in both, so this pins the boundary behavior for
  // both paths.
  RateLimitConfig cfg;
  cfg.max_frames = 1;
  cfg.window_frames = 10;
  RateLimitPolicy policy(cfg);
  const auto obs = two_ap_view({6.0, 4.0}, MacAddress::from_index(1));
  auto eval = [&](std::size_t index) {
    auto ctx = context_for(obs, index);
    return policy.evaluate(ctx).drop;
  };
  EXPECT_FALSE(eval(0));   // accepted: occupies windows ending 0..9
  EXPECT_TRUE(eval(9));    // exactly on the far edge: still in-window
  EXPECT_FALSE(eval(10));  // one past the edge: frame 0 pruned, accepted
  // The frame accepted at 10 now owns windows ending 10..19.
  EXPECT_TRUE(eval(19));
  EXPECT_FALSE(eval(20));

  // The very first window (now < W) is clipped at zero, not wrapped:
  // indices 21..29 are all within frame 20's window.
  RateLimitPolicy early(cfg);
  auto eval_early = [&](std::size_t index) {
    auto ctx = context_for(obs, index);
    return early.evaluate(ctx).drop;
  };
  EXPECT_FALSE(eval_early(0));
  EXPECT_TRUE(eval_early(1));
  EXPECT_TRUE(eval_early(9));
  EXPECT_FALSE(eval_early(10));
}

TEST(RateLimitPolicy, DeniedFrameDoesNotConsumeWindowBudget) {
  // A frame dropped by the limiter is not recorded: it must not extend
  // the denial past the original burst's window.
  RateLimitConfig cfg;
  cfg.max_frames = 1;
  cfg.window_frames = 10;
  RateLimitPolicy policy(cfg);
  const auto obs = two_ap_view({6.0, 4.0}, MacAddress::from_index(1));
  auto eval = [&](std::size_t index) {
    auto ctx = context_for(obs, index);
    return policy.evaluate(ctx).drop;
  };
  EXPECT_FALSE(eval(0));
  EXPECT_TRUE(eval(5));   // denied — consumes nothing
  EXPECT_FALSE(eval(10)); // frame 0 aged out; the denial at 5 left no trace
}

TEST(RateLimitPolicy, FailsClosedWithoutSourceMac) {
  RateLimitPolicy policy(RateLimitConfig{});
  const auto obs = two_ap_view({6.0, 4.0}, std::nullopt);
  auto ctx = context_for(obs);
  const auto v = policy.evaluate(ctx);
  EXPECT_TRUE(v.drop);
  EXPECT_EQ(v.detail, RateLimitPolicy::kDetailNoSource);
}

TEST(RateLimitPolicy, BoundsTrackedMacsWithLruEviction) {
  RateLimitConfig cfg;
  cfg.max_frames = 8;
  cfg.window_frames = 1000;
  cfg.max_tracked_macs = 2;
  RateLimitPolicy policy(cfg);
  auto eval = [&](int mac, std::size_t index) {
    const auto obs = two_ap_view({6.0, 4.0}, MacAddress::from_index(mac));
    auto ctx = context_for(obs, index);
    return policy.evaluate(ctx);
  };
  eval(1, 0);
  eval(2, 1);
  eval(1, 2);     // refresh MAC 1: MAC 2 is now least recent
  eval(3, 3);     // evicts MAC 2
  EXPECT_EQ(policy.tracked_macs(), 2u);
  EXPECT_EQ(policy.evictions(), 1u);
}

TEST(RateLimitPolicy, RejectsAFrameClockThatGoesBackwards) {
  // Every decrement falls due a fixed window after its frame index, so
  // the pending decrements retire in order only while that index never
  // decreases. A rejected call leaves the window untouched.
  RateLimitConfig cfg;
  cfg.max_frames = 2;
  cfg.window_frames = 10;
  RateLimitPolicy policy(cfg);
  const auto obs = two_ap_view({6.0, 4.0}, MacAddress::from_index(1));
  auto eval = [&](std::size_t index) {
    auto ctx = context_for(obs, index);
    return policy.evaluate(ctx).drop;
  };
  EXPECT_FALSE(eval(5));
  EXPECT_FALSE(eval(5));  // the same index again is not a step back
  EXPECT_THROW(eval(4), InvalidArgument);
  policy.advance_to(7);
  EXPECT_THROW(policy.advance_to(6), InvalidArgument);
  EXPECT_TRUE(eval(7));    // both admits at 5 are still in the window
  EXPECT_FALSE(eval(15));  // and both leave it at 15
}

TEST(RateLimitPolicy, RejectsDegenerateConfig) {
  RateLimitConfig zero_frames;
  zero_frames.max_frames = 0;
  EXPECT_THROW(RateLimitPolicy{zero_frames}, InvalidArgument);
  RateLimitConfig zero_window;
  zero_window.window_frames = 0;
  EXPECT_THROW(RateLimitPolicy{zero_window}, InvalidArgument);
}

// --------------------------------------------- detail string_view safety

TEST(FrameDecision, DetailsSurviveChainDestructionAndCopies) {
  // Decisions cross thread-pool queues and outlive the chain that made
  // them; every detail must be a string constant, not a dangling view.
  std::vector<FrameDecision> kept;
  {
    PolicyChain chain;
    chain.add(std::make_unique<DecodePolicy>());
    chain.add(std::make_unique<FencePolicy>(
        VirtualFence(Polygon::rectangle({0, 0}, {12, 10})), 2, false));
    const auto decodable = two_ap_view({6.0, 4.0}, MacAddress::from_index(1));
    const auto undecodable = two_ap_view({6.0, 4.0}, std::nullopt);
    auto c1 = context_for(decodable, 0);
    auto c2 = context_for(undecodable, 1);
    kept.push_back(chain.run(c1));
    kept.push_back(chain.run(c2));
    kept.push_back(kept[1]);  // and a copy of a copy
  }  // chain and policies destroyed here
  EXPECT_EQ(kept[0].detail, "accepted");
  ASSERT_EQ(kept[0].trace.size(), 2u);
  EXPECT_EQ(kept[0].trace[1].detail, "inside fence");
  EXPECT_EQ(kept[1].detail, DecodePolicy::kDetailUndecodable);
  EXPECT_EQ(kept[2].detail, DecodePolicy::kDetailUndecodable);
  EXPECT_EQ(kept[2].policy, DecodePolicy::kName);
}

// ------------------------------------------------- coordinator + chains

/// The README's worked example: ban one MAC outright.
class BanPolicy final : public SecurityPolicy {
 public:
  explicit BanPolicy(MacAddress banned) : banned_(banned) {}
  std::string_view name() const override { return "ban"; }
  PolicyVerdict evaluate(FrameContext& ctx) override {
    if (ctx.source() && *ctx.source() == banned_) {
      return PolicyVerdict::deny("source MAC is banned");
    }
    return PolicyVerdict::accept();
  }

 private:
  MacAddress banned_;
};

TEST(Coordinator, RunsCustomPolicyChain) {
  PolicyChain chain;
  chain.add(std::make_unique<DecodePolicy>());
  chain.add(std::make_unique<BanPolicy>(MacAddress::from_index(13)));
  Coordinator coord(CoordinatorConfig{}, std::move(chain));
  EXPECT_FALSE(coord.wants_spoof());

  const auto ok = coord.process(two_ap_view({6, 4}, MacAddress::from_index(1)));
  EXPECT_TRUE(ok.accepted);
  const auto banned =
      coord.process(two_ap_view({6, 4}, MacAddress::from_index(13)));
  EXPECT_FALSE(banned.accepted);
  EXPECT_EQ(banned.policy, "ban");
  const auto& rows = coord.chain().policy_stats();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].evaluated, 2u);
  EXPECT_EQ(rows[1].name, "ban");
  EXPECT_EQ(rows[1].dropped, 1u);
}

TEST(Coordinator, AclChainRequiresAclConfig) {
  CoordinatorConfig cfg;
  cfg.policies = {PolicyKind::kAcl};
  EXPECT_THROW(Coordinator{cfg}, InvalidArgument);
}

TEST(Coordinator, PolicyKindNamesRoundTrip) {
  for (const PolicyKind kind : {PolicyKind::kAcl, PolicyKind::kFence,
                                PolicyKind::kSpoof, PolicyKind::kRateLimit}) {
    const auto back = policy_kind_from_string(to_string(kind));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(policy_kind_from_string("decode").has_value());  // implicit
  EXPECT_FALSE(policy_kind_from_string("bogus").has_value());
}

// ------------------------------------------------- spoof detector bound

TEST(SpoofDetector, LruEvictionBoundsTrackedMacs) {
  SpoofDetector det(TrackerConfig{}, /*max_tracked_macs=*/2);
  const auto m1 = MacAddress::from_index(1);
  const auto m2 = MacAddress::from_index(2);
  const auto m3 = MacAddress::from_index(3);
  det.observe(m1, signature_at(40.0));
  det.observe(m2, signature_at(80.0));
  det.observe(m1, signature_at(40.0));  // refresh: m2 becomes least recent
  det.observe(m3, signature_at(120.0));  // evicts m2
  EXPECT_EQ(det.stats().tracked_macs, 2u);
  EXPECT_EQ(det.stats().evictions, 1u);
  EXPECT_NE(det.tracker(m1), nullptr);
  EXPECT_EQ(det.tracker(m2), nullptr);
  EXPECT_NE(det.tracker(m3), nullptr);
  // The evicted MAC retrains from scratch when it returns (evicting the
  // now-least-recent m1).
  det.observe(m2, signature_at(80.0));
  EXPECT_EQ(det.stats().evictions, 2u);
  ASSERT_NE(det.tracker(m2), nullptr);
  EXPECT_EQ(det.tracker(m2)->observations(), 1u);
  EXPECT_EQ(det.tracker(m1), nullptr);
}

TEST(SpoofDetector, ForgetKeepsLruConsistent) {
  SpoofDetector det(TrackerConfig{}, /*max_tracked_macs=*/2);
  const auto m1 = MacAddress::from_index(1);
  const auto m2 = MacAddress::from_index(2);
  det.observe(m1, signature_at(40.0));
  det.observe(m2, signature_at(80.0));
  det.forget(m1);
  EXPECT_EQ(det.stats().tracked_macs, 1u);
  det.forget(m1);  // idempotent
  // Room for a new MAC without eviction.
  det.observe(MacAddress::from_index(3), signature_at(120.0));
  EXPECT_EQ(det.stats().tracked_macs, 2u);
  EXPECT_EQ(det.stats().evictions, 0u);
}

TEST(SpoofDetector, UnboundedByDefault) {
  SpoofDetector det;
  for (int i = 0; i < 64; ++i) {
    det.observe(MacAddress::from_index(i), signature_at(i * 5.0));
  }
  EXPECT_EQ(det.stats().tracked_macs, 64u);
  EXPECT_EQ(det.stats().evictions, 0u);
}

/// Brute-force model of SpoofDetector's per-MAC bookkeeping: a list in
/// recency order plus an index, the LRU bound, and idle expiry checked
/// against every tracked MAC at each observation tick (no reliance on
/// the list being in last-seen order).
class SpoofBookkeepingModel {
 public:
  SpoofBookkeepingModel(std::size_t bound, std::size_t idle)
      : bound_(bound), idle_(idle) {}

  void observe(const MacAddress& mac) {
    ++tick_;
    if (idle_ > 0) {
      for (auto it = lru_.begin(); it != lru_.end();) {
        if (it->last_seen + idle_ <= tick_) {
          index_.erase(it->mac);
          it = lru_.erase(it);
          ++expirations_;
        } else {
          ++it;
        }
      }
    }
    ++admit(mac).observations;
  }
  void import(const MacAddress& mac, std::size_t observations) {
    admit(mac).observations = observations;
  }
  void forget(const MacAddress& mac) {
    const auto it = index_.find(mac);
    if (it == index_.end()) return;
    lru_.erase(it->second);
    index_.erase(it);
  }
  /// Observation count of a tracked MAC; nullopt when untracked.
  std::optional<std::size_t> observations(const MacAddress& mac) const {
    const auto it = index_.find(mac);
    if (it == index_.end()) return std::nullopt;
    return it->second->observations;
  }

  std::size_t size() const { return lru_.size(); }
  std::size_t evictions() const { return evictions_; }
  std::size_t expirations() const { return expirations_; }

 private:
  struct Entry {
    MacAddress mac;
    std::uint64_t last_seen = 0;
    std::size_t observations = 0;
  };

  /// Make `mac` most recently used at the current tick.
  Entry& admit(const MacAddress& mac) {
    const auto it = index_.find(mac);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
    } else {
      if (bound_ > 0 && lru_.size() >= bound_) {
        index_.erase(lru_.back().mac);
        lru_.pop_back();
        ++evictions_;
      }
      lru_.push_front(Entry{mac, 0, 0});
      index_[mac] = lru_.begin();
    }
    lru_.front().last_seen = tick_;
    return lru_.front();
  }

  std::size_t bound_;
  std::size_t idle_;
  std::uint64_t tick_ = 0;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<MacAddress, std::list<Entry>::iterator> index_;
  std::size_t evictions_ = 0;
  std::size_t expirations_ = 0;
};

TEST(SpoofDetector, IdleExpiryMatchesReferenceModelUnderChurn) {
  constexpr int kMacs = 16;
  const std::vector<AoaSignature> sigs = {signature_at(30.0),
                                          signature_at(150.0),
                                          signature_at(270.0)};
  std::size_t total_evictions = 0, total_expirations = 0;
  for (const std::size_t bound : {std::size_t{0}, std::size_t{6}}) {
    for (const std::size_t idle : {1, 5, 23}) {
      SCOPED_TRACE(testing::Message() << "bound " << bound << " idle " << idle);
      SpoofDetector det(TrackerConfig{}, bound, idle);
      SpoofBookkeepingModel model(bound, idle);
      std::mt19937_64 rng(bound * 100 + idle);
      const auto mac_at = [&] {
        return MacAddress::from_index(static_cast<std::uint32_t>(rng() % kMacs));
      };
      for (int step = 0; step < 6000; ++step) {
        const MacAddress mac = mac_at();
        const std::uint64_t op = rng() % 6;
        if (op < 4) {
          det.observe(mac, sigs[rng() % sigs.size()]);
          model.observe(mac);
        } else if (op == 4) {  // hand `from`'s tracker over to `mac`
          const MacAddress from = mac_at();
          const auto snap = det.export_tracker(from);
          ASSERT_EQ(snap.has_value(), model.observations(from).has_value())
              << "step " << step;
          if (snap) {
            det.import_tracker(mac, *snap);
            model.import(mac, *model.observations(from));
          }
        } else {
          det.forget(mac);
          model.forget(mac);
        }
        const SpoofDetectorStats st = det.stats();
        ASSERT_EQ(st.tracked_macs, model.size()) << "step " << step;
        ASSERT_EQ(st.evictions, model.evictions()) << "step " << step;
        ASSERT_EQ(st.expirations, model.expirations()) << "step " << step;
        for (int m = 0; m < kMacs; ++m) {
          const MacAddress probe = MacAddress::from_index(m);
          const SignatureTracker* t = det.tracker(probe);
          const auto want = model.observations(probe);
          ASSERT_EQ(t != nullptr, want.has_value())
              << "step " << step << " mac " << m;
          if (t != nullptr) {
            ASSERT_EQ(t->observations(), *want)
                << "step " << step << " mac " << m;
          }
        }
      }
      total_evictions += model.evictions();
      total_expirations += model.expirations();
    }
  }
  // Both branches must actually run, or the comparison proves nothing.
  EXPECT_GT(total_evictions, 0u);
  EXPECT_GT(total_expirations, 0u);
}

TEST(ShardedSpoofDetector, SplitsTrackerBudgetAcrossShards) {
  ShardedSpoofDetector det(TrackerConfig{}, /*num_shards=*/4,
                           /*max_tracked_macs=*/16);
  for (int i = 0; i < 64; ++i) {
    det.observe(MacAddress::from_index(i), signature_at(i * 5.0));
  }
  EXPECT_LE(det.stats().tracked_macs, 16u);
  EXPECT_GT(det.stats().evictions, 0u);
  EXPECT_EQ(det.stats().packets, 64u);
}

TEST(ShardedSpoofDetector, RejectsBoundSmallerThanShardCount) {
  const auto make = [] {
    ShardedSpoofDetector det(TrackerConfig{}, /*num_shards=*/8,
                             /*max_tracked_macs=*/4);
  };
  EXPECT_THROW(make(), InvalidArgument);
}

}  // namespace
}  // namespace sa
