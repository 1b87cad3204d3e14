// Composable frame-decision policies. SecureAngle's AoA signatures are a
// *platform* for link-layer defenses, not just the two the paper
// evaluates: the ACL baseline (§1), virtual fences (§2.3.1), spoof
// detection (§2.3.2), and whatever a deployment needs next. A
// SecurityPolicy is one such defense; a PolicyChain runs them in
// declared order over one fused frame, short-circuiting on the first
// drop and keeping per-policy accept/drop counters.
//
// The chain is deterministic by construction: policies run sequentially
// over a frame stream in global sequence order (the engine's control
// thread runs its one chain), so any stateful policy (spoof tracking,
// rate limiting) sees frames in the same global order at any engine
// thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "sa/common/compact/flat_lru_map.hpp"
#include "sa/mac/acl.hpp"
#include "sa/secure/accesspoint.hpp"
#include "sa/secure/spoofdetector.hpp"
#include "sa/secure/virtualfence.hpp"

namespace sa {

/// One AP's view of a frame.
struct ApObservation {
  Vec2 ap_position;
  ReceivedPacket packet;
};

/// What one policy says about one frame.
struct PolicyVerdict {
  bool drop = false;
  std::string_view detail = "";

  static PolicyVerdict accept(std::string_view detail = "") {
    return {false, detail};
  }
  static PolicyVerdict deny(std::string_view detail) { return {true, detail}; }
};

/// One policy's entry in a frame's evaluation trace.
struct PolicyTrace {
  std::string_view policy;
  bool dropped = false;
  std::string_view detail = "";
};

/// The chain's decision for one fused frame. `detail` and the trace
/// entries are std::string_view over string constants with static
/// storage duration, so decisions stay valid wherever they are copied.
struct FrameDecision {
  bool accepted = true;
  /// Name of the policy that dropped the frame; empty when accepted.
  std::string_view policy = "";
  std::string_view detail = "";
  std::optional<MacAddress> source;
  std::optional<LocalizationResult> location;
  SpoofVerdict spoof = SpoofVerdict::kTraining;
  double spoof_score = 0.0;
  /// Per-policy results in evaluation order (ends at the first drop).
  std::vector<PolicyTrace> trace;
};

/// Everything the policies may consult about one fused frame: the per-AP
/// observations, the best (strongest-detection) observation, the decoded
/// source MAC, the pre-judged spoof observation, and a
/// lazily-computed-and-cached localization so fence-like policies don't
/// re-solve the bearing intersection.
class FrameContext {
 public:
  FrameContext(const std::vector<ApObservation>& observations,
               const ApObservation& best, std::size_t frame_index,
               std::optional<SpoofObservation> spoof);

  const std::vector<ApObservation>& observations() const {
    return *observations_;
  }
  const ApObservation& best() const { return *best_; }
  /// Global frame index (0-based, monotonically increasing per chain).
  std::size_t frame_index() const { return frame_index_; }
  bool decoded() const { return source_.has_value(); }
  /// Source MAC of the best observation's decoded frame, if any.
  const std::optional<MacAddress>& source() const { return source_; }
  /// The spoof judge's observation; nullopt when the frame was
  /// undecodable or no spoof policy is in play.
  const std::optional<SpoofObservation>& spoof() const { return spoof_; }

  /// Localization from every AP's bearing candidates, solved at most
  /// once per frame and cached (see sa::localize for the outlier
  /// rejection semantics).
  const std::optional<LocalizationResult>& localization();
  bool localization_computed() const { return localization_computed_; }

 private:
  const std::vector<ApObservation>* observations_;
  const ApObservation* best_;
  std::size_t frame_index_;
  std::optional<MacAddress> source_;
  std::optional<SpoofObservation> spoof_;
  bool localization_computed_ = false;
  std::optional<LocalizationResult> location_;
};

/// One composable link-layer defense. name() and every verdict detail
/// must view storage that outlives the decisions referencing them — in
/// practice, string literals (see the kName/kDetail constants on the
/// built-in policies).
class SecurityPolicy {
 public:
  virtual ~SecurityPolicy() = default;
  virtual std::string_view name() const = 0;
  virtual PolicyVerdict evaluate(FrameContext& ctx) = 0;
};

/// Runs policies in declared order; the first drop wins.
class PolicyChain {
 public:
  PolicyChain() = default;
  PolicyChain(PolicyChain&&) = default;
  PolicyChain& operator=(PolicyChain&&) = default;

  PolicyChain& add(std::unique_ptr<SecurityPolicy> policy);

  /// Evaluate one frame. Fills the decision's source/spoof/location from
  /// the context and records the per-policy trace.
  FrameDecision run(FrameContext& ctx);

  struct PolicyStats {
    std::string_view name;
    std::size_t evaluated = 0;
    std::size_t accepted = 0;
    std::size_t dropped = 0;
  };
  const std::vector<PolicyStats>& policy_stats() const { return stats_; }
  std::size_t frames() const { return frames_; }
  std::size_t accepted() const { return accepted_; }
  /// Drops attributed to the named policy (0 if absent).
  std::size_t drops(std::string_view policy_name) const;

  std::size_t size() const { return policies_.size(); }
  const SecurityPolicy& policy(std::size_t i) const { return *policies_[i]; }
  /// Mutable policy access, for quiescent maintenance only (fleet
  /// handoff import/export between frames) — never while run() may be
  /// executing on another thread.
  SecurityPolicy& policy_mutable(std::size_t i) { return *policies_[i]; }
  bool contains(std::string_view policy_name) const;

 private:
  std::vector<std::unique_ptr<SecurityPolicy>> policies_;
  std::vector<PolicyStats> stats_;
  std::size_t frames_ = 0;
  std::size_t accepted_ = 0;
};

// ------------------------------------------------------------- policies

/// Drops frames whose strongest AP's copy (the context's best
/// observation, the only one whose DATA is decoded) failed its PHY
/// decode or its FCS check. Always the first link in any chain the
/// Coordinator builds: later policies may assume a decoded source MAC.
class DecodePolicy final : public SecurityPolicy {
 public:
  static constexpr std::string_view kName = "decode";
  static constexpr std::string_view kDetailUndecodable =
      "the strongest AP's frame failed its PHY decode or FCS check";

  std::string_view name() const override { return kName; }
  PolicyVerdict evaluate(FrameContext& ctx) override;
};

/// The paper's §1 baseline, finally composable into the real pipeline:
/// drop frames whose source MAC is not on the allow list. Weak alone
/// (MACs are trivially forged) — the point of the paper. Note the spoof
/// judge observes every decodable frame *before* the chain runs, so an
/// ACL in front does not stop unknown MACs from allocating trackers;
/// bound that with CoordinatorConfig::max_tracked_macs.
class AclPolicy final : public SecurityPolicy {
 public:
  static constexpr std::string_view kName = "acl";
  static constexpr std::string_view kDetailDenied = "source MAC not in ACL";

  explicit AclPolicy(AccessControlList acl) : acl_(std::move(acl)) {}

  std::string_view name() const override { return kName; }
  PolicyVerdict evaluate(FrameContext& ctx) override;

  const AccessControlList& acl() const { return acl_; }
  /// Quiescent maintenance access (fleet handoff installs a roaming
  /// client's allow-entry between frames).
  AccessControlList& mutable_acl() { return acl_; }

 private:
  AccessControlList acl_;
};

/// Virtual fence (§2.3.1): localize the client from the APs' bearings
/// and drop frames from outside the boundary.
class FencePolicy final : public SecurityPolicy {
 public:
  static constexpr std::string_view kName = "fence";
  static constexpr std::string_view kDetailTooFewAps =
      "too few APs heard the frame to localize it";

  FencePolicy(VirtualFence fence, std::size_t min_aps, bool fail_open);

  std::string_view name() const override { return kName; }
  PolicyVerdict evaluate(FrameContext& ctx) override;

  const VirtualFence& fence() const { return fence_; }

 private:
  VirtualFence fence_;
  std::size_t min_aps_;
  bool fail_open_;
};

/// Spoof detection (§2.3.2): drop frames whose signature diverges from
/// the reference trained for their MAC. The judgment itself is made by
/// the caller's detector (the Coordinator's serial SpoofDetector, or
/// the engine's ShardedSpoofDetector) *before* the chain runs, for
/// every decodable frame — training advances even when another policy
/// drops the frame, exactly as the pre-chain pipeline behaved.
class SpoofPolicy final : public SecurityPolicy {
 public:
  static constexpr std::string_view kName = "spoof";
  static constexpr std::string_view kDetailSpoof =
      "signature diverges from the trained reference";

  std::string_view name() const override { return kName; }
  PolicyVerdict evaluate(FrameContext& ctx) override;
};

struct RateLimitConfig {
  /// Frames a single MAC may send within any `window_frames`-long span
  /// of the global frame stream; the next one is dropped.
  std::size_t max_frames = 32;
  /// Window length, in global frame indices.
  std::size_t window_frames = 128;
  /// Bound on the per-MAC history map (LRU eviction); 0 = unbounded.
  std::size_t max_tracked_macs = 4096;
};

/// Per-MAC frame-rate limiter — a flooding-attacker defense the paper
/// doesn't have but the policy chain makes trivial. Fail-closed: a
/// frame with no decodable source MAC is dropped rather than waved
/// through (DecodePolicy normally drops those first).
///
/// State is a per-MAC in-window counter plus one decrement per admitted
/// frame, due exactly one window after the admit — provably the same
/// decisions as the historical sliding-window log (an admit at frame a
/// leaves the window at now = a + window_frames, which is precisely
/// when its decrement is retired), without a per-MAC admit log. Every
/// decrement falls due a fixed window after a frame index that never
/// decreases, so due times arrive in order and the pending decrements
/// are a FIFO retired from its front. A MAC whose count reaches zero is
/// erased outright, so idle clients cost nothing: live entries are
/// bounded by the frames in flight in one window, not by the client
/// population. The clock is the frame indices the policy evaluates —
/// under the engine, the global sequence numbers of the session's one
/// chain, which the control thread runs in sequence order at any worker
/// count — and it must never go backwards. The LRU bound is therefore
/// global too: when it binds, decisions still do not depend on the
/// worker count.
///
/// tracked_macs() therefore counts MACs with in-window frames (the
/// node-based implementation also counted idle MACs until LRU eviction
/// pushed them out). When `max_tracked_macs` actually binds, eviction
/// choices — hence decisions for evicted-and-returning MACs — can
/// differ from the old implementation; in-capacity decisions are
/// byte-identical.
class RateLimitPolicy final : public SecurityPolicy {
 public:
  static constexpr std::string_view kName = "rate";
  static constexpr std::string_view kDetailNoSource =
      "no source MAC to rate-limit (fail closed)";
  static constexpr std::string_view kDetailLimited =
      "per-MAC frame rate limit exceeded";

  explicit RateLimitPolicy(RateLimitConfig config);

  std::string_view name() const override { return kName; }
  PolicyVerdict evaluate(FrameContext& ctx) override;

  std::size_t tracked_macs() const { return history_.size(); }
  std::size_t evictions() const { return evictions_; }
  const RateLimitConfig& config() const { return config_; }

  /// Retire every decrement due at or before `frame` without evaluating
  /// a frame. The fleet-handoff export hook: at quiescence the caller
  /// advances the window to the global frame clock first, so the
  /// exported residue is a pure function of the frame stream (how far
  /// the last evaluated frame had retired is otherwise
  /// workload-dependent). Throws InvalidArgument if `frame` is below a
  /// frame index already seen.
  void advance_to(std::size_t frame);

  /// A MAC's current in-window admit count; nullopt when idle (a MAC
  /// with zero residue is erased outright, see above). Read-only: no
  /// LRU touch.
  std::optional<std::uint32_t> export_residue(const MacAddress& mac) const;

  /// Install handed-off residue under the documented *rate-window
  /// restart rule*: the carried admits are treated as if they all
  /// happened at the client's first post-handoff frame here — their
  /// decrements fall due one full window after that frame (the source
  /// site's due times are in its own frame clock and cannot be carried
  /// across). The count is clamped to max_frames
  /// (no-op for honest handoffs; a forged larger residue must not deny
  /// forever). Zero residue erases the entry. Bumps the entry
  /// generation, so decrements scheduled for any prior incarnation of
  /// this MAC are dead on arrival.
  void import_residue(const MacAddress& mac, std::uint32_t in_window);

  /// Drop a MAC's residue outright (handoff source side).
  void forget(const MacAddress& mac);

 private:
  struct RateState {
    std::uint32_t in_window = 0;  ///< admits in the trailing window
    std::uint32_t generation = 0;
    /// Residue was imported via handoff and its decrements are not yet
    /// scheduled; the first local evaluate() schedules them (the
    /// rate-window restart rule).
    bool restart_pending = false;
  };
  /// Decrements carry the entry generation so a stale one from before
  /// an LRU eviction cannot debit the MAC's next incarnation.
  struct Decrement {
    std::uint64_t due = 0;
    std::uint32_t generation = 0;
    MacAddress mac;
  };

  /// Advance the frame clock to `now` (never backwards) and retire
  /// every decrement due by then.
  void retire_until(std::uint64_t now);

  RateLimitConfig config_;
  FlatLruMap<MacAddress, RateState> history_;
  std::deque<Decrement> pending_;  ///< in due order
  std::uint64_t clock_ = 0;        ///< the latest frame index seen
  std::uint32_t next_generation_ = 0;
  std::size_t evictions_ = 0;
};

// ------------------------------------------------------- chain building

/// The built-in policies a config can name. DecodePolicy is implicit:
/// every Coordinator-built chain starts with it.
enum class PolicyKind { kAcl, kFence, kSpoof, kRateLimit };

std::string_view to_string(PolicyKind kind);
std::optional<PolicyKind> policy_kind_from_string(std::string_view name);

/// The default chain: spoof before fence, mirroring the pre-chain
/// coordinator's decision order so the default pipeline's output stays
/// byte-identical to the original.
inline std::vector<PolicyKind> default_policy_chain() {
  return {PolicyKind::kSpoof, PolicyKind::kFence};
}

}  // namespace sa
