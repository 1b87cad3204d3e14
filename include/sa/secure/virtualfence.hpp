// Virtual fences (paper §2.3.1): with direct-path AoA from two or more
// APs, triangulate the client and drop frames from clients outside a
// physical boundary ("only clients within the building be allowed
// wireless access").
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "sa/common/geometry.hpp"

namespace sa {

/// One AP's contribution: its position and the candidate world azimuths
/// of the client's direct path (two candidates for linear arrays).
struct FenceObservation {
  Vec2 ap_position;
  std::vector<double> world_bearings_deg;
};

struct LocalizationResult {
  Vec2 position;
  /// RMS angular residual (deg) between the chosen bearings and the
  /// bearings implied by the solved position — a consistency measure.
  double residual_deg = 0.0;
  /// How many APs' bearings the final solution used (outliers dropped).
  std::size_t aps_used = 0;
};

/// Least-squares intersection of direct-path bearings from >= 2 APs.
/// Linear-array front/back ambiguities are resolved by trying every
/// candidate combination and keeping the most consistent solution.
/// When the full set is inconsistent (residual > `outlier_residual_deg`),
/// the AP whose removal most improves the fit is dropped and the solve
/// repeats — the paper's observation that "false positive AoAs obtained
/// from different APs may not intersect with each other" (Sec. 3.1).
std::optional<LocalizationResult> localize(
    const std::vector<FenceObservation>& observations,
    double outlier_residual_deg = 5.0);

struct FenceDecision {
  bool allowed = false;
  std::optional<LocalizationResult> location;
  /// Always a string constant with static storage duration — safe to
  /// copy the decision around.
  std::string_view reason = "";
};

class VirtualFence {
 public:
  explicit VirtualFence(Polygon boundary, double max_residual_deg = 20.0);

  /// Localize the client and test it against the boundary. Frames are
  /// dropped (not allowed) when localization fails, is inconsistent, or
  /// lands outside the fence.
  FenceDecision check(const std::vector<FenceObservation>& observations) const;

  /// Boundary test over an already-solved localization (callers that
  /// cache the solve, e.g. FrameContext, use this to avoid re-solving).
  /// check(obs) == check_localized(localize(obs)) for >= 2 observations.
  FenceDecision check_localized(
      std::optional<LocalizationResult> location) const;

  const Polygon& boundary() const { return boundary_; }

 private:
  Polygon boundary_;
  double max_residual_deg_;
};

}  // namespace sa
