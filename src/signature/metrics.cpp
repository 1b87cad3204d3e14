#include "sa/signature/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "sa/common/angles.hpp"
#include "sa/common/error.hpp"

namespace sa {

namespace {

void check_compatible(const AoaSignature& a, const AoaSignature& b) {
  SA_EXPECTS(a.valid() && b.valid());
  SA_EXPECTS(a.spectrum().size() == b.spectrum().size());
  SA_EXPECTS(a.spectrum().wraps() == b.spectrum().wraps());
}

}  // namespace

double cosine_similarity(const AoaSignature& a, const AoaSignature& b) {
  check_compatible(a, b);
  const auto& va = a.spectrum().values();
  const auto& vb = b.spectrum().values();
  double num = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < va.size(); ++i) {
    num += va[i] * vb[i];
    na += va[i] * va[i];
    nb += vb[i] * vb[i];
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return num / std::sqrt(na * nb);
}

double peak_set_distance(const AoaSignature& a, const AoaSignature& b,
                         double match_tolerance_deg) {
  SA_EXPECTS(a.valid() && b.valid());
  SA_EXPECTS(match_tolerance_deg > 0.0);
  const auto& pa = a.peaks();
  const auto& pb = b.peaks();
  if (pa.empty() && pb.empty()) return 0.0;

  const bool wraps = a.spectrum().wraps();
  auto dist = [&](double x, double y) {
    return wraps ? angular_distance_deg(x, y) : std::abs(x - y);
  };

  // Greedy matching, strongest-first (peaks are already sorted by value).
  std::vector<bool> used(pb.size(), false);
  double cost = 0.0;
  double weight = 0.0;
  for (const auto& p : pa) {
    double best = match_tolerance_deg;
    std::size_t best_j = pb.size();
    for (std::size_t j = 0; j < pb.size(); ++j) {
      if (used[j]) continue;
      const double d = dist(p.angle_deg, pb[j].angle_deg);
      if (d < best) {
        best = d;
        best_j = j;
      }
    }
    const double w = p.value;
    if (best_j < pb.size()) {
      used[best_j] = true;
      cost += w * (best / match_tolerance_deg);
    } else {
      cost += w;  // unmatched
    }
    weight += w;
  }
  // Unmatched peaks of b also count, with their own weights.
  for (std::size_t j = 0; j < pb.size(); ++j) {
    if (!used[j]) {
      cost += pb[j].value;
      weight += pb[j].value;
    }
  }
  if (weight <= 0.0) return 0.0;
  return std::clamp(cost / weight, 0.0, 1.0);
}

double match_score(const AoaSignature& a, const AoaSignature& b,
                   const MatchWeights& weights) {
  const double c = cosine_similarity(a, b);
  const double p = 1.0 - peak_set_distance(a, b);
  const double denom = weights.w_cosine + weights.w_peaks;
  SA_EXPECTS(denom > 0.0);
  return (weights.w_cosine * c + weights.w_peaks * p) / denom;
}

double match_score(const SubbandSignature& a, const SubbandSignature& b,
                   const MatchWeights& weights) {
  SA_EXPECTS(a.valid() && b.valid());
  SA_EXPECTS(a.num_bands() == b.num_bands());
  // With one band the mean is the bare value, keeping K=1 numerically
  // identical to the narrowband score.
  if (a.num_bands() == 1) return match_score(a.band(0), b.band(0), weights);
  double acc = 0.0;
  for (std::size_t i = 0; i < a.num_bands(); ++i) {
    acc += match_score(a.band(i), b.band(i), weights);
  }
  return acc / static_cast<double>(a.num_bands());
}

}  // namespace sa
