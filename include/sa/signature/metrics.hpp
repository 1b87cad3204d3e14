// Signature comparison metrics. The spoof-detection hypothesis (paper
// §2.3.2) is that a legitimate client's signature and an attacker's
// differ enough to discriminate; these metrics quantify "differ".
#pragma once

#include "sa/signature/signature.hpp"
#include "sa/signature/subband.hpp"

namespace sa {

/// Cosine similarity of the two (normalized, linear-power) spectra on a
/// shared grid; in [0, 1], 1 = identical shape.
double cosine_similarity(const AoaSignature& a, const AoaSignature& b);

/// Peak-set distance: greedily match peaks within `match_tolerance_deg`;
/// matched pairs contribute their angular distance (weighted by linear
/// peak power), unmatched peaks contribute the full tolerance. Normalized
/// to [0, 1] where 0 = identical peak sets.
double peak_set_distance(const AoaSignature& a, const AoaSignature& b,
                         double match_tolerance_deg = 10.0);

struct MatchWeights {
  double w_cosine = 0.6;
  double w_peaks = 0.4;
};

/// Combined match score in [0, 1]; 1 = same client, near 0 = different.
/// score = w_cosine * cosine + w_peaks * (1 - peak_set_distance).
double match_score(const AoaSignature& a, const AoaSignature& b,
                   const MatchWeights& weights = {});

/// Subband-wise match score, the one the tracker scores with: both
/// signatures must carry the same band count, and the score is the mean
/// of the single-band match_score over corresponding bands, so with one
/// band it agrees exactly with the overload above.
double match_score(const SubbandSignature& a, const SubbandSignature& b,
                   const MatchWeights& weights = {});

}  // namespace sa
