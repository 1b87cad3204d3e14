// Wideband (per-subband) AoA signatures. OFDM gives every packet
// frequency diversity that a single narrowband covariance throws away:
// splitting the capture into K subbands yields K pseudospectra whose
// multipath structure shifts with wavelength, so an attacker must forge
// the signature at every subband at once. A SubbandSignature holds the
// per-band signatures (in ascending subband-frequency order) and is the
// unit that match_score, trackers and the spoof detectors compare
// subband-wise; with one band it degenerates to exactly the paper's
// single-band signature.
#pragma once

#include <vector>

#include "sa/signature/signature.hpp"

namespace sa {

class SubbandSignature {
 public:
  SubbandSignature() = default;
  /// Bands in ascending subband-frequency order; all must be valid and
  /// share one scan grid (same size and wrap behavior).
  explicit SubbandSignature(std::vector<AoaSignature> bands);
  /// The single-band (K = 1) degenerate case.
  static SubbandSignature single(AoaSignature band);

  bool valid() const { return !bands_.empty(); }
  std::size_t num_bands() const { return bands_.size(); }
  const std::vector<AoaSignature>& bands() const { return bands_; }
  const AoaSignature& band(std::size_t i) const;

  /// Collapse to one full-band signature: the elementwise mean of the
  /// normalized per-band spectra (bands share one grid). With one band
  /// this returns that band unchanged.
  AoaSignature fuse(const SignatureConfig& config = {}) const;

  /// Weighted variant: the elementwise `weights`-weighted mean of the
  /// normalized per-band spectra (the SNR-aware fusion feeds per-band
  /// noise-eigenvalue weights here). `weights` must have one
  /// non-negative entry per band with a positive sum. With one band this
  /// returns that band unchanged regardless of its weight.
  AoaSignature fuse(const SignatureConfig& config,
                    const std::vector<double>& weights) const;

 private:
  std::vector<AoaSignature> bands_;
};

}  // namespace sa
