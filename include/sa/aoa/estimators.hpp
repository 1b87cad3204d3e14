// Angle-of-arrival estimators.
//
//  * MUSIC [Schmidt 1986] — the eigenstructure method the paper builds
//    its signatures on: project steering vectors onto the noise subspace
//    of the correlation matrix; incoming bearings appear as sharp nulls,
//    i.e. pseudospectrum peaks.
//  * Bartlett and Capon/MVDR — classic beamforming baselines.
//  * The two-antenna phase method — the paper's Equation 1, which works
//    only without multipath (§2.1) and serves as the didactic baseline.
//  * MDL/AIC source counting from the eigenvalue profile.
#pragma once

#include <optional>

#include "sa/aoa/pseudospectrum.hpp"
#include "sa/aoa/spectral.hpp"
#include "sa/array/geometry.hpp"
#include "sa/linalg/cmat.hpp"

namespace sa {

/// Uniform bearing grid matched to an array's natural scan range.
std::vector<double> scan_grid(const ArrayGeometry& geom, double step_deg);

/// Minimum-description-length estimate of the number of incoherent
/// sources from ascending eigenvalues over `n_snapshots` samples.
std::size_t estimate_num_sources_mdl(const std::vector<double>& eigenvalues,
                                     std::size_t n_snapshots);
/// Akaike variant (tends to overestimate; exposed for comparison).
std::size_t estimate_num_sources_aic(const std::vector<double>& eigenvalues,
                                     std::size_t n_snapshots);

struct MusicConfig {
  /// Fixed source count; nullopt = estimate per-matrix with MDL.
  std::optional<std::size_t> num_sources;
  double scan_step_deg = 1.0;
  /// Forward-backward averaging before eigendecomposition.
  bool forward_backward = true;
  /// ULA forward spatial smoothing subarray size; 0 disables. Ignored
  /// (with a warning) for non-linear geometries.
  std::size_t smoothing_subarray = 0;
};

struct MusicResult {
  Pseudospectrum spectrum;
  std::vector<double> eigenvalues;  ///< ascending, of the processed matrix
  std::size_t num_sources = 0;      ///< used for the noise-subspace split
  /// Discrete search-free bearing estimates, best first. Filled only by
  /// the root-MUSIC AoaEstimator backend on linear arrays; empty for the
  /// grid-scan backends.
  std::vector<double> source_bearings_deg{};
};

class MusicEstimator {
 public:
  explicit MusicEstimator(MusicConfig config = {});

  /// Compute the MUSIC pseudospectrum of `covariance` for `geom` at
  /// wavelength `lambda_m`. Equivalent to building a one-shot
  /// SpectralContext with this config's conditioning and scanning it.
  MusicResult estimate(const CMat& covariance, const ArrayGeometry& geom,
                       double lambda_m) const;

  /// Scan a shared spectral context: consumes ctx.eig() and the cached
  /// noise projector, so the eigendecomposition is paid for once per
  /// frame even when several backends look at the same context. The
  /// context's conditioning options stand in for this config's
  /// forward_backward/smoothing_subarray settings.
  MusicResult estimate(const SpectralContext& ctx) const;

  /// The conditioning a context must carry for estimate(ctx) to match
  /// estimate(covariance, ...) exactly.
  SpectralOptions spectral_options() const {
    return {config_.forward_backward, config_.smoothing_subarray};
  }

  const MusicConfig& config() const { return config_; }

 private:
  MusicConfig config_;
};

/// Bartlett (conventional beamformer) spectrum: P = a^H R a / (a^H a),
/// one pass over `manifold`'s steering table.
Pseudospectrum bartlett_spectrum(const CMat& covariance,
                                 const SteeringManifold& manifold);
/// Same, over a manifold built here for (geom, lambda_m, step_deg).
Pseudospectrum bartlett_spectrum(const CMat& covariance,
                                 const ArrayGeometry& geom, double lambda_m,
                                 double step_deg = 1.0);

/// Capon / MVDR spectrum: P = 1 / (a^H R^{-1} a), with diagonal loading.
Pseudospectrum capon_spectrum(const CMat& covariance, const ArrayGeometry& geom,
                              double lambda_m, double step_deg = 1.0,
                              double loading = 1e-3);

/// Capon scan over a precomputed loaded inverse (e.g.
/// SpectralContext::inverse), so the matrix inversion is shared with
/// other consumers of the same frame: one pass over `manifold`.
Pseudospectrum capon_spectrum_from_inverse(const CMat& r_inverse,
                                           const SteeringManifold& manifold);
/// Same, over a manifold built here for (geom, lambda_m, step_deg).
Pseudospectrum capon_spectrum_from_inverse(const CMat& r_inverse,
                                           const ArrayGeometry& geom,
                                           double lambda_m,
                                           double step_deg = 1.0);

/// Paper Equation 1: theta = arcsin((phase(x2) - phase(x1)) / pi) for two
/// antennas at half-wavelength spacing; returns degrees from broadside.
/// The phase difference is wrapped into (-pi, pi] as in the paper.
double two_antenna_aoa_deg(cd x1, cd x2);

/// Robust direct-path selection. MUSIC peak heights are not ordered by
/// path power, so under coherent multipath the global maximum can be a
/// reflection — the "false positive direct path AoA" problem of §3.1.
/// This picks, among the candidate MUSIC peaks, the bearing with the
/// largest Bartlett (true power) response. Falls back to the spectrum
/// maximum when `peaks` is empty.
double power_weighted_direct_bearing_deg(const Pseudospectrum& music_spectrum,
                                         const std::vector<SpectrumPeak>& peaks,
                                         const CMat& covariance,
                                         const ArrayGeometry& geom,
                                         double lambda_m);

/// Same rule over a precomputed loaded inverse (1e-3 loading in the
/// plain overload), letting the receive pipeline reuse the
/// SpectralContext's cached inverse instead of re-inverting per packet.
double power_weighted_direct_bearing_with_inverse_deg(
    const Pseudospectrum& music_spectrum, const std::vector<SpectrumPeak>& peaks,
    const CMat& r_inverse, const ArrayGeometry& geom, double lambda_m);

}  // namespace sa
