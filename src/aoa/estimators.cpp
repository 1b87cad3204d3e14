#include "sa/aoa/estimators.hpp"

#include <algorithm>
#include <cmath>

#include "sa/aoa/covariance.hpp"
#include "sa/common/angles.hpp"
#include "sa/common/error.hpp"
#include "sa/linalg/eig.hpp"
#include "sa/linalg/lu.hpp"

namespace sa {

std::vector<double> scan_grid(const ArrayGeometry& geom, double step_deg) {
  SA_EXPECTS(step_deg > 0.0);
  const double lo = geom.scan_min_deg();
  const double hi = geom.scan_max_deg();
  std::vector<double> out;
  const bool wraps = geom.kind() != ArrayKind::kLinear;
  // Circular grids exclude the duplicate endpoint (360 == 0); linear
  // grids include both ends.
  for (double a = lo; wraps ? (a < hi - 1e-9) : (a <= hi + 1e-9); a += step_deg) {
    out.push_back(a);
  }
  return out;
}

namespace {

double information_criterion(const std::vector<double>& eigs,
                             std::size_t n_snapshots, std::size_t k,
                             bool mdl) {
  const std::size_t n = eigs.size();
  const std::size_t m = n - k;  // presumed noise eigenvalues (smallest m)
  double log_geo = 0.0;
  double arith = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double v = std::max(eigs[i], 1e-30);
    log_geo += std::log(v);
    arith += v;
  }
  log_geo /= static_cast<double>(m);
  arith /= static_cast<double>(m);
  const double ratio = log_geo - std::log(std::max(arith, 1e-30));
  const double data_term =
      -static_cast<double>(n_snapshots) * static_cast<double>(m) * ratio;
  const double dof = static_cast<double>(k) * (2.0 * n - k);
  const double penalty =
      mdl ? 0.5 * dof * std::log(static_cast<double>(n_snapshots))
          : dof;
  return data_term + penalty;
}

std::size_t argmin_criterion(const std::vector<double>& eigs,
                             std::size_t n_snapshots, bool mdl) {
  SA_EXPECTS(eigs.size() >= 2);
  SA_EXPECTS(n_snapshots >= 1);
  std::size_t best_k = 0;
  double best = information_criterion(eigs, n_snapshots, 0, mdl);
  for (std::size_t k = 1; k < eigs.size(); ++k) {
    const double c = information_criterion(eigs, n_snapshots, k, mdl);
    if (c < best) {
      best = c;
      best_k = k;
    }
  }
  return best_k;
}

}  // namespace

std::size_t estimate_num_sources_mdl(const std::vector<double>& eigenvalues,
                                     std::size_t n_snapshots) {
  return argmin_criterion(eigenvalues, n_snapshots, /*mdl=*/true);
}

std::size_t estimate_num_sources_aic(const std::vector<double>& eigenvalues,
                                     std::size_t n_snapshots) {
  return argmin_criterion(eigenvalues, n_snapshots, /*mdl=*/false);
}

MusicEstimator::MusicEstimator(MusicConfig config) : config_(config) {
  SA_EXPECTS(config_.scan_step_deg > 0.0);
}

MusicResult MusicEstimator::estimate(const CMat& covariance,
                                     const ArrayGeometry& geom,
                                     double lambda_m) const {
  return estimate(SpectralContext(covariance, geom, lambda_m,
                                  spectral_options()));
}

MusicResult MusicEstimator::estimate(const SpectralContext& ctx) const {
  const EigResult& eig = ctx.eig();
  const std::size_t n = ctx.processed().rows();

  std::size_t k;
  if (config_.num_sources) {
    k = std::min(*config_.num_sources, n - 1);
  } else {
    // Snapshot count is unknown at this layer; a packet's worth of
    // samples (hundreds) makes ln(N) ~ 6 — use a representative value.
    k = estimate_num_sources_mdl(eig.values, 320);
    k = std::min(std::max<std::size_t>(k, 1), n - 1);
  }

  // Noise projector P = sum of the n-k smallest eigenvectors' outer
  // products (shared through the context with root-MUSIC's polynomial);
  // MUSIC power = (a^H a) / (a^H P a).
  const CMat& noise_proj = ctx.noise_projector(k);

  const SteeringManifold& manifold =
      ctx.manifold(ctx.processed_geometry(), config_.scan_step_deg);
  std::vector<double> values(manifold.size());
  manifold.quadratic_forms(noise_proj, values.data());
  for (std::size_t g = 0; g < values.size(); ++g) {
    const double denom = values[g];
    const double num = manifold.norm_sq(g);
    values[g] = num / std::max(denom, 1e-12 * num);
  }

  MusicResult out{
      Pseudospectrum(manifold.grid(), std::move(values), manifold.wraps()),
      eig.values, k};
  return out;
}

Pseudospectrum bartlett_spectrum(const CMat& covariance,
                                 const SteeringManifold& manifold) {
  SA_EXPECTS(covariance.rows() == manifold.elements());
  std::vector<double> values(manifold.size());
  manifold.quadratic_forms(covariance, values.data());
  for (std::size_t g = 0; g < values.size(); ++g) {
    values[g] = std::max(values[g], 0.0) / manifold.norm_sq(g);
  }
  return Pseudospectrum(manifold.grid(), std::move(values), manifold.wraps());
}

Pseudospectrum bartlett_spectrum(const CMat& covariance,
                                 const ArrayGeometry& geom, double lambda_m,
                                 double step_deg) {
  return bartlett_spectrum(covariance,
                           SteeringManifold(geom, lambda_m, step_deg));
}

Pseudospectrum capon_spectrum(const CMat& covariance, const ArrayGeometry& geom,
                              double lambda_m, double step_deg,
                              double loading) {
  SA_EXPECTS(covariance.rows() == geom.size());
  CMat loaded = covariance;
  diagonal_load_inplace(loaded, loading);
  const auto rinv = inverse(loaded);
  SA_EXPECTS(rinv.has_value());
  return capon_spectrum_from_inverse(*rinv, geom, lambda_m, step_deg);
}

Pseudospectrum capon_spectrum_from_inverse(const CMat& r_inverse,
                                           const SteeringManifold& manifold) {
  SA_EXPECTS(r_inverse.rows() == manifold.elements());
  std::vector<double> values(manifold.size());
  manifold.quadratic_forms(r_inverse, values.data());
  for (std::size_t g = 0; g < values.size(); ++g) {
    values[g] = 1.0 / std::max(values[g], 1e-30);
  }
  return Pseudospectrum(manifold.grid(), std::move(values), manifold.wraps());
}

Pseudospectrum capon_spectrum_from_inverse(const CMat& r_inverse,
                                           const ArrayGeometry& geom,
                                           double lambda_m, double step_deg) {
  return capon_spectrum_from_inverse(
      r_inverse, SteeringManifold(geom, lambda_m, step_deg));
}

double power_weighted_direct_bearing_deg(const Pseudospectrum& music_spectrum,
                                         const std::vector<SpectrumPeak>& peaks,
                                         const CMat& covariance,
                                         const ArrayGeometry& geom,
                                         double lambda_m) {
  if (peaks.empty()) return music_spectrum.refined_max_angle_deg();
  CMat loaded = covariance;
  diagonal_load_inplace(loaded, 1e-3);
  const auto rinv = inverse(loaded);
  SA_EXPECTS(rinv.has_value());
  return power_weighted_direct_bearing_with_inverse_deg(
      music_spectrum, peaks, *rinv, geom, lambda_m);
}

double power_weighted_direct_bearing_with_inverse_deg(
    const Pseudospectrum& music_spectrum, const std::vector<SpectrumPeak>& peaks,
    const CMat& r_inverse, const ArrayGeometry& geom, double lambda_m) {
  if (peaks.empty()) return music_spectrum.refined_max_angle_deg();
  // Capon power at each candidate: a sharper power estimate than
  // Bartlett on a small-aperture array, so clustered reflections leak
  // less into each other's candidate bearings.
  double best_power = -1.0;
  double best_angle = peaks.front().angle_deg;
  for (const auto& p : peaks) {
    const CVec a = geom.steering_vector(p.angle_deg, lambda_m);
    const double power = 1.0 / std::max(quadratic_form(a, r_inverse), 1e-30);
    if (power > best_power) {
      best_power = power;
      best_angle = p.angle_deg;
    }
  }
  // Sub-grid refinement around the chosen peak with a parabolic fit on
  // the MUSIC spectrum (reuse the global refiner when it's the max).
  if (std::abs(best_angle - music_spectrum.max_angle_deg()) < 1e-9) {
    return music_spectrum.refined_max_angle_deg();
  }
  return best_angle;
}

double two_antenna_aoa_deg(cd x1, cd x2) {
  const double dphi = wrap_pi(std::arg(x2) - std::arg(x1));
  // Equation 1: theta = arcsin(dphi / pi) at half-wavelength spacing.
  const double s = std::clamp(dphi / kPi, -1.0, 1.0);
  return rad2deg(std::asin(s));
}

}  // namespace sa
