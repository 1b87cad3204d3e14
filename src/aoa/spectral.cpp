#include "sa/aoa/spectral.hpp"

#include <utility>
#include <vector>

#include "sa/aoa/covariance.hpp"
#include "sa/common/error.hpp"
#include "sa/common/geometry.hpp"
#include "sa/common/logging.hpp"
#include "sa/linalg/lu.hpp"

namespace sa {

ArrayGeometry scan_geometry(const ArrayGeometry& geom,
                            const SpectralOptions& options) {
  if (options.smoothing_subarray < 2 || geom.kind() != ArrayKind::kLinear) {
    return geom;
  }
  // The smoothed matrix corresponds to the leading subarray; preserve
  // ULA bearing conventions for it.
  const auto& pos = geom.positions();
  return ArrayGeometry::uniform_linear(options.smoothing_subarray,
                                       distance(pos[0], pos[1]));
}

SpectralContext::SpectralContext(CMat covariance, ArrayGeometry geom,
                                 double lambda_m, SpectralOptions options,
                                 const SteeringManifold* manifold)
    : raw_(std::move(covariance)),
      geom_(std::move(geom)),
      lambda_m_(lambda_m),
      options_(options),
      borrowed_manifold_(manifold) {
  SA_EXPECTS(raw_.rows() == raw_.cols());
  SA_EXPECTS(raw_.rows() == geom_.size());
  SA_EXPECTS(lambda_m_ > 0.0);
}

void SpectralContext::ensure_processed() const {
  if (processed_ready_) return;
  processed_geom_ = scan_geometry(geom_, options_);
  bool smoothed = false;
  if (options_.smoothing_subarray >= 2) {
    if (geom_.kind() == ArrayKind::kLinear) {
      processed_ = spatial_smooth(raw_, options_.smoothing_subarray);
      smoothed = true;
    } else {
      log_warn() << "SpectralContext: spatial smoothing requested for a "
                    "non-linear array; ignoring";
    }
  }
  // FB averaging requires the exchange matrix J to map the array onto
  // its own mirror image, which holds for a ULA's element ordering but
  // not for our circular arrays (element n-1-m is a rotation, not a
  // reflection, of element m). Restrict it to linear geometries.
  const bool fb = options_.forward_backward &&
                  processed_geom_.kind() == ArrayKind::kLinear;
  if (smoothed) {
    // The subarray matrix is already this context's own scratch copy.
    if (fb) forward_backward_average_inplace(processed_);
  } else if (fb) {
    // Single pass straight off the raw covariance: the pre-refactor
    // pipeline copied the covariance first and then allocated a second
    // matrix for the average — one full-matrix copy more than needed.
    processed_ = forward_backward_average(raw_);
  } else {
    processed_ = raw_;
  }
  processed_ready_ = true;
}

const CMat& SpectralContext::processed() const {
  ensure_processed();
  return processed_;
}

const ArrayGeometry& SpectralContext::processed_geometry() const {
  ensure_processed();
  return processed_geom_;
}

const EigResult& SpectralContext::eig() const {
  if (!eig_) eig_ = eigh(processed());
  return *eig_;
}

const CMat& SpectralContext::noise_projector(std::size_t num_sources) const {
  if (!projector_sources_ || *projector_sources_ != num_sources) {
    const EigResult& e = eig();
    const std::size_t n = processed().rows();
    SA_EXPECTS(num_sources < n);
    CMat proj(n, n);
    for (std::size_t i = 0; i < n - num_sources; ++i) {
      proj += CMat::outer(e.vectors.col(i));
    }
    projector_ = std::move(proj);
    projector_sources_ = num_sources;
  }
  return projector_;
}

const CMat& SpectralContext::inverse(double loading_eps) const {
  if (!inverse_eps_ || *inverse_eps_ != loading_eps) {
    CMat loaded = raw_;
    diagonal_load_inplace(loaded, loading_eps);
    auto inv = sa::inverse(loaded);
    SA_EXPECTS(inv.has_value());
    inverse_ = std::move(*inv);
    inverse_eps_ = loading_eps;
  }
  return inverse_;
}

const SteeringManifold& SpectralContext::manifold(
    const ArrayGeometry& scan_geom, double step_deg) const {
  if (borrowed_manifold_ != nullptr &&
      borrowed_manifold_->matches(scan_geom, lambda_m_, step_deg)) {
    return *borrowed_manifold_;
  }
  if (!own_manifold_ ||
      !own_manifold_->matches(scan_geom, lambda_m_, step_deg)) {
    own_manifold_.emplace(scan_geom, lambda_m_, step_deg);
  }
  return *own_manifold_;
}

}  // namespace sa
