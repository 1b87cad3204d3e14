#include "sa/aoa/manifold.hpp"

#include <algorithm>
#include <cmath>

#include "sa/aoa/estimators.hpp"
#include "sa/common/error.hpp"
#include "sa/linalg/lanes.hpp"

namespace sa {

namespace {

using lanes::v2d;

/// Lane pairs per scan block: each block of kBlock grid points keeps 3 x
/// kVectors accumulator vectors (row sum re/im, quadratic form) live.
constexpr std::size_t kVectors = 4;
constexpr std::size_t kBlock = 2 * kVectors;

}  // namespace

SteeringManifold::SteeringManifold(const ArrayGeometry& geom, double lambda_m,
                                   double step_deg)
    : geom_(geom),
      lambda_m_(lambda_m),
      step_deg_(step_deg),
      grid_(scan_grid(geom, step_deg)) {
  const std::size_t n = geom.size();
  stride_ = (grid_.size() + kBlock - 1) / kBlock * kBlock;
  re_.assign(n * stride_, 0.0);
  im_.assign(n * stride_, 0.0);
  norm_sq_.reserve(grid_.size());
  for (std::size_t g = 0; g < grid_.size(); ++g) {
    const CVec a = geom.steering_vector(grid_[g], lambda_m);
    for (std::size_t j = 0; j < n; ++j) {
      re_[j * stride_ + g] = a[j].real();
      im_[j * stride_ + g] = a[j].imag();
    }
    norm_sq_.push_back(norm(a) * norm(a));
  }
}

bool SteeringManifold::matches(const ArrayGeometry& geom, double lambda_m,
                               double step_deg) const {
  return lambda_m == lambda_m_ && step_deg == step_deg_ &&
         geom.kind() == geom_.kind() && geom.positions() == geom_.positions();
}

double SteeringManifold::quadratic_form(std::size_t g, const CMat& m) const {
  const std::size_t n = geom_.size();
  CVec a(n);
  for (std::size_t j = 0; j < n; ++j) a[j] = steering(g, j);
  const cd* p = m.raw();
  cd acc{0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    cd s{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) s += p[i * n + j] * a[j];
    acc += std::conj(a[i]) * s;
  }
  return acc.real();
}

// The scan runs the per-point loop above across kBlock grid points at
// once, one grid point per lane. Every point keeps its own accumulators,
// summed from +0.0 in index order, so no sum is reassociated. The terms
// are std::complex's inline products written out:
//     s   += p * a          re: pr*ar - pi*ai   im: pr*ai + pi*ar
//     acc += conj(a_i) * s  re: ar_i*sr + ai_i*si
// (the last is ar*sr - (-ai)*si, equal by u - (-v) == u + v; the
// imaginary part of acc never reaches the result). They differ from
// std::complex only where it calls __muldc3, when both parts of a
// product are NaN, and then the point's value is not finite: any
// non-finite value is recomputed by quadratic_form() and so returns the
// old bits.
void SteeringManifold::quadratic_forms(const CMat& m, double* out) const {
  const std::size_t n = geom_.size();
  SA_EXPECTS(m.rows() == n && m.cols() == n);
  const cd* p = m.raw();
  for (std::size_t g0 = 0; g0 < stride_; g0 += kBlock) {
    v2d acc[kVectors] = {};
    for (std::size_t i = 0; i < n; ++i) {
      v2d sr[kVectors] = {};
      v2d si[kVectors] = {};
      for (std::size_t j = 0; j < n; ++j) {
        const v2d pr = lanes::splat(p[i * n + j].real());
        const v2d pi = lanes::splat(p[i * n + j].imag());
        const double* ar = re_.data() + j * stride_ + g0;
        const double* ai = im_.data() + j * stride_ + g0;
        for (std::size_t l = 0; l < kVectors; ++l) {
          const v2d xr = lanes::load(ar + 2 * l);
          const v2d xi = lanes::load(ai + 2 * l);
          sr[l] += pr * xr - pi * xi;
          si[l] += pr * xi + pi * xr;
        }
      }
      const double* ar = re_.data() + i * stride_ + g0;
      const double* ai = im_.data() + i * stride_ + g0;
      for (std::size_t l = 0; l < kVectors; ++l) {
        acc[l] += lanes::load(ar + 2 * l) * sr[l] +
                  lanes::load(ai + 2 * l) * si[l];
      }
    }
    double q[kBlock];
    for (std::size_t l = 0; l < kVectors; ++l) lanes::store(q + 2 * l, acc[l]);
    const std::size_t len = std::min(kBlock, size() - g0);
    for (std::size_t k = 0; k < len; ++k) {
      out[g0 + k] = std::isfinite(q[k]) ? q[k] : quadratic_form(g0 + k, m);
    }
  }
}

}  // namespace sa
