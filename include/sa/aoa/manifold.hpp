// Steering manifold: the scan grid and every grid point's steering
// vector for one (geometry, wavelength, grid step), tabulated once.
//
// The grid-scan estimators (MUSIC, Capon, Bartlett) evaluate a Hermitian
// quadratic form of the same steering vectors on every frame, yet those
// vectors depend only on the array and the carrier, which an access
// point fixes at construction. The table holds exactly the values
// scan_grid(), ArrayGeometry::steering_vector() and norm() return, and
// quadratic_form() below keeps sa::quadratic_form's arithmetic order, so
// a scan over the table is bit-identical to evaluating those calls per
// grid point.
#pragma once

#include <cstddef>
#include <vector>

#include "sa/array/geometry.hpp"
#include "sa/linalg/cmat.hpp"

namespace sa {

class SteeringManifold {
 public:
  /// Tabulates scan_grid(geom, step_deg) and each grid angle's steering
  /// vector at `lambda_m`.
  SteeringManifold(const ArrayGeometry& geom, double lambda_m,
                   double step_deg);

  /// True when this table was built for exactly these inputs (same
  /// element positions, wavelength and step, compared bitwise).
  bool matches(const ArrayGeometry& geom, double lambda_m,
               double step_deg) const;

  /// The scan grid, in degrees (scan_grid's output).
  const std::vector<double>& grid() const { return grid_; }
  std::size_t size() const { return grid_.size(); }
  /// Array elements per steering vector.
  std::size_t elements() const { return geom_.size(); }
  /// Circular scan (the pseudospectrum's two ends are neighbours).
  bool wraps() const { return geom_.kind() != ArrayKind::kLinear; }

  /// Steering vector of grid point g: elements() contiguous entries.
  const cd* row(std::size_t g) const {
    return table_.data() + g * geom_.size();
  }
  /// norm(a) * norm(a) of grid point g's steering vector a.
  double norm_sq(std::size_t g) const { return norm_sq_[g]; }

  /// a^H M a for grid point g's steering vector a, bit-identical to
  /// sa::quadratic_form(a, m): the row sums of M·a first, then
  /// conj(a)·(M·a), both accumulated from zero in index order.
  double quadratic_form(std::size_t g, const CMat& m) const {
    const std::size_t n = geom_.size();
    SA_EXPECTS(m.rows() == n && m.cols() == n);
    const cd* a = row(g);
    const cd* p = m.raw();
    cd acc{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      cd s{0.0, 0.0};
      for (std::size_t j = 0; j < n; ++j) s += p[i * n + j] * a[j];
      acc += std::conj(a[i]) * s;
    }
    return acc.real();
  }

 private:
  ArrayGeometry geom_;
  double lambda_m_;
  double step_deg_;
  std::vector<double> grid_;
  std::vector<cd> table_;  ///< size() x elements(), row-major
  std::vector<double> norm_sq_;
};

}  // namespace sa
