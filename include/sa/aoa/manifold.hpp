// Steering manifold: the scan grid and every grid point's steering
// vector for one (geometry, wavelength, grid step), tabulated once.
//
// The grid-scan estimators (MUSIC, Capon, Bartlett) evaluate a Hermitian
// quadratic form of the same steering vectors on every frame, yet those
// vectors depend only on the array and the carrier, which an access
// point fixes at construction. The table holds exactly the values
// scan_grid(), ArrayGeometry::steering_vector() and norm() return, and
// quadratic_forms() below keeps sa::quadratic_form's arithmetic order at
// every grid point, so a scan over the table is bit-identical to
// evaluating those calls per grid point.
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

  /// Element j of grid point g's steering vector.
  cd steering(std::size_t g, std::size_t j) const {
    return {re_[j * stride_ + g], im_[j * stride_ + g]};
  }
  /// norm(a) * norm(a) of grid point g's steering vector a.
  double norm_sq(std::size_t g) const { return norm_sq_[g]; }

  /// out[g] = a^H M a for every grid point's steering vector a (out
  /// holds size() values), each bit-identical to sa::quadratic_form(a,
  /// m): the row sums of M·a first, then conj(a)·(M·a), both
  /// accumulated from zero in index order.
  void quadratic_forms(const CMat& m, double* out) const;

 private:
  /// The per-point loop quadratic_forms() replaces, kept verbatim as its
  /// non-finite fallback.
  double quadratic_form(std::size_t g, const CMat& m) const;

  ArrayGeometry geom_;
  double lambda_m_;
  double step_deg_;
  std::vector<double> grid_;
  /// The steering table once, as structure of arrays: element j of grid
  /// point g sits at re_[j * stride_ + g] and im_[j * stride_ + g]. Each
  /// element's row is zero-padded to stride_, a whole number of scan
  /// blocks.
  std::size_t stride_ = 0;
  std::vector<double> re_;
  std::vector<double> im_;
  std::vector<double> norm_sq_;
};

}  // namespace sa
