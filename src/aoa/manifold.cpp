#include "sa/aoa/manifold.hpp"

#include "sa/aoa/estimators.hpp"
#include "sa/common/error.hpp"

namespace sa {

SteeringManifold::SteeringManifold(const ArrayGeometry& geom, double lambda_m,
                                   double step_deg)
    : geom_(geom),
      lambda_m_(lambda_m),
      step_deg_(step_deg),
      grid_(scan_grid(geom, step_deg)) {
  table_.reserve(grid_.size() * geom.size());
  norm_sq_.reserve(grid_.size());
  for (double angle : grid_) {
    const CVec a = geom.steering_vector(angle, lambda_m);
    table_.insert(table_.end(), a.begin(), a.end());
    norm_sq_.push_back(norm(a) * norm(a));
  }
}

bool SteeringManifold::matches(const ArrayGeometry& geom, double lambda_m,
                               double step_deg) const {
  return lambda_m == lambda_m_ && step_deg == step_deg_ &&
         geom.kind() == geom_.kind() && geom.positions() == geom_.positions();
}

}  // namespace sa
