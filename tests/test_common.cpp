// Unit tests for sa_common: angles, statistics, geometry, RNG.
#include <gtest/gtest.h>

#include <cmath>

#include "sa/common/angles.hpp"
#include "sa/common/constants.hpp"
#include "sa/common/error.hpp"
#include "sa/common/geometry.hpp"
#include "sa/common/rng.hpp"
#include "sa/common/stats.hpp"

namespace sa {
namespace {

// ---------------------------------------------------------------- angles

TEST(Angles, DegRadRoundTrip) {
  for (double d : {-720.0, -180.0, -37.5, 0.0, 12.25, 90.0, 359.0, 1234.0}) {
    EXPECT_NEAR(rad2deg(deg2rad(d)), d, 1e-12);
  }
}

TEST(Angles, WrapPi) {
  EXPECT_NEAR(wrap_pi(0.0), 0.0, 1e-15);
  EXPECT_NEAR(wrap_pi(kPi / 2), kPi / 2, 1e-15);
  EXPECT_NEAR(wrap_pi(kPi + 0.1), -kPi + 0.1, 1e-12);
  EXPECT_NEAR(wrap_pi(-kPi - 0.1), kPi - 0.1, 1e-12);
  EXPECT_NEAR(wrap_pi(5.0 * kTwoPi + 0.3), 0.3, 1e-9);
}

TEST(Angles, Wrap2Pi) {
  EXPECT_NEAR(wrap_2pi(-0.1), kTwoPi - 0.1, 1e-12);
  EXPECT_NEAR(wrap_2pi(kTwoPi + 0.2), 0.2, 1e-12);
  EXPECT_GE(wrap_2pi(-123.456), 0.0);
  EXPECT_LT(wrap_2pi(-123.456), kTwoPi);
}

TEST(Angles, WrapDeg) {
  EXPECT_NEAR(wrap_deg360(-10.0), 350.0, 1e-12);
  EXPECT_NEAR(wrap_deg360(725.0), 5.0, 1e-12);
  EXPECT_NEAR(wrap_deg180(190.0), -170.0, 1e-12);
  EXPECT_NEAR(wrap_deg180(-190.0), 170.0, 1e-12);
  EXPECT_NEAR(wrap_deg180(180.0), 180.0, 1e-12);
}

TEST(Angles, AngularDistanceDeg) {
  EXPECT_NEAR(angular_distance_deg(10.0, 350.0), 20.0, 1e-12);
  EXPECT_NEAR(angular_distance_deg(350.0, 10.0), 20.0, 1e-12);
  EXPECT_NEAR(angular_distance_deg(0.0, 180.0), 180.0, 1e-12);
  EXPECT_NEAR(angular_distance_deg(90.0, 90.0), 0.0, 1e-12);
}

TEST(Angles, CircularMeanHandlesWraparound) {
  const std::vector<double> degs{350.0, 10.0};
  EXPECT_NEAR(angular_distance_deg(circular_mean_deg(degs), 0.0), 0.0, 1e-9);
  const std::vector<double> degs2{170.0, 190.0};
  EXPECT_NEAR(angular_distance_deg(circular_mean_deg(degs2), 180.0), 0.0, 1e-9);
}

// ----------------------------------------------------------------- stats

TEST(Stats, MeanVarianceKnownValues) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(mean(xs), 5.0, 1e-12);
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, EmptyAndSingleton) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(variance({}), 0.0);
  EXPECT_EQ(variance({1.0}), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(percentile(xs, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(percentile(xs, 100.0), 4.0, 1e-12);
  EXPECT_NEAR(percentile(xs, 50.0), 2.5, 1e-12);
  EXPECT_NEAR(median(xs), 2.5, 1e-12);
}

TEST(Stats, PercentileRejectsBadArgs) {
  EXPECT_THROW(percentile({}, 50.0), InvalidArgument);
  EXPECT_THROW(percentile({1.0}, -1.0), InvalidArgument);
  EXPECT_THROW(percentile({1.0}, 101.0), InvalidArgument);
}

TEST(Stats, IncompleteBetaEdges) {
  EXPECT_EQ(incomplete_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_EQ(incomplete_beta(2.0, 3.0, 1.0), 1.0);
  // I_x(1,1) = x (uniform distribution CDF).
  EXPECT_NEAR(incomplete_beta(1.0, 1.0, 0.3), 0.3, 1e-10);
  // Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
  const double v = incomplete_beta(2.5, 4.5, 0.4);
  EXPECT_NEAR(v, 1.0 - incomplete_beta(4.5, 2.5, 0.6), 1e-10);
}

TEST(Stats, StudentTCdfMatchesTables) {
  // CDF values from standard t tables.
  EXPECT_NEAR(student_t_cdf(0.0, 5.0), 0.5, 1e-12);
  EXPECT_NEAR(student_t_cdf(2.015, 5.0), 0.95, 1e-3);
  EXPECT_NEAR(student_t_cdf(-2.015, 5.0), 0.05, 1e-3);
  // Large df approaches the normal distribution: Phi(1.96) ~ 0.975.
  EXPECT_NEAR(student_t_cdf(1.96, 1e6), 0.975, 1e-3);
}

TEST(Stats, StudentTCriticalMatchesTables) {
  // Two-sided critical values from standard tables.
  EXPECT_NEAR(student_t_critical(0.95, 9.0), 2.262, 2e-3);
  EXPECT_NEAR(student_t_critical(0.99, 9.0), 3.250, 2e-3);
  EXPECT_NEAR(student_t_critical(0.95, 1.0), 12.706, 2e-2);
  EXPECT_NEAR(student_t_critical(0.99, 1e6), 2.576, 1e-3);
}

TEST(Stats, ConfidenceIntervalShrinksWithN) {
  Rng rng(7);
  std::vector<double> small_sample, large_sample;
  for (int i = 0; i < 10; ++i) small_sample.push_back(rng.normal(5.0, 1.0));
  for (int i = 0; i < 1000; ++i) large_sample.push_back(rng.normal(5.0, 1.0));
  const auto ci_small = confidence_interval(small_sample, 0.99);
  const auto ci_large = confidence_interval(large_sample, 0.99);
  EXPECT_GT(ci_small.half_width, ci_large.half_width);
  EXPECT_NEAR(ci_large.mean, 5.0, 0.2);
}

TEST(Stats, ConfidenceIntervalCoverage) {
  // Property: a 95% CI over repeated draws should cover the true mean
  // roughly 95% of the time.
  Rng rng(1234);
  int covered = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> xs;
    for (int i = 0; i < 12; ++i) xs.push_back(rng.normal(3.0, 2.0));
    const auto ci = confidence_interval(xs, 0.95);
    if (std::abs(ci.mean - 3.0) <= ci.half_width) ++covered;
  }
  const double coverage = static_cast<double>(covered) / trials;
  EXPECT_GT(coverage, 0.90);
  EXPECT_LT(coverage, 0.99);
}

TEST(Stats, RunningStatsMatchesBatch) {
  Rng rng(42);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-3.0, 7.0);
    xs.push_back(x);
    rs.add(x);
  }
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-10);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-8);
}

TEST(Stats, EmpiricalCdfAndQuantile) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_NEAR(empirical_cdf(xs, 3.0), 0.6, 1e-12);
  EXPECT_NEAR(empirical_cdf(xs, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(empirical_cdf(xs, 10.0), 1.0, 1e-12);
  EXPECT_EQ(empirical_quantile(xs, 0.95), 5.0);
  EXPECT_EQ(empirical_quantile(xs, 0.6), 3.0);
}

// -------------------------------------------------------------- geometry

TEST(Geometry, VectorBasics) {
  const Vec2 a{3.0, 4.0};
  EXPECT_NEAR(a.norm(), 5.0, 1e-12);
  EXPECT_NEAR(a.normalized().norm(), 1.0, 1e-12);
  const Vec2 r = Vec2{1.0, 0.0}.rotated(kPi / 2.0);
  EXPECT_NEAR(r.x, 0.0, 1e-12);
  EXPECT_NEAR(r.y, 1.0, 1e-12);
  EXPECT_NEAR(dot({1.0, 2.0}, {3.0, 4.0}), 11.0, 1e-12);
  EXPECT_NEAR(cross({1.0, 0.0}, {0.0, 1.0}), 1.0, 1e-12);
}

TEST(Geometry, Bearing) {
  EXPECT_NEAR(bearing_deg({0, 0}, {1, 0}), 0.0, 1e-12);
  EXPECT_NEAR(bearing_deg({0, 0}, {0, 1}), 90.0, 1e-12);
  EXPECT_NEAR(bearing_deg({0, 0}, {-1, 0}), 180.0, 1e-12);
  EXPECT_NEAR(bearing_deg({0, 0}, {0, -1}), 270.0, 1e-12);
  EXPECT_NEAR(bearing_deg({1, 1}, {2, 2}), 45.0, 1e-12);
}

TEST(Geometry, SegmentIntersection) {
  const Segment s{{0, 0}, {2, 2}};
  const Segment t{{0, 2}, {2, 0}};
  const auto hit = intersect(s, t);
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(hit->x, 1.0, 1e-12);
  EXPECT_NEAR(hit->y, 1.0, 1e-12);

  // Disjoint segments do not intersect.
  EXPECT_FALSE(intersect({{0, 0}, {1, 0}}, {{0, 1}, {1, 1}}).has_value());
  // Parallel segments do not intersect.
  EXPECT_FALSE(intersect({{0, 0}, {1, 1}}, {{0, 1}, {1, 2}}).has_value());
  // Meeting only beyond an endpoint does not intersect.
  EXPECT_FALSE(intersect({{0, 0}, {1, 0}}, {{2, -1}, {2, 1}}).has_value());
}

TEST(Geometry, SegmentMirror) {
  const Segment wall{{0, 0}, {10, 0}};  // the x axis
  const Vec2 img = wall.mirror({3.0, 4.0});
  EXPECT_NEAR(img.x, 3.0, 1e-12);
  EXPECT_NEAR(img.y, -4.0, 1e-12);
  // Mirroring twice returns the original point.
  const Segment diag{{0, 0}, {1, 1}};
  const Vec2 p{2.0, 5.0};
  const Vec2 back = diag.mirror(diag.mirror(p));
  EXPECT_NEAR(back.x, p.x, 1e-9);
  EXPECT_NEAR(back.y, p.y, 1e-9);
}

TEST(Geometry, BlocksRespectsEndpoints) {
  const Segment wall{{0, -1}, {0, 1}};
  EXPECT_TRUE(blocks(wall, {-1, 0}, {1, 0}));
  // Path ending exactly on the wall is not "blocked".
  EXPECT_FALSE(blocks(wall, {-1, 0}, {0, 0}));
  // Path parallel to and away from the wall.
  EXPECT_FALSE(blocks(wall, {1, -1}, {1, 1}));
}

TEST(Geometry, PolygonContains) {
  const Polygon box = Polygon::rectangle({0, 0}, {10, 5});
  EXPECT_TRUE(box.contains({5, 2.5}));
  EXPECT_TRUE(box.contains({0, 0}));    // boundary counts as inside
  EXPECT_TRUE(box.contains({10, 5}));   // corner
  EXPECT_FALSE(box.contains({10.01, 2.0}));
  EXPECT_FALSE(box.contains({-0.01, 2.0}));
  EXPECT_FALSE(box.contains({5.0, 5.01}));
}

TEST(Geometry, PolygonNonConvex) {
  // L-shaped room.
  const Polygon ell({{0, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 4}, {0, 4}});
  EXPECT_TRUE(ell.contains({1, 3}));
  EXPECT_TRUE(ell.contains({3, 1}));
  EXPECT_FALSE(ell.contains({3, 3}));  // the notch
}

TEST(Geometry, PolygonAreaCentroid) {
  const Polygon box = Polygon::rectangle({0, 0}, {4, 2});
  EXPECT_NEAR(box.area(), 8.0, 1e-12);
  const Vec2 c = box.centroid();
  EXPECT_NEAR(c.x, 2.0, 1e-12);
  EXPECT_NEAR(c.y, 1.0, 1e-12);
}

TEST(Geometry, PolygonRequiresThreeVertices) {
  EXPECT_THROW(Polygon({{0, 0}, {1, 1}}), InvalidArgument);
}

TEST(Geometry, IntersectBearingsExact) {
  // Two rays from different APs toward the point (3, 4).
  const Vec2 target{3.0, 4.0};
  const std::vector<Vec2> origins{{0.0, 0.0}, {10.0, 0.0}};
  const std::vector<double> bearings{bearing_rad(origins[0], target),
                                     bearing_rad(origins[1], target)};
  const auto p = intersect_bearings(origins, bearings);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->x, target.x, 1e-9);
  EXPECT_NEAR(p->y, target.y, 1e-9);
}

TEST(Geometry, IntersectBearingsOverdetermined) {
  const Vec2 target{-2.0, 7.0};
  const std::vector<Vec2> origins{{0, 0}, {10, 0}, {5, 12}, {-8, 3}};
  std::vector<double> bearings;
  for (const auto& o : origins) bearings.push_back(bearing_rad(o, target));
  const auto p = intersect_bearings(origins, bearings);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->x, target.x, 1e-9);
  EXPECT_NEAR(p->y, target.y, 1e-9);
}

TEST(Geometry, IntersectBearingsParallelFails) {
  const std::vector<Vec2> origins{{0, 0}, {0, 5}};
  const std::vector<double> bearings{0.0, 0.0};  // both due east
  EXPECT_FALSE(intersect_bearings(origins, bearings).has_value());
}

// ------------------------------------------------------------------- rng

TEST(Rng, Deterministic) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, ForkDecorrelates) {
  Rng root(5);
  Rng child1 = root.fork();
  Rng child2 = root.fork();
  // Children seeded differently produce different streams.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (child1.uniform() != child2.uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, ComplexNormalPower) {
  Rng rng(11);
  double p = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) p += std::norm(rng.complex_normal(2.5));
  EXPECT_NEAR(p / n, 2.5, 0.1);
}

TEST(Rng, ZeroStddevNormalIsTheMeanAndKeepsTheStreamInStep) {
  // A zero stddev (zero noise power, zero fading sigma, ideal chain
  // gains) returns the mean exactly and consumes the same engine draws
  // as a unit normal, so the rest of the simulation does not shift.
  Rng zero(21), unit(21);
  for (double m : {0.0, -1.5, 3.25}) {
    EXPECT_EQ(zero.normal(m, 0.0), m);
    unit.normal(0.0, 1.0);
  }
  EXPECT_EQ(zero.complex_normal(0.0), std::complex<double>(0.0, 0.0));
  unit.normal(0.0, 1.0);
  unit.normal(0.0, 1.0);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(zero.normal(), unit.normal());
}

TEST(Rng, RandomPhasorUnitMagnitude) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_NEAR(std::abs(rng.random_phasor()), 1.0, 1e-12);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

}  // namespace
}  // namespace sa
