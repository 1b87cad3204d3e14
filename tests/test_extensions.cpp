// Tests for the extension modules: polynomial roots, Root-MUSIC,
// downlink beamforming / null-steering, and the multi-AP coordinator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "sa/aoa/covariance.hpp"
#include "sa/aoa/rootmusic.hpp"
#include "sa/channel/raytracer.hpp"
#include "sa/channel/simulator.hpp"
#include "sa/common/angles.hpp"
#include "sa/common/constants.hpp"
#include "sa/common/error.hpp"
#include "sa/common/rng.hpp"
#include "sa/dsp/units.hpp"
#include "sa/linalg/polyroots.hpp"
#include "sa/mac/frame.hpp"
#include "sa/phy/packet.hpp"
#include "sa/secure/beamforming.hpp"
#include "sa/secure/coordinator.hpp"
#include "sa/testbed/office.hpp"
#include "sa/testbed/uplink.hpp"

namespace sa {
namespace {

constexpr double kLambda = kSpeedOfLight / 2.4e9;

// -------------------------------------------------------------- polyroots

TEST(PolyRoots, Quadratic) {
  // (z - 2)(z + 3) = z^2 + z - 6.
  const CVec coeffs{cd{-6, 0}, cd{1, 0}, cd{1, 0}};
  auto roots = polynomial_roots(coeffs);
  ASSERT_EQ(roots.size(), 2u);
  std::sort(roots.begin(), roots.end(),
            [](cd a, cd b) { return a.real() < b.real(); });
  EXPECT_NEAR(std::abs(roots[0] - cd(-3.0, 0.0)), 0.0, 1e-9);
  EXPECT_NEAR(std::abs(roots[1] - cd(2.0, 0.0)), 0.0, 1e-9);
}

TEST(PolyRoots, ComplexRootsOfUnity) {
  // z^8 - 1: roots are the 8th roots of unity.
  CVec coeffs(9, cd{0, 0});
  coeffs[0] = cd{-1, 0};
  coeffs[8] = cd{1, 0};
  const auto roots = polynomial_roots(coeffs);
  ASSERT_EQ(roots.size(), 8u);
  for (const cd& z : roots) {
    EXPECT_NEAR(std::abs(z), 1.0, 1e-8);
    EXPECT_NEAR(std::abs(polyval(coeffs, z)), 0.0, 1e-8);
  }
}

TEST(PolyRoots, RandomPolynomialResiduals) {
  Rng rng(1);
  for (int rep = 0; rep < 5; ++rep) {
    CVec coeffs(13);
    for (auto& c : coeffs) c = cd{rng.normal(), rng.normal()};
    const auto roots = polynomial_roots(coeffs);
    ASSERT_EQ(roots.size(), 12u);
    for (const cd& z : roots) {
      // Scale-aware residual: a small leading coefficient legitimately
      // produces huge roots, where |p(z)| is dominated by floating-point
      // rounding of the ~|z|^12 terms.
      double term_scale = 1.0;
      double pw = 1.0;
      for (const cd& c : coeffs) {
        term_scale = std::max(term_scale, std::abs(c) * pw);
        pw *= std::max(std::abs(z), 1.0);
      }
      EXPECT_LT(std::abs(polyval(coeffs, z)) / term_scale, 1e-8);
    }
  }
}

TEST(PolyRoots, TrimsLeadingZeros) {
  // Effectively linear: 0*z^3 + 0*z^2 + 2z - 4.
  const CVec coeffs{cd{-4, 0}, cd{2, 0}, cd{0, 0}, cd{0, 0}};
  const auto roots = polynomial_roots(coeffs);
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_NEAR(std::abs(roots[0] - cd(2.0, 0.0)), 0.0, 1e-9);
}

TEST(PolyRoots, RejectsDegenerate) {
  EXPECT_THROW(polynomial_roots(CVec{cd{1, 0}}), InvalidArgument);
  EXPECT_THROW(polynomial_roots(CVec{cd{0, 0}, cd{0, 0}}), InvalidArgument);
}

// -------------------------------------------------------------- rootmusic

CMat ula_cov(const ArrayGeometry& geom, const std::vector<double>& bearings,
             double noise, Rng& rng, std::size_t snaps = 400) {
  CMat x(geom.size(), snaps);
  std::vector<CVec> steer;
  for (double b : bearings) steer.push_back(geom.steering_vector(b, kLambda));
  for (std::size_t t = 0; t < snaps; ++t) {
    for (const auto& a : steer) {
      const cd sym = rng.random_phasor();
      for (std::size_t m = 0; m < geom.size(); ++m) x(m, t) += sym * a[m];
    }
    for (std::size_t m = 0; m < geom.size(); ++m) {
      x(m, t) += rng.complex_normal(noise);
    }
  }
  return sample_covariance(x);
}

TEST(RootMusic, SingleSourceExact) {
  Rng rng(2);
  const auto geom = ArrayGeometry::uniform_linear(8, kLambda / 2.0);
  for (double truth : {-55.3, -10.7, 0.0, 23.4, 61.2}) {
    const CMat r = ula_cov(geom, {truth}, 0.01, rng);
    const auto sources = root_music(r, geom, kLambda);
    ASSERT_FALSE(sources.empty()) << truth;
    EXPECT_NEAR(sources[0].bearing_deg, truth, 0.3) << truth;
  }
}

TEST(RootMusic, BeatsGridResolutionOffGrid) {
  // True bearing between grid points: Root-MUSIC has no grid to snap to.
  Rng rng(3);
  const auto geom = ArrayGeometry::uniform_linear(8, kLambda / 2.0);
  const double truth = 17.37;
  const CMat r = ula_cov(geom, {truth}, 0.001, rng);
  const auto sources = root_music(r, geom, kLambda);
  ASSERT_FALSE(sources.empty());
  EXPECT_NEAR(sources[0].bearing_deg, truth, 0.1);
}

TEST(RootMusic, TwoSourcesResolved) {
  Rng rng(4);
  const auto geom = ArrayGeometry::uniform_linear(8, kLambda / 2.0);
  RootMusicConfig cfg;
  cfg.num_sources = 2;
  const CMat r = ula_cov(geom, {-30.0, 25.0}, 0.02, rng);
  const auto sources = root_music(r, geom, kLambda, cfg);
  ASSERT_EQ(sources.size(), 2u);
  std::vector<double> got{sources[0].bearing_deg, sources[1].bearing_deg};
  std::sort(got.begin(), got.end());
  EXPECT_NEAR(got[0], -30.0, 1.0);
  EXPECT_NEAR(got[1], 25.0, 1.0);
}

TEST(RootMusic, MdlSourceCountWorks) {
  Rng rng(5);
  const auto geom = ArrayGeometry::uniform_linear(8, kLambda / 2.0);
  const CMat r = ula_cov(geom, {-40.0, 10.0}, 0.05, rng);
  const auto sources = root_music(r, geom, kLambda);  // num_sources = MDL
  EXPECT_EQ(sources.size(), 2u);
}

TEST(RootMusic, RequiresLinearArray) {
  const auto oct = ArrayGeometry::octagon();
  EXPECT_THROW(root_music(CMat::identity(8), oct, kLambda), InvalidArgument);
}

// ------------------------------------------------------------ beamforming

TEST(Beamforming, AoaWeightsSteerCorrectly) {
  const auto geom = ArrayGeometry::uniform_linear(8, kLambda / 2.0);
  const CVec w = aoa_beamforming_weights(geom, 20.0, kLambda);
  EXPECT_NEAR(norm(w), 1.0, 1e-12);  // unit total power
  // Full array gain toward the target: 10*log10(8) ~ 9.03 dB.
  EXPECT_NEAR(array_factor_db(geom, w, 20.0, kLambda), 9.03, 0.01);
  // Substantially less in other directions.
  EXPECT_LT(array_factor_db(geom, w, -40.0, kLambda), 2.0);
}

TEST(Beamforming, MrtIsUpperBound) {
  // Over a multipath channel, MRT >= AoA-steered >= ... for any bearing.
  Rng rng(6);
  Floorplan room;
  room.add_room({0, 0}, {14, 10});
  const auto geom = ArrayGeometry::octagon();
  const ArrayPlacement placement{geom, {3.0, 3.0}, 0.0};
  const RayTracer tracer;
  const ChannelSimulator sim({2.4e9, 20e6, 0.0, 0.0});
  for (const Vec2 client : {Vec2{10.0, 7.0}, Vec2{5.0, 8.0}, Vec2{12.0, 2.0}}) {
    const auto paths = tracer.trace(client, placement.origin, room);
    const CVec h = sim.channel_vector(paths, placement);
    const double direct_bearing =
        world_to_array_bearing(geom, paths[0].arrival_bearing_deg, 0.0);
    const CVec w_aoa = aoa_beamforming_weights(geom, direct_bearing, kLambda);
    const CVec w_mrt = mrt_weights(h);
    const double g_aoa = downlink_amplitude(h, w_aoa);
    const double g_mrt = downlink_amplitude(h, w_mrt);
    EXPECT_GE(g_mrt + 1e-12, g_aoa);
    // AoA beamforming still buys a real gain over a single antenna.
    EXPECT_GT(downlink_gain_db(h, w_aoa), 3.0);
  }
}

TEST(Beamforming, NullSteeringCreatesDeepNull) {
  const auto geom = ArrayGeometry::uniform_linear(8, kLambda / 2.0);
  const CVec w = null_steering_weights(geom, 10.0, {-35.0, 55.0}, kLambda);
  EXPECT_NEAR(norm(w), 1.0, 1e-12);
  // Deep nulls at the protected bearings.
  EXPECT_LT(array_factor_db(geom, w, -35.0, kLambda), -80.0);
  EXPECT_LT(array_factor_db(geom, w, 55.0, kLambda), -80.0);
  // Target keeps most of the array gain (within ~2 dB of full).
  EXPECT_GT(array_factor_db(geom, w, 10.0, kLambda), 7.0);
}

TEST(Beamforming, NullAtTargetRejected) {
  const auto geom = ArrayGeometry::uniform_linear(8, kLambda / 2.0);
  EXPECT_THROW(null_steering_weights(geom, 10.0, {10.0}, kLambda),
               InvalidArgument);
}

TEST(Beamforming, TooManyNullsRejected) {
  const auto geom = ArrayGeometry::uniform_linear(4, kLambda / 2.0);
  EXPECT_THROW(
      null_steering_weights(geom, 0.0, {-60.0, -30.0, 30.0, 60.0}, kLambda),
      InvalidArgument);
}

// ------------------------------------------------------------ coordinator

struct CoordRig {
  OfficeTestbed tb = OfficeTestbed::figure4();
  Rng rng;
  std::unique_ptr<UplinkSimulation> sim;
  std::vector<std::unique_ptr<AccessPoint>> aps;
  std::uint16_t seq = 0;

  explicit CoordRig(std::uint64_t seed) : rng(seed) {
    UplinkConfig cfg;
    cfg.channel.noise_power = 1e-5;
    sim = std::make_unique<UplinkSimulation>(tb, cfg, rng);
    for (const Vec2 pos : {tb.ap_position(), tb.extra_ap_positions()[1],
                           tb.extra_ap_positions()[2]}) {
      AccessPointConfig c;
      c.position = pos;
      aps.push_back(std::make_unique<AccessPoint>(c, rng));
      sim->add_ap(aps.back()->placement());
    }
  }

  std::vector<ApObservation> uplink(Vec2 from, MacAddress mac,
                                    const TxPattern* pattern = nullptr) {
    const Frame f =
        Frame::data(MacAddress::from_index(0xFF), mac, Bytes{1, 2}, seq++);
    const CVec w = PacketTransmitter(PhyRate::k6Mbps).transmit(f.serialize());
    const auto rx = sim->transmit(from, w, pattern);
    std::vector<ApObservation> obs;
    for (std::size_t i = 0; i < aps.size(); ++i) {
      for (auto& pkt : aps[i]->receive(rx[i])) {
        obs.push_back({aps[i]->config().position, std::move(pkt)});
      }
    }
    sim->advance(0.2);
    return obs;
  }
};

CoordinatorConfig office_coordinator_config(const OfficeTestbed& tb) {
  CoordinatorConfig cfg;
  cfg.fence_boundary = tb.building_outline();
  return cfg;
}

TEST(Coordinator, AcceptsLegitimateIndoorClient) {
  CoordRig rig(900);
  Coordinator coord(office_coordinator_config(rig.tb));
  const auto mac = MacAddress::from_index(5);
  for (int i = 0; i < 8; ++i) {
    const auto obs = rig.uplink(rig.tb.client(5).position, mac);
    ASSERT_FALSE(obs.empty());
    const auto d = coord.process(obs);
    EXPECT_NE(d.policy, FencePolicy::kName) << i;
    EXPECT_NE(d.policy, SpoofPolicy::kName) << i;
    ASSERT_TRUE(d.source.has_value());
    EXPECT_EQ(*d.source, mac);
  }
  EXPECT_GE(coord.chain().policy_stats().back().accepted, 7u);
  // Location produced and accurate.
  const auto obs = rig.uplink(rig.tb.client(5).position, mac);
  const auto d = coord.process(obs);
  ASSERT_TRUE(d.location.has_value());
  EXPECT_LT(distance(d.location->position, rig.tb.client(5).position), 2.0);
}

TEST(Coordinator, DropsOutdoorTransmitter) {
  CoordRig rig(901);
  Coordinator coord(office_coordinator_config(rig.tb));
  const Vec2 attacker = rig.tb.outdoor_positions()[0];
  TxPattern amp;
  amp.tx_power_db = 18.0;  // make sure multiple APs hear it
  int fence_drops = 0, observed = 0;
  for (int i = 0; i < 6; ++i) {
    const auto obs = rig.uplink(attacker, MacAddress::from_index(66), &amp);
    if (obs.size() < 2) continue;  // not enough APs heard it: no frame anyway
    ++observed;
    const auto d = coord.process(obs);
    if (d.policy == FencePolicy::kName) ++fence_drops;
  }
  ASSERT_GT(observed, 0);
  EXPECT_EQ(fence_drops, observed);
}

TEST(Coordinator, DropsSpoofedFrames) {
  CoordRig rig(902);
  CoordinatorConfig cfg = office_coordinator_config(rig.tb);
  Coordinator coord(cfg);
  const auto mac = MacAddress::from_index(2);
  for (int i = 0; i < 10; ++i) {
    const auto obs = rig.uplink(rig.tb.client(2).position, mac);
    ASSERT_FALSE(obs.empty());
    coord.process(obs);
  }
  // Attacker spoofs from across the office.
  int spoof_drops = 0;
  for (int i = 0; i < 6; ++i) {
    const auto obs = rig.uplink(rig.tb.client(17).position, mac);
    ASSERT_FALSE(obs.empty());
    const auto d = coord.process(obs);
    if (d.policy == SpoofPolicy::kName) ++spoof_drops;
  }
  EXPECT_GE(spoof_drops, 5);
  EXPECT_EQ(coord.chain().drops(SpoofPolicy::kName),
            static_cast<std::size_t>(spoof_drops));
}

TEST(Coordinator, FenceDisabledStillDetectsSpoof) {
  CoordRig rig(903);
  CoordinatorConfig cfg;  // no fence
  Coordinator coord(cfg);
  const auto mac = MacAddress::from_index(3);
  for (int i = 0; i < 8; ++i) {
    coord.process(rig.uplink(rig.tb.client(3).position, mac));
  }
  const auto d = coord.process(rig.uplink(rig.tb.client(9).position, mac));
  EXPECT_EQ(d.policy, SpoofPolicy::kName);
  EXPECT_FALSE(d.location.has_value());
}

TEST(Coordinator, RequiresObservations) {
  Coordinator coord(CoordinatorConfig{});
  EXPECT_THROW(coord.process({}), InvalidArgument);
}

}  // namespace
}  // namespace sa
