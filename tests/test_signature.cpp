// Unit tests for sa_signature: signature construction, distance metrics,
// and the EWMA tracker with its spoof-rejection behaviour, its
// snapshot/restore state and its rule for state of another shape.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "sa/common/angles.hpp"
#include "sa/common/error.hpp"
#include "sa/common/rng.hpp"
#include "sa/signature/metrics.hpp"
#include "sa/signature/signature.hpp"
#include "sa/signature/subband.hpp"
#include "sa/signature/tracker.hpp"

namespace sa {
namespace {

/// Synthetic circular pseudospectrum with Gaussian peaks at given
/// (bearing, linear height) pairs and a small noise floor.
Pseudospectrum synth_spectrum(
    const std::vector<std::pair<double, double>>& peaks, Rng* rng = nullptr,
    double jitter = 0.0) {
  std::vector<double> angles, values;
  for (int a = 0; a < 360; ++a) {
    angles.push_back(a);
    double v = 0.01;
    for (const auto& [bearing, height] : peaks) {
      const double d = angular_distance_deg(a, bearing) / 4.0;
      v += height * std::exp(-d * d);
    }
    if (rng != nullptr && jitter > 0.0) {
      v *= std::exp(rng->normal(0.0, jitter));
    }
    values.push_back(v);
  }
  return Pseudospectrum(angles, values, true);
}

TEST(Signature, ExtractsPeaksAndDirectBearing) {
  const auto sig = AoaSignature::from_spectrum(
      synth_spectrum({{120.0, 10.0}, {200.0, 4.0}, {310.0, 2.0}}));
  ASSERT_TRUE(sig.valid());
  ASSERT_GE(sig.peaks().size(), 3u);
  EXPECT_NEAR(sig.direct_bearing_deg(), 120.0, 1.0);
  const auto refl = sig.reflection_bearings_deg();
  ASSERT_GE(refl.size(), 2u);
  EXPECT_NEAR(refl[0], 200.0, 2.0);
  EXPECT_NEAR(refl[1], 310.0, 2.0);
}

TEST(Signature, MaxPeaksRespected) {
  SignatureConfig cfg;
  cfg.max_peaks = 2;
  const auto sig = AoaSignature::from_spectrum(
      synth_spectrum({{30.0, 10.0}, {100.0, 8.0}, {170.0, 6.0}, {240.0, 4.0}}),
      cfg);
  EXPECT_EQ(sig.peaks().size(), 2u);
}

TEST(Signature, SpectrumIsNormalized) {
  const auto sig =
      AoaSignature::from_spectrum(synth_spectrum({{45.0, 123.0}}));
  EXPECT_NEAR(sig.spectrum().max_value(), 1.0, 1e-12);
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, IdenticalSignaturesScoreOne) {
  const auto a = AoaSignature::from_spectrum(
      synth_spectrum({{90.0, 10.0}, {250.0, 3.0}}));
  EXPECT_NEAR(cosine_similarity(a, a), 1.0, 1e-12);
  EXPECT_NEAR(peak_set_distance(a, a), 0.0, 1e-12);
  EXPECT_NEAR(match_score(a, a), 1.0, 1e-12);
}

TEST(Metrics, DisjointSignaturesScoreLow) {
  const auto a = AoaSignature::from_spectrum(
      synth_spectrum({{45.0, 10.0}, {135.0, 4.0}}));
  const auto b = AoaSignature::from_spectrum(
      synth_spectrum({{225.0, 10.0}, {315.0, 4.0}}));
  EXPECT_LT(cosine_similarity(a, b), 0.2);
  EXPECT_NEAR(peak_set_distance(a, b), 1.0, 0.05);
  EXPECT_LT(match_score(a, b), 0.2);
}

TEST(Metrics, SmallShiftDegradesGracefully) {
  const auto base = AoaSignature::from_spectrum(synth_spectrum({{100.0, 10.0}}));
  double prev_score = 1.0;
  for (double shift : {2.0, 6.0, 15.0, 40.0}) {
    const auto moved =
        AoaSignature::from_spectrum(synth_spectrum({{100.0 + shift, 10.0}}));
    const double s = match_score(base, moved);
    EXPECT_LT(s, prev_score + 1e-9);
    prev_score = s;
  }
  EXPECT_LT(prev_score, 0.3);  // 40 degrees away: clearly different
}

TEST(Metrics, JitterToleratedAsSameClient) {
  Rng rng(1);
  const auto a = AoaSignature::from_spectrum(
      synth_spectrum({{60.0, 10.0}, {190.0, 3.0}}, &rng, 0.05));
  const auto b = AoaSignature::from_spectrum(
      synth_spectrum({{60.0, 10.0}, {190.0, 3.0}}, &rng, 0.05));
  EXPECT_GT(match_score(a, b), 0.9);
}

TEST(Metrics, IncompatibleGridsThrow) {
  const auto a = AoaSignature::from_spectrum(synth_spectrum({{60.0, 10.0}}));
  std::vector<double> angles, values;
  for (int i = -90; i <= 90; ++i) {
    angles.push_back(i);
    values.push_back(1.0);
  }
  const auto linear =
      AoaSignature::from_spectrum(Pseudospectrum(angles, values, false));
  EXPECT_THROW(cosine_similarity(a, linear), InvalidArgument);
}

// ---------------------------------------------------------------- tracker

TEST(Tracker, TrainsThenMatches) {
  Rng rng(2);
  TrackerConfig cfg;
  cfg.training_packets = 5;
  SignatureTracker tracker(cfg);
  for (int i = 0; i < 5; ++i) {
    const auto d = tracker.observe(AoaSignature::from_spectrum(
        synth_spectrum({{80.0, 10.0}, {210.0, 3.0}}, &rng, 0.05)));
    EXPECT_EQ(d.verdict, TrackerVerdict::kTraining);
  }
  EXPECT_TRUE(tracker.trained());
  const auto d = tracker.observe(AoaSignature::from_spectrum(
      synth_spectrum({{80.0, 10.0}, {210.0, 3.0}}, &rng, 0.05)));
  EXPECT_EQ(d.verdict, TrackerVerdict::kMatch);
  EXPECT_GT(d.score, 0.8);
}

TEST(Tracker, FlagsAttackerFromElsewhere) {
  Rng rng(3);
  SignatureTracker tracker;
  for (int i = 0; i < 5; ++i) {
    tracker.observe(AoaSignature::from_spectrum(
        synth_spectrum({{80.0, 10.0}, {210.0, 3.0}}, &rng, 0.05)));
  }
  const auto d = tracker.observe(AoaSignature::from_spectrum(
      synth_spectrum({{290.0, 10.0}, {30.0, 3.0}}, &rng, 0.05)));
  EXPECT_EQ(d.verdict, TrackerVerdict::kMismatch);
  EXPECT_LT(d.score, 0.5);
  EXPECT_EQ(tracker.mismatches(), 1u);
}

TEST(Tracker, MismatchDoesNotPoisonReference) {
  Rng rng(4);
  SignatureTracker tracker;
  for (int i = 0; i < 5; ++i) {
    tracker.observe(AoaSignature::from_spectrum(
        synth_spectrum({{80.0, 10.0}}, &rng, 0.03)));
  }
  const auto ref_before = tracker.reference();
  ASSERT_TRUE(ref_before.has_value());
  // Attacker hammers the tracker with a different signature.
  for (int i = 0; i < 50; ++i) {
    const auto d = tracker.observe(
        AoaSignature::from_spectrum(synth_spectrum({{290.0, 10.0}}, &rng, 0.03)));
    EXPECT_EQ(d.verdict, TrackerVerdict::kMismatch);
  }
  const auto ref_after = tracker.reference();
  ASSERT_TRUE(ref_after.has_value());
  // Reference unchanged: direct bearing still 80.
  EXPECT_NEAR(ref_after->direct_bearing_deg(), 80.0, 2.0);
  // And the legitimate client still matches.
  const auto d = tracker.observe(AoaSignature::from_spectrum(
      synth_spectrum({{80.0, 10.0}}, &rng, 0.03)));
  EXPECT_EQ(d.verdict, TrackerVerdict::kMatch);
}

TEST(Tracker, AdaptsToSlowDrift) {
  // Environment drift: reflection peak slides 20 degrees over many
  // packets; EWMA tracking keeps accepting.
  Rng rng(5);
  TrackerConfig cfg;
  cfg.ewma_alpha = 0.2;
  SignatureTracker tracker(cfg);
  for (int i = 0; i < 5; ++i) {
    tracker.observe(AoaSignature::from_spectrum(
        synth_spectrum({{80.0, 10.0}, {200.0, 4.0}}, &rng, 0.02)));
  }
  int mismatches = 0;
  for (int step = 0; step <= 40; ++step) {
    const double drift = 0.5 * step;  // reflection slides to 220
    const auto d = tracker.observe(AoaSignature::from_spectrum(
        synth_spectrum({{80.0, 10.0}, {200.0 + drift, 4.0}}, &rng, 0.02)));
    if (d.verdict == TrackerVerdict::kMismatch) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Tracker, ResetRetrains) {
  Rng rng(6);
  SignatureTracker tracker;
  for (int i = 0; i < 5; ++i) {
    tracker.observe(
        AoaSignature::from_spectrum(synth_spectrum({{80.0, 10.0}}, &rng, 0.03)));
  }
  EXPECT_TRUE(tracker.trained());
  tracker.reset();
  EXPECT_FALSE(tracker.trained());
  EXPECT_FALSE(tracker.reference().has_value());
  const auto d = tracker.observe(
      AoaSignature::from_spectrum(synth_spectrum({{10.0, 10.0}}, &rng, 0.03)));
  EXPECT_EQ(d.verdict, TrackerVerdict::kTraining);
}

TEST(Tracker, ConfigValidation) {
  TrackerConfig bad;
  bad.ewma_alpha = 0.0;
  EXPECT_THROW(SignatureTracker{bad}, InvalidArgument);
  bad = {};
  bad.match_threshold = 1.5;
  EXPECT_THROW(SignatureTracker{bad}, InvalidArgument);
  bad = {};
  bad.training_packets = 0;
  EXPECT_THROW(SignatureTracker{bad}, InvalidArgument);
}

/// A two-band signature with one jittered peak per band.
SubbandSignature two_band(double b0, double b1, Rng& rng) {
  return SubbandSignature(
      {AoaSignature::from_spectrum(synth_spectrum({{b0, 10.0}}, &rng, 0.03)),
       AoaSignature::from_spectrum(synth_spectrum({{b1, 10.0}}, &rng, 0.03))});
}

/// Every field of two tracker states, the accumulators bit for bit.
void expect_same_state(const TrackerSnapshot& a, const TrackerSnapshot& b) {
  EXPECT_EQ(a.trained, b.trained);
  EXPECT_EQ(a.training_seen, b.training_seen);
  EXPECT_EQ(a.observations, b.observations);
  EXPECT_EQ(a.mismatches, b.mismatches);
  ASSERT_EQ(a.bands.size(), b.bands.size());
  for (std::size_t i = 0; i < a.bands.size(); ++i) {
    const TrackerSnapshot::Band& x = a.bands[i];
    const TrackerSnapshot::Band& y = b.bands[i];
    EXPECT_EQ(x.wraps, y.wraps) << "band " << i;
    ASSERT_EQ(x.angles_deg.size(), y.angles_deg.size()) << "band " << i;
    ASSERT_EQ(x.values.size(), y.values.size()) << "band " << i;
    EXPECT_EQ(std::memcmp(x.angles_deg.data(), y.angles_deg.data(),
                          x.angles_deg.size() * sizeof(double)),
              0)
        << "band " << i;
    EXPECT_EQ(std::memcmp(x.values.data(), y.values.data(),
                          x.values.size() * sizeof(double)),
              0)
        << "band " << i;
  }
}

void expect_same_decision(const TrackerDecision& a, const TrackerDecision& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.score),
            std::bit_cast<std::uint64_t>(b.score));
}

TEST(Tracker, SnapshotRestoreContinuesBitForBit) {
  Rng rng(8);
  TrackerConfig cfg;
  cfg.training_packets = 4;
  // Training, matches, one attacker frame, then matches again.
  std::vector<SubbandSignature> stream;
  for (int i = 0; i < 7; ++i) stream.push_back(two_band(80.0, 84.0, rng));
  stream.push_back(two_band(290.0, 300.0, rng));
  for (int i = 0; i < 3; ++i) stream.push_back(two_band(80.0, 84.0, rng));

  // Cut mid-training (2 of 4 seen) and after training (4 seen, 1 match).
  for (const std::size_t cut : {std::size_t{2}, std::size_t{5}}) {
    SCOPED_TRACE(cut);
    SignatureTracker source(cfg);
    for (std::size_t i = 0; i < cut; ++i) source.observe(stream[i]);
    const TrackerSnapshot snap = source.snapshot();
    EXPECT_EQ(snap.trained, cut >= cfg.training_packets);
    SignatureTracker restored(cfg);
    restored.restore(snap);
    expect_same_state(restored.snapshot(), snap);

    std::size_t training = 0, matches = 0, mismatches = 0;
    for (std::size_t i = cut; i < stream.size(); ++i) {
      SCOPED_TRACE(i);
      const TrackerDecision want = source.observe(stream[i]);
      expect_same_decision(restored.observe(stream[i]), want);
      training += want.verdict == TrackerVerdict::kTraining;
      matches += want.verdict == TrackerVerdict::kMatch;
      mismatches += want.verdict == TrackerVerdict::kMismatch;
    }
    EXPECT_EQ(training, cut < cfg.training_packets ? 2u : 0u);
    EXPECT_GE(matches, 3u);
    EXPECT_EQ(mismatches, 1u);
    expect_same_state(restored.snapshot(), source.snapshot());
  }
}

TEST(Tracker, ResetMatchesAFreshTracker) {
  Rng rng(9);
  TrackerConfig cfg;
  cfg.training_packets = 3;
  SignatureTracker used(cfg);
  for (int i = 0; i < 5; ++i) used.observe(two_band(80.0, 84.0, rng));
  used.observe(two_band(290.0, 300.0, rng));
  ASSERT_TRUE(used.trained());
  ASSERT_EQ(used.mismatches(), 1u);

  used.reset();
  SignatureTracker fresh(cfg);
  expect_same_state(used.snapshot(), fresh.snapshot());
  EXPECT_FALSE(used.reference_bands().has_value());
  // Retraining (on another client, at another band count) runs exactly
  // as on a tracker that never saw the first client.
  for (int i = 0; i < 6; ++i) {
    SCOPED_TRACE(i);
    const auto sig = SubbandSignature::single(AoaSignature::from_spectrum(
        synth_spectrum({{200.0, 10.0}}, &rng, 0.03)));
    expect_same_decision(used.observe(sig), fresh.observe(sig));
  }
  EXPECT_TRUE(used.trained());
  expect_same_state(used.snapshot(), fresh.snapshot());
}

/// Tracker state on a 4-point wrapping grid, which no 360-point
/// signature fits — what a site with another scan grid would hand off.
TrackerSnapshot four_point_state(bool trained) {
  TrackerSnapshot snap;
  snap.trained = trained;
  snap.training_seen = trained ? 5 : 2;
  snap.observations = snap.training_seen;
  TrackerSnapshot::Band band;
  band.angles_deg = {0.0, 90.0, 180.0, 270.0};
  band.values = {1.0, 0.5, 0.25, 0.5};
  band.wraps = true;
  snap.bands.push_back(band);
  return snap;
}

TEST(Tracker, TrainedStateOnAForeignGridIsAMismatch) {
  Rng rng(10);
  auto client = [&] {
    return AoaSignature::from_spectrum(
        synth_spectrum({{80.0, 10.0}}, &rng, 0.03));
  };
  const TrackerSnapshot foreign = four_point_state(true);
  SignatureTracker tracker;
  tracker.restore(foreign);
  const TrackerDecision d = tracker.observe(client());
  EXPECT_EQ(d.verdict, TrackerVerdict::kMismatch);
  EXPECT_EQ(d.score, 0.0);
  // Never blended: only the counters moved.
  TrackerSnapshot want = foreign;
  ++want.observations;
  ++want.mismatches;
  expect_same_state(tracker.snapshot(), want);

  // The same grid size with the wrap flag cleared is foreign too.
  SignatureTracker trained;
  for (int i = 0; i < 5; ++i) trained.observe(client());
  TrackerSnapshot unwrapped = trained.snapshot();
  unwrapped.bands[0].wraps = false;
  SignatureTracker flipped;
  flipped.restore(unwrapped);
  const TrackerDecision e = flipped.observe(client());
  EXPECT_EQ(e.verdict, TrackerVerdict::kMismatch);
  EXPECT_EQ(e.score, 0.0);
}

TEST(Tracker, UntrainedStateOnAForeignGridRestartsTraining) {
  Rng rng(11);
  SignatureTracker tracker;
  tracker.restore(four_point_state(false));
  SignatureTracker fresh;
  TrackerDecision last;
  for (int i = 0; i < 6; ++i) {
    SCOPED_TRACE(i);
    const auto sig = AoaSignature::from_spectrum(
        synth_spectrum({{80.0, 10.0}}, &rng, 0.03));
    last = fresh.observe(sig);
    expect_same_decision(tracker.observe(sig), last);
  }
  EXPECT_EQ(last.verdict, TrackerVerdict::kMatch);
  // Training restarted on the new grid: the state is the fresh
  // tracker's, apart from the two observations the handed-off state
  // had counted.
  TrackerSnapshot want = fresh.snapshot();
  want.observations += 2;
  expect_same_state(tracker.snapshot(), want);
}


TEST(SubbandMetrics, MeanOverBandsAndKOneEquivalence) {
  const auto a = AoaSignature::from_spectrum(
      synth_spectrum({{90.0, 10.0}, {250.0, 3.0}}));
  const auto b = AoaSignature::from_spectrum(
      synth_spectrum({{180.0, 10.0}, {40.0, 3.0}}));

  // K=1: the subband score is numerically the narrowband score.
  const auto sa1 = SubbandSignature::single(a);
  const auto sb1 = SubbandSignature::single(b);
  EXPECT_EQ(match_score(sa1, sb1), match_score(a, b));

  // Two bands, one matching and one disjoint: the score is the mean.
  const SubbandSignature mixed_a({a, a});
  const SubbandSignature mixed_b({a, b});
  EXPECT_NEAR(match_score(mixed_a, mixed_b),
              (match_score(a, a) + match_score(a, b)) / 2.0, 1e-12);

  // Band-count mismatch is a precondition violation.
  EXPECT_THROW(match_score(sa1, mixed_b), InvalidArgument);
}

TEST(SubbandTracker, TracksPerBandAndFlagsBandCountChange) {
  Rng rng(7);
  TrackerConfig cfg;
  cfg.training_packets = 4;
  SignatureTracker tracker(cfg);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(tracker.observe(two_band(80.0, 84.0, rng)).verdict,
              TrackerVerdict::kTraining);
  }
  ASSERT_TRUE(tracker.trained());
  const auto ref = tracker.reference_bands();
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->num_bands(), 2u);

  // Same client: both bands match.
  EXPECT_EQ(tracker.observe(two_band(80.0, 84.0, rng)).verdict,
            TrackerVerdict::kMatch);
  // Attacker matching only one band scores the mean — below threshold.
  const auto d = tracker.observe(two_band(80.0, 290.0, rng));
  EXPECT_EQ(d.verdict, TrackerVerdict::kMismatch);
  EXPECT_LT(d.score, cfg.match_threshold);
  // A band-count change after training can never match.
  const auto narrow = tracker.observe(SubbandSignature::single(
      AoaSignature::from_spectrum(synth_spectrum({{80.0, 10.0}}, &rng, 0.03))));
  EXPECT_EQ(narrow.verdict, TrackerVerdict::kMismatch);
  EXPECT_EQ(narrow.score, 0.0);
}

TEST(SubbandSignature, FuseAveragesBands) {
  const auto a =
      AoaSignature::from_spectrum(synth_spectrum({{100.0, 10.0}}));
  const auto b =
      AoaSignature::from_spectrum(synth_spectrum({{140.0, 10.0}}));
  const SubbandSignature sub({a, b});
  const auto fused = sub.fuse();
  ASSERT_TRUE(fused.valid());
  // Both peaks survive fusion at roughly half the normalized height.
  EXPECT_GT(fused.spectrum().value_at(100.0), 0.4);
  EXPECT_GT(fused.spectrum().value_at(140.0), 0.4);
  // Single-band fuse is the band itself.
  const auto same = SubbandSignature::single(a).fuse();
  EXPECT_EQ(same.spectrum().values(), a.spectrum().values());
}

TEST(SubbandSignature, WeightedFuseMatchesHandComputedMean) {
  // Two bands with distinct peaks, weighted 3:1 — the fused spectrum is
  // the hand-computed weighted mean of the normalized band spectra.
  const auto a = AoaSignature::from_spectrum(synth_spectrum({{100.0, 10.0}}));
  const auto b = AoaSignature::from_spectrum(synth_spectrum({{140.0, 10.0}}));
  const SubbandSignature sub({a, b});
  const auto fused = sub.fuse(SignatureConfig{}, {3.0, 1.0});

  std::vector<double> expected(a.spectrum().size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected[i] = (3.0 * a.spectrum().values()[i] +
                   1.0 * b.spectrum().values()[i]) / 4.0;
  }
  const auto reference = AoaSignature::from_spectrum(
      Pseudospectrum(a.spectrum().angles_deg(), expected,
                     a.spectrum().wraps()));
  ASSERT_EQ(fused.spectrum().values().size(),
            reference.spectrum().values().size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(fused.spectrum().values()[i],
                     reference.spectrum().values()[i]);
  }
  // The dominant band's peak dominates the fusion.
  EXPECT_GT(fused.spectrum().value_at(100.0), fused.spectrum().value_at(140.0));
}

TEST(SubbandSignature, AllWeightOnOneBandReproducesThatBand) {
  const auto a = AoaSignature::from_spectrum(synth_spectrum({{100.0, 10.0}}));
  const auto b = AoaSignature::from_spectrum(synth_spectrum({{140.0, 10.0}}));
  const SubbandSignature sub({a, b});
  const auto fused = sub.fuse(SignatureConfig{}, {1.0, 0.0});
  EXPECT_EQ(fused.spectrum().values(), a.spectrum().values());
  EXPECT_DOUBLE_EQ(fused.direct_bearing_deg(), a.direct_bearing_deg());
}

TEST(SubbandSignature, UniformWeightsMatchUnweightedFuse) {
  const auto a = AoaSignature::from_spectrum(synth_spectrum({{100.0, 10.0}}));
  const auto b = AoaSignature::from_spectrum(synth_spectrum({{140.0, 6.0}}));
  const SubbandSignature sub({a, b});
  // Equal weights reduce to exactly the uniform mean (byte-identical —
  // the kUniform default must stay the original arithmetic).
  EXPECT_EQ(sub.fuse(SignatureConfig{}, {1.0, 1.0}).spectrum().values(),
            sub.fuse().spectrum().values());
}

TEST(SubbandSignature, WeightedFuseSingleBandIgnoresWeight) {
  const auto a = AoaSignature::from_spectrum(synth_spectrum({{100.0, 10.0}}));
  const auto single = SubbandSignature::single(a);
  // Documented contract: one band comes back unchanged regardless of
  // its weight — even zero.
  EXPECT_EQ(single.fuse(SignatureConfig{}, {0.0}).spectrum().values(),
            a.spectrum().values());
}

TEST(SubbandSignature, WeightedFuseRejectsBadWeights) {
  const auto a = AoaSignature::from_spectrum(synth_spectrum({{100.0, 10.0}}));
  const auto b = AoaSignature::from_spectrum(synth_spectrum({{140.0, 10.0}}));
  const SubbandSignature sub({a, b});
  EXPECT_THROW(sub.fuse(SignatureConfig{}, {1.0}), InvalidArgument);
  EXPECT_THROW(sub.fuse(SignatureConfig{}, {1.0, -0.5}), InvalidArgument);
  EXPECT_THROW(sub.fuse(SignatureConfig{}, {0.0, 0.0}), InvalidArgument);
}

}  // namespace
}  // namespace sa
