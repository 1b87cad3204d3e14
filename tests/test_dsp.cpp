// Unit tests for sa_dsp: FFT, noise/SNR, FIR filters.
#include <gtest/gtest.h>

#include <cmath>

#include "sa/common/constants.hpp"
#include "sa/common/error.hpp"
#include "sa/common/rng.hpp"
#include "sa/dsp/fft.hpp"
#include "sa/dsp/fir.hpp"
#include "sa/dsp/noise.hpp"
#include "sa/dsp/units.hpp"

namespace sa {
namespace {

// ------------------------------------------------------------------- fft

TEST(Fft, DeltaTransformsToFlat) {
  CVec x(8, cd{0.0, 0.0});
  x[0] = cd{1.0, 0.0};
  const CVec f = fft(x);
  for (const cd& v : f) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsOnBin) {
  const std::size_t n = 64;
  const std::size_t k0 = 5;
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = kTwoPi * static_cast<double>(k0 * i) / static_cast<double>(n);
    x[i] = cd{std::cos(ph), std::sin(ph)};
  }
  const CVec f = fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == k0) {
      EXPECT_NEAR(std::abs(f[k]), static_cast<double>(n), 1e-9);
    } else {
      EXPECT_NEAR(std::abs(f[k]), 0.0, 1e-9);
    }
  }
}

TEST(Fft, RoundTrip) {
  Rng rng(1);
  CVec x(256);
  for (auto& v : x) v = cd{rng.normal(), rng.normal()};
  const CVec back = ifft(fft(x));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(back[i] - x[i]), 0.0, 1e-10);
  }
}

TEST(Fft, LinearityProperty) {
  Rng rng(2);
  CVec a(64), b(64);
  for (auto& v : a) v = cd{rng.normal(), rng.normal()};
  for (auto& v : b) v = cd{rng.normal(), rng.normal()};
  const cd alpha{2.0, -1.0};
  CVec combo(64);
  for (std::size_t i = 0; i < 64; ++i) combo[i] = alpha * a[i] + b[i];
  const CVec lhs = fft(combo);
  const CVec fa = fft(a);
  const CVec fb = fft(b);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(std::abs(lhs[i] - (alpha * fa[i] + fb[i])), 0.0, 1e-9);
  }
}

TEST(Fft, ParsevalProperty) {
  Rng rng(3);
  CVec x(128);
  for (auto& v : x) v = cd{rng.normal(), rng.normal()};
  const double time_energy = energy(x);
  const CVec f = fft(x);
  EXPECT_NEAR(energy(f) / 128.0, time_energy, 1e-8);
}

TEST(Fft, MatchesDirectDftAtSubbandSizes) {
  // The wideband subband split (AccessPoint::prepare) routes its
  // length-K windows through the radix-2 fft_inplace instead of a direct
  // O(K^2) DFT. The two are the same linear transform evaluated with
  // different summation orders, so the results agree to a few ulps per
  // butterfly stage rather than bit-exactly; a 1e-12 relative bound is
  // ~1e3 times the worst accumulated rounding at K = 64 and far below
  // anything the per-band covariance (averaged over hundreds of
  // windows) could resolve.
  Rng rng(55);
  for (std::size_t k : {2u, 4u, 8u, 16u, 32u, 64u}) {
    SCOPED_TRACE(k);
    CVec x(k);
    double scale = 0.0;
    for (auto& v : x) {
      v = rng.complex_normal(1.0);
      scale = std::max(scale, std::abs(v));
    }
    const CVec fast = fft(x);
    for (std::size_t bin = 0; bin < k; ++bin) {
      cd direct{0.0, 0.0};
      for (std::size_t n = 0; n < k; ++n) {
        const double ang =
            -kTwoPi * static_cast<double>(bin * n) / static_cast<double>(k);
        direct += x[n] * cd{std::cos(ang), std::sin(ang)};
      }
      EXPECT_NEAR(fast[bin].real(), direct.real(),
                  1e-12 * static_cast<double>(k) * scale);
      EXPECT_NEAR(fast[bin].imag(), direct.imag(),
                  1e-12 * static_cast<double>(k) * scale);
    }
  }
}

TEST(Fft, RejectsNonPowerOfTwo) {
  CVec x(48);
  EXPECT_THROW(fft_inplace(x), InvalidArgument);
}

TEST(Fft, FftShiftCentersDc) {
  CVec x{cd{0, 0}, cd{1, 0}, cd{2, 0}, cd{3, 0}};
  const CVec s = fftshift(x);
  EXPECT_EQ(s[0], (cd{2, 0}));
  EXPECT_EQ(s[1], (cd{3, 0}));
  EXPECT_EQ(s[2], (cd{0, 0}));
  EXPECT_EQ(s[3], (cd{1, 0}));
}

// ----------------------------------------------------------------- noise

TEST(Noise, AwgnPowerMatchesRequest) {
  Rng rng(10);
  const CVec n = awgn(50000, 0.7, rng);
  EXPECT_NEAR(mean_power(n), 0.7, 0.02);
}

TEST(Noise, SnrIsRespected) {
  Rng rng(11);
  // Unit-power tone.
  CVec x(20000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double ph = 0.01 * static_cast<double>(i);
    x[i] = cd{std::cos(ph), std::sin(ph)};
  }
  CVec noisy = x;
  const double noise_power = add_awgn_snr(noisy, 10.0, rng);
  EXPECT_NEAR(noise_power, 0.1, 0.01);
  // Measured noise power across the block.
  double p = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) p += std::norm(noisy[i] - x[i]);
  EXPECT_NEAR(p / static_cast<double>(x.size()), 0.1, 0.01);
}

TEST(Noise, ZeroSignalUntouched) {
  Rng rng(12);
  CVec x(100, cd{0.0, 0.0});
  EXPECT_EQ(add_awgn_snr(x, 20.0, rng), 0.0);
  EXPECT_EQ(mean_power(x), 0.0);
}

TEST(Noise, CfoRotatesAtExpectedRate) {
  CVec x(1000, cd{1.0, 0.0});
  apply_cfo(x, 1000.0, 1e6);  // 1 kHz at 1 MS/s -> 2*pi/1000 per sample
  // After 250 samples the phase should be pi/2.
  EXPECT_NEAR(std::arg(x[250]), kPi / 2.0, 1e-6);
  // Magnitude preserved.
  for (const auto& v : x) EXPECT_NEAR(std::abs(v), 1.0, 1e-9);
}

TEST(Noise, ApplyPhase) {
  CVec x(10, cd{1.0, 0.0});
  apply_phase(x, kPi);
  for (const auto& v : x) EXPECT_NEAR(v.real(), -1.0, 1e-12);
}

TEST(Noise, FractionalDelayIntegerCase) {
  const CVec x{cd{1, 0}, cd{2, 0}, cd{3, 0}};
  const CVec d = fractional_delay(x, 2.0);
  ASSERT_EQ(d.size(), 5u);
  EXPECT_EQ(d[0], (cd{0, 0}));
  EXPECT_EQ(d[2], (cd{1, 0}));
  EXPECT_EQ(d[4], (cd{3, 0}));
}

TEST(Noise, FractionalDelayInterpolates) {
  const CVec x{cd{1, 0}, cd{1, 0}};
  const CVec d = fractional_delay(x, 0.5);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_NEAR(d[0].real(), 0.5, 1e-12);
  EXPECT_NEAR(d[1].real(), 1.0, 1e-12);
  EXPECT_NEAR(d[2].real(), 0.5, 1e-12);
}

TEST(Units, DbConversions) {
  EXPECT_NEAR(to_db(100.0), 20.0, 1e-12);
  EXPECT_NEAR(from_db(3.0), 1.9952623, 1e-6);
  EXPECT_NEAR(amplitude_db(10.0), 20.0, 1e-12);
  EXPECT_EQ(to_db(0.0), -300.0);
  EXPECT_NEAR(to_db(from_db(-17.3)), -17.3, 1e-12);
}

// ------------------------------------------------------------------- fir

TEST(Fir, WindowShapes) {
  const auto hann = make_window(Window::kHann, 9);
  EXPECT_NEAR(hann.front(), 0.0, 1e-12);
  EXPECT_NEAR(hann.back(), 0.0, 1e-12);
  EXPECT_NEAR(hann[4], 1.0, 1e-12);  // symmetric peak
  const auto rect = make_window(Window::kRect, 5);
  for (double v : rect) EXPECT_EQ(v, 1.0);
  const auto ham = make_window(Window::kHamming, 11);
  EXPECT_NEAR(ham.front(), 0.08, 1e-12);
}

TEST(Fir, LowpassPassesDcRejectsHigh) {
  const auto h = design_lowpass(0.1, 63);
  // DC gain 1.
  double dc = 0.0;
  for (double v : h) dc += v;
  EXPECT_NEAR(dc, 1.0, 1e-12);
  // Response at 0.4 cycles/sample should be heavily attenuated.
  cd high{0.0, 0.0};
  for (std::size_t i = 0; i < h.size(); ++i) {
    const double ph = -kTwoPi * 0.4 * static_cast<double>(i);
    high += h[i] * cd{std::cos(ph), std::sin(ph)};
  }
  EXPECT_LT(std::abs(high), 0.01);
}

TEST(Fir, FilterDelta) {
  const std::vector<double> taps{0.25, 0.5, 0.25};
  CVec x(5, cd{0.0, 0.0});
  x[2] = cd{4.0, 0.0};
  const CVec y = fir_filter(x, taps);
  ASSERT_EQ(y.size(), 7u);
  EXPECT_NEAR(y[2].real(), 1.0, 1e-12);
  EXPECT_NEAR(y[3].real(), 2.0, 1e-12);
  EXPECT_NEAR(y[4].real(), 1.0, 1e-12);
}

TEST(Fir, SameLengthCenters) {
  const std::vector<double> taps{0.0, 1.0, 0.0};  // pure pass-through
  Rng rng(30);
  CVec x(20);
  for (auto& v : x) v = cd{rng.normal(), rng.normal()};
  const CVec y = fir_filter_same(x, taps);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-12);
  }
}

TEST(Fir, DesignRejectsBadArgs) {
  EXPECT_THROW(design_lowpass(0.0, 21), InvalidArgument);
  EXPECT_THROW(design_lowpass(0.6, 21), InvalidArgument);
  EXPECT_THROW(design_lowpass(0.1, 20), InvalidArgument);  // even taps
  EXPECT_THROW(design_lowpass(0.1, 1), InvalidArgument);
}

}  // namespace
}  // namespace sa
