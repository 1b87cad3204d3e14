// Bit-identity of the per-frame kernels that run from precomputed
// tables — the steering manifold behind the MUSIC/Capon/Bartlett scans,
// the FFT plans, the one-pass subband split, the flat-plane Viterbi
// decoder and the peak search — and of the Schmidl-Cox detection
// kernels, against straightforward references kept here:
// per-grid-point steering_vector + quadratic_form, the inline twiddle
// recurrence, per-window fft_inplace, the per-step vector Viterbi, the
// modulo-wrapped peak walk, the per-position LTF search and the
// forward P/R chain. The PHY decode's header and DATA steps are checked
// against the one-call decode the same way. Every comparison is exact
// (EXPECT_EQ on doubles): the tables and loop orders may only save work,
// never change a bit of output.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>

#include "sa/aoa/covariance.hpp"
#include "sa/aoa/estimator.hpp"
#include "sa/aoa/estimators.hpp"
#include "sa/aoa/manifold.hpp"
#include "sa/aoa/spectral.hpp"
#include "sa/common/angles.hpp"
#include "sa/common/constants.hpp"
#include "sa/common/rng.hpp"
#include "sa/dsp/fft.hpp"
#include "sa/dsp/noise.hpp"
#include "sa/dsp/units.hpp"
#include "sa/linalg/eig.hpp"
#include "sa/linalg/lanes.hpp"
#include "sa/linalg/lu.hpp"
#include "sa/phy/convolutional.hpp"
#include "sa/phy/detector.hpp"
#include "sa/phy/ofdm.hpp"
#include "sa/phy/packet.hpp"
#include "sa/secure/accesspoint.hpp"

namespace sa {
namespace {

void expect_same(const CVec& a, const CVec& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].real(), b[i].real()) << "index " << i;
    EXPECT_EQ(a[i].imag(), b[i].imag()) << "index " << i;
  }
}

void expect_same(const CMat& a, const CMat& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  expect_same(a.data(), b.data());
}

void expect_same(const Pseudospectrum& a, const Pseudospectrum& b) {
  EXPECT_EQ(a.wraps(), b.wraps());
  EXPECT_EQ(a.angles_deg(), b.angles_deg());
  EXPECT_EQ(a.values(), b.values());
}

// ------------------------------------------------------------- spectra

/// Sample covariance of a few sources plus noise — a full-rank
/// Hermitian matrix with realistic structure.
CMat random_covariance(const ArrayGeometry& geom, double lambda, Rng& rng) {
  const std::size_t n = geom.size();
  CMat x(n, 64);
  const double bearings[] = {geom.scan_min_deg() + 37.0,
                             geom.scan_min_deg() + 101.0};
  for (std::size_t t = 0; t < x.cols(); ++t) {
    for (double b : bearings) {
      const CVec a = geom.steering_vector(b, lambda);
      const cd sym = rng.random_phasor();
      for (std::size_t m = 0; m < n; ++m) x(m, t) += a[m] * sym;
    }
    for (std::size_t m = 0; m < n; ++m) x(m, t) += rng.complex_normal(0.1);
  }
  return sample_covariance(x);
}

/// The per-grid-point reference scan: allocate each steering vector and
/// evaluate sa::quadratic_form on it.
template <class Value>
Pseudospectrum reference_scan(const ArrayGeometry& geom, double lambda,
                              double step, Value value) {
  const std::vector<double> grid = scan_grid(geom, step);
  std::vector<double> values(grid.size());
  for (std::size_t g = 0; g < grid.size(); ++g) {
    values[g] = value(geom.steering_vector(grid[g], lambda));
  }
  return Pseudospectrum(grid, std::move(values),
                        geom.kind() != ArrayKind::kLinear);
}

Pseudospectrum reference_music(const SpectralContext& ctx, std::size_t k,
                               double step) {
  const CMat& proj = ctx.noise_projector(k);
  return reference_scan(ctx.processed_geometry(), ctx.lambda_m(), step,
                        [&](const CVec& a) {
                          const double denom = quadratic_form(a, proj);
                          const double num = norm(a) * norm(a);
                          return num / std::max(denom, 1e-12 * num);
                        });
}

Pseudospectrum reference_capon(const CMat& rinv, const ArrayGeometry& geom,
                               double lambda, double step) {
  return reference_scan(geom, lambda, step, [&](const CVec& a) {
    return 1.0 / std::max(quadratic_form(a, rinv), 1e-30);
  });
}

Pseudospectrum reference_bartlett(const CMat& r, const ArrayGeometry& geom,
                                  double lambda, double step) {
  return reference_scan(geom, lambda, step, [&](const CVec& a) {
    return std::max(quadratic_form(a, r), 0.0) / (norm(a) * norm(a));
  });
}

struct SpectrumCase {
  const char* name;
  ArrayGeometry geom;
  SpectralOptions options;
};

std::vector<SpectrumCase> spectrum_cases() {
  const double half = kSpeedOfLight / 2.4e9 / 2.0;
  return {
      {"ula8-smooth5-fb", ArrayGeometry::uniform_linear(8, half), {true, 5}},
      {"ula6-fb", ArrayGeometry::uniform_linear(6, half), {true, 0}},
      {"ula4-plain", ArrayGeometry::uniform_linear(4, half), {false, 0}},
      {"uca5", ArrayGeometry::uniform_circular(5, 0.05), {true, 0}},
      {"octagon", ArrayGeometry::octagon(), {true, 0}},
      {"custom", ArrayGeometry::custom({{0.0, 0.0}, {0.041, 0.007},
                                        {-0.013, 0.052}, {0.029, -0.038}}),
       {false, 0}},
  };
}

TEST(ManifoldSpectra, BitIdenticalToPerPointSteering) {
  Rng rng(2024);
  const double lambdas[] = {kSpeedOfLight / 2.4e9, kSpeedOfLight / 2.39e9,
                            kSpeedOfLight / 5.2e9};
  const double steps[] = {1.0, 0.5, 2.5, 0.7};
  for (const SpectrumCase& c : spectrum_cases()) {
    for (double lambda : lambdas) {
      for (double step : steps) {
        SCOPED_TRACE(std::string(c.name) + " lambda=" + std::to_string(lambda) +
                     " step=" + std::to_string(step));
        const CMat r = random_covariance(c.geom, lambda, rng);
        AoaEstimatorConfig cfg;
        cfg.music.scan_step_deg = step;
        cfg.music.forward_backward = c.options.forward_backward;
        cfg.music.smoothing_subarray = c.options.smoothing_subarray;
        // The table an AccessPoint would build for this band.
        const SteeringManifold borrowed(scan_geometry(c.geom, c.options),
                                        lambda, step);
        for (AoaBackend backend : {AoaBackend::kMusic, AoaBackend::kCapon,
                                   AoaBackend::kBartlett}) {
          const auto est = make_aoa_estimator(backend, cfg);
          const SpectralContext with(r, c.geom, lambda, c.options, &borrowed);
          const SpectralContext without(r, c.geom, lambda, c.options);
          const MusicResult a = est->estimate(with);
          const MusicResult b = est->estimate(without);
          Pseudospectrum expected;
          if (backend == AoaBackend::kMusic) {
            expected = reference_music(without, b.num_sources, step);
            EXPECT_EQ(a.num_sources, b.num_sources);
          } else if (backend == AoaBackend::kCapon) {
            expected = reference_capon(without.inverse(cfg.capon_loading),
                                       c.geom, lambda, step);
          } else {
            expected = reference_bartlett(r, c.geom, lambda, step);
          }
          expect_same(a.spectrum, expected);
          expect_same(b.spectrum, expected);
        }
        // The free functions build their manifold on the spot.
        expect_same(bartlett_spectrum(r, c.geom, lambda, step),
                    reference_bartlett(r, c.geom, lambda, step));
        CMat loaded = r;
        diagonal_load_inplace(loaded, 1e-3);
        expect_same(capon_spectrum(r, c.geom, lambda, step, 1e-3),
                    reference_capon(*inverse(loaded), c.geom, lambda, step));
      }
    }
  }
}

TEST(ManifoldSpectra, MismatchedBorrowedManifoldIsNotUsed) {
  Rng rng(7);
  const ArrayGeometry geom = ArrayGeometry::octagon();
  const double lambda = kSpeedOfLight / 2.4e9;
  const CMat r = random_covariance(geom, lambda, rng);
  const MusicEstimator music;
  const SpectralContext plain(r, geom, lambda, music.spectral_options());
  const MusicResult expected = music.estimate(plain);
  // Wrong wavelength, wrong step, wrong geometry: each must be rejected
  // in favour of a table built for the context.
  const SteeringManifold wrong[] = {
      {geom, lambda * 1.01, 1.0},
      {geom, lambda, 2.0},
      {ArrayGeometry::uniform_circular(8, 0.06), lambda, 1.0},
  };
  for (const SteeringManifold& m : wrong) {
    EXPECT_FALSE(m.matches(geom, lambda, 1.0));
    const SpectralContext ctx(r, geom, lambda, music.spectral_options(), &m);
    expect_same(music.estimate(ctx).spectrum, expected.spectrum);
  }
  const SteeringManifold right(geom, lambda, 1.0);
  EXPECT_TRUE(right.matches(geom, lambda, 1.0));
  EXPECT_EQ(right.grid(), scan_grid(geom, 1.0));
  ASSERT_EQ(right.elements(), geom.size());
  for (std::size_t g = 0; g < right.size(); ++g) {
    const CVec a = geom.steering_vector(right.grid()[g], lambda);
    CVec row(right.elements());
    for (std::size_t j = 0; j < row.size(); ++j) row[j] = right.steering(g, j);
    expect_same(row, a);
    EXPECT_EQ(right.norm_sq(g), norm(a) * norm(a));
  }
}

// ----------------------------------------------------------------- FFT

/// The transform as written before the plans: swap-loop bit reversal,
/// twiddles from the w *= wlen recurrence inside the butterflies.
void reference_fft(CVec& x, bool inverse) {
  const std::size_t n = x.size();
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        (inverse ? kTwoPi : -kTwoPi) / static_cast<double>(len);
    const cd wlen{std::cos(angle), std::sin(angle)};
    for (std::size_t i = 0; i < n; i += len) {
      cd w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cd u = x[i + k];
        const cd v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (cd& v : x) v *= inv_n;
  }
}

CVec random_vec(std::size_t n, Rng& rng) {
  CVec x(n);
  for (cd& v : x) v = rng.complex_normal(1.0);
  return x;
}

TEST(FftPlans, BitIdenticalToRecurrence) {
  Rng rng(99);
  for (std::size_t n = 1; n <= 1024; n <<= 1) {
    for (int rep = 0; rep < 3; ++rep) {
      SCOPED_TRACE("n=" + std::to_string(n));
      const CVec x = random_vec(n, rng);
      CVec fwd = x, fwd_ref = x, inv = x, inv_ref = x;
      fft_inplace(fwd);
      reference_fft(fwd_ref, false);
      expect_same(fwd, fwd_ref);
      ifft_inplace(inv);
      reference_fft(inv_ref, true);
      expect_same(inv, inv_ref);
    }
  }
}

TEST(FftPlans, WindowedSplitMatchesPerWindowFft) {
  Rng rng(5);
  for (std::size_t k : {2u, 4u, 8u, 64u}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    const std::size_t count = 13;
    const CVec in = random_vec(k * count + 3, rng);  // trailing samples unread
    std::vector<CVec> out(k, CVec(count));
    std::vector<cd*> bins(k);
    for (std::size_t j = 0; j < k; ++j) bins[j] = out[j].data();
    fft_windows(in.data(), k, count, bins.data());
    for (std::size_t t = 0; t < count; ++t) {
      CVec window(in.begin() + static_cast<std::ptrdiff_t>(t * k),
                  in.begin() + static_cast<std::ptrdiff_t>((t + 1) * k));
      fft_inplace(window);
      for (std::size_t j = 0; j < k; ++j) {
        EXPECT_EQ(out[j][t].real(), window[j].real());
        EXPECT_EQ(out[j][t].imag(), window[j].imag());
      }
    }
  }
}

TEST(FftPlans, AccessPointSubbandSplitMatchesPerWindowFft) {
  for (std::size_t k : {2u, 4u, 8u, 64u}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    AccessPointConfig cfg;
    cfg.geometry = ArrayGeometry::uniform_circular(4, 0.06);
    cfg.subbands = k;
    Rng rng(31);
    const AccessPoint ap(cfg, rng);
    CMat conditioned(4, 900);
    for (std::size_t m = 0; m < conditioned.rows(); ++m) {
      for (std::size_t c = 0; c < conditioned.cols(); ++c) {
        conditioned(m, c) = rng.complex_normal(1.0);
      }
    }
    PacketDetection det;
    det.start = 37;
    const auto prep = ap.prepare(conditioned, det);
    ASSERT_TRUE(prep.has_value());
    ASSERT_FALSE(prep->header.has_value());  // noise: the fallback span
    ASSERT_EQ(prep->bands.size(), k);
    // The split as written before: copy each window, fft_inplace it,
    // scatter in fftshift order.
    const std::size_t span = kPreambleLen + kSymbolLen;
    const std::size_t n_win = span / k;
    std::vector<CMat> sub(k, CMat(conditioned.rows(), n_win));
    CVec window(k);
    for (std::size_t m = 0; m < conditioned.rows(); ++m) {
      for (std::size_t t = 0; t < n_win; ++t) {
        for (std::size_t i = 0; i < k; ++i) {
          window[i] = conditioned(m, det.start + t * k + i);
        }
        reference_fft(window, false);
        for (std::size_t b = 0; b < k; ++b) {
          sub[b](m, t) = window[(b + k / 2) % k];
        }
      }
    }
    for (std::size_t b = 0; b < k; ++b) {
      expect_same(prep->bands[b].covariance(), sample_covariance(sub[b]));
    }
  }
}

// ------------------------------------------------------------- Viterbi

std::uint8_t ref_parity7(unsigned x) {
  x &= 0x7F;
  x ^= x >> 4;
  x ^= x >> 2;
  x ^= x >> 1;
  return static_cast<std::uint8_t>(x & 1u);
}

bool ref_keep_bit(CodeRate rate, std::size_t coded_index) {
  constexpr std::array<bool, 6> k34 = {true, true, true, false, false, true};
  constexpr std::array<bool, 4> k23 = {true, true, true, false};
  switch (rate) {
    case CodeRate::kRate1_2: return true;
    case CodeRate::kRate2_3: return k23[coded_index % 4];
    case CodeRate::kRate3_4: return k34[coded_index % 6];
  }
  return true;
}

/// The decoder as written before the flat planes: source-major
/// add-compare-select with two vectors per trellis step.
Bits reference_viterbi(const Bits& coded, std::size_t n_out, CodeRate rate) {
  constexpr unsigned kStates = 64;
  std::vector<std::uint8_t> stream(2 * n_out, 0);
  std::vector<bool> known(2 * n_out, false);
  std::size_t src = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (ref_keep_bit(rate, i)) {
      stream[i] = coded[src++];
      known[i] = true;
    }
  }
  struct Branch {
    std::uint8_t out_a, out_b;
    unsigned next;
  };
  std::array<std::array<Branch, 2>, kStates> table{};
  for (unsigned s = 0; s < kStates; ++s) {
    for (unsigned b = 0; b < 2; ++b) {
      const unsigned reg = (b << 6) | s;
      table[s][b] = Branch{ref_parity7(reg & 0133), ref_parity7(reg & 0171),
                           (reg >> 1) & 0x3F};
    }
  }
  constexpr unsigned kInf = std::numeric_limits<unsigned>::max() / 4;
  std::vector<unsigned> metric(kStates, kInf);
  std::vector<unsigned> next_metric(kStates, kInf);
  metric[0] = 0;
  std::vector<std::vector<std::uint8_t>> survivor(
      n_out, std::vector<std::uint8_t>(kStates, 0));
  std::vector<std::vector<std::uint8_t>> prev_state(
      n_out, std::vector<std::uint8_t>(kStates, 0));
  for (std::size_t t = 0; t < n_out; ++t) {
    std::fill(next_metric.begin(), next_metric.end(), kInf);
    const std::uint8_t ra = stream[2 * t];
    const std::uint8_t rb = stream[2 * t + 1];
    const bool ka = known[2 * t];
    const bool kb = known[2 * t + 1];
    for (unsigned s = 0; s < kStates; ++s) {
      if (metric[s] >= kInf) continue;
      for (unsigned b = 0; b < 2; ++b) {
        const Branch& br = table[s][b];
        unsigned m = metric[s];
        if (ka && br.out_a != ra) ++m;
        if (kb && br.out_b != rb) ++m;
        if (m < next_metric[br.next]) {
          next_metric[br.next] = m;
          prev_state[t][br.next] = static_cast<std::uint8_t>(s);
          survivor[t][br.next] = static_cast<std::uint8_t>(b);
        }
      }
    }
    metric.swap(next_metric);
  }
  unsigned best = 0;
  for (unsigned s = 1; s < kStates; ++s) {
    if (metric[s] < metric[best]) best = s;
  }
  Bits out(n_out);
  unsigned s = best;
  for (std::size_t t = n_out; t-- > 0;) {
    out[t] = survivor[t][s];
    s = prev_state[t][s];
  }
  return out;
}

TEST(FlatViterbi, BitIdenticalToPerStepDecoder) {
  Rng rng(1234);
  std::size_t decoded = 0;
  for (CodeRate rate :
       {CodeRate::kRate1_2, CodeRate::kRate2_3, CodeRate::kRate3_4}) {
    for (std::size_t n : {6u, 24u, 96u, 846u}) {
      for (double ber : {0.0, 0.02, 0.08, 0.5}) {
        for (bool tail : {true, false}) {
          SCOPED_TRACE("n=" + std::to_string(n) +
                       " ber=" + std::to_string(ber) +
                       " tail=" + std::to_string(tail));
          // With the 802.11 tail the encoder ends in state 0; without it
          // (a truncated stream) the traceback starts from the best of
          // all final states.
          Bits bits(n);
          for (auto& b : bits) {
            b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
          }
          if (tail) std::fill(bits.end() - 6, bits.end(), 0);
          Bits coded = convolutional_encode(bits, rate);
          for (auto& c : coded) {
            if (rng.uniform() < ber) c ^= 1u;
          }
          EXPECT_EQ(viterbi_decode(coded, n, rate),
                    reference_viterbi(coded, n, rate));
          ++decoded;
        }
      }
    }
  }
  EXPECT_EQ(decoded, 96u);
}

// ---------------------------------------------------------- PHY decode

/// decode(s) against decode_header(s) then decode_data: the same packet
/// field for field, or nullopt on both sides. decode_data also runs on
/// the header's own span alone — the copy an AccessPoint keeps pending.
void expect_split_decode_matches(const CVec& s) {
  const PacketReceiver rx;
  const auto whole = rx.decode(s);
  const auto header = rx.decode_header(s);
  if (!header) {
    EXPECT_FALSE(whole.has_value());
    return;
  }
  ASSERT_LE(header->samples_needed, s.size());
  const CVec span(s.begin(),
                  s.begin() + static_cast<std::ptrdiff_t>(header->samples_needed));
  for (const CVec* input : {&s, &span}) {
    const auto split = rx.decode_data(*input, *header);
    ASSERT_EQ(split.has_value(), whole.has_value());
    if (!whole) continue;
    EXPECT_EQ(split->psdu, whole->psdu);
    EXPECT_EQ(split->rate, whole->rate);
    EXPECT_EQ(split->length, whole->length);
    EXPECT_EQ(split->evm_rms, whole->evm_rms);
    EXPECT_EQ(split->samples_consumed, whole->samples_consumed);
  }
  if (whole) {
    EXPECT_EQ(header->rate, whole->rate);
    EXPECT_EQ(header->length, whole->length);
    EXPECT_EQ(header->samples_needed, whole->samples_consumed);
  }
}

Bytes random_psdu(std::size_t n, Rng& rng) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

constexpr PhyRate kAllRates[] = {
    PhyRate::k6Mbps,  PhyRate::k9Mbps,  PhyRate::k12Mbps, PhyRate::k18Mbps,
    PhyRate::k24Mbps, PhyRate::k36Mbps, PhyRate::k48Mbps, PhyRate::k54Mbps};

TEST(SplitDecode, HeaderThenDataEqualsDecodeAtEveryRate) {
  // Clean, then noisier down to -8 dB, where the SIGNAL field fails.
  Rng rng(2024);
  std::size_t decoded = 0, header_failed = 0;
  for (PhyRate rate : kAllRates) {
    SCOPED_TRACE("rate=" + std::to_string(static_cast<int>(rate)));
    const CVec clean = PacketTransmitter(rate).transmit(random_psdu(40, rng));
    expect_split_decode_matches(clean);
    for (double snr_db : {30.0, 12.0, 4.0, -8.0}) {
      SCOPED_TRACE("snr=" + std::to_string(snr_db));
      CVec s = clean;
      add_awgn_snr(s, snr_db, rng);
      expect_split_decode_matches(s);
      if (PacketReceiver().decode(s)) ++decoded;
      if (!PacketReceiver().decode_header(s)) ++header_failed;
    }
  }
  EXPECT_GE(decoded, 8u);  // every 30 dB input decodes
  EXPECT_GT(header_failed, 0u);
}

TEST(SplitDecode, EveryTruncationUpToTheSignalSpan) {
  // From one sample short of preamble + SIGNAL up to the span the SIGNAL
  // field asks for: the header fails until the whole span is there, and
  // the split agrees with decode() at every length.
  Rng rng(2025);
  for (PhyRate rate : kAllRates) {
    SCOPED_TRACE("rate=" + std::to_string(static_cast<int>(rate)));
    const PacketTransmitter tx(rate);
    const CVec wave = tx.transmit(random_psdu(40, rng));
    const std::size_t need = kPreambleLen + kSymbolLen * (1 + tx.num_data_symbols(40));
    ASSERT_EQ(need, wave.size());
    for (std::size_t len = kPreambleLen + kSymbolLen - 1; len <= need; ++len) {
      const CVec cut(wave.begin(), wave.begin() + static_cast<std::ptrdiff_t>(len));
      ASSERT_EQ(PacketReceiver().decode_header(cut).has_value(), len == need)
          << "len=" << len;
      expect_split_decode_matches(cut);
    }
  }
}

TEST(SplitDecode, ZeroScramblerStateFailsOnlyTheDataStep) {
  // A valid preamble and SIGNAL field over noise DATA symbols: at the
  // first seed whose descrambled SERVICE bits give scrambler state 0,
  // the header decodes and the DATA step fails, exactly as decode() does.
  Rng psdu_rng(2026);
  const CVec wave =
      PacketTransmitter(PhyRate::k6Mbps).transmit(random_psdu(40, psdu_rng));
  const double power = mean_power(wave);
  const PacketReceiver rx;
  std::optional<std::uint64_t> found;
  for (std::uint64_t seed = 1; seed <= 4096 && !found; ++seed) {
    Rng rng(seed);
    CVec s = wave;
    for (std::size_t i = kPreambleLen + kSymbolLen; i < s.size(); ++i) {
      s[i] = rng.complex_normal(power);
    }
    const auto header = rx.decode_header(s);
    ASSERT_TRUE(header.has_value());
    if (rx.decode_data(s, *header)) continue;
    found = seed;
    EXPECT_FALSE(rx.decode(s).has_value());
    expect_split_decode_matches(s);
  }
  ASSERT_TRUE(found.has_value());
}

// --------------------------------------------------------- peak search

/// find_peaks as written before: ((i % n) + n) % n on every step.
std::vector<SpectrumPeak> reference_find_peaks(const Pseudospectrum& spec,
                                               double min_prominence_db,
                                               double min_separation_deg) {
  const std::vector<double>& values = spec.values();
  const std::vector<double>& angles = spec.angles_deg();
  const bool wraps = spec.wraps();
  const std::size_t n = values.size();
  const double peak_val = spec.max_value();
  if (peak_val <= 0.0) return {};
  auto at = [&](std::ptrdiff_t i) -> double {
    if (wraps) {
      const auto m = static_cast<std::ptrdiff_t>(n);
      return values[static_cast<std::size_t>(((i % m) + m) % m)];
    }
    if (i < 0 || i >= static_cast<std::ptrdiff_t>(n)) return -1.0;
    return values[static_cast<std::size_t>(i)];
  };
  std::vector<SpectrumPeak> peaks;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = values[i];
    const auto si = static_cast<std::ptrdiff_t>(i);
    if (!(v > at(si - 1) && v >= at(si + 1))) continue;
    auto walk = [&](int dir) -> double {
      double valley = v;
      for (std::size_t s = 1; s < n; ++s) {
        const double w = at(si + dir * static_cast<std::ptrdiff_t>(s));
        if (w < 0.0) break;
        valley = std::min(valley, w);
        if (w > v) return valley;
      }
      return valley;
    };
    const double valley = std::max(walk(-1), walk(+1));
    const double prom_db = to_db(v / std::max(valley, 1e-30));
    if (prom_db < min_prominence_db) continue;
    SpectrumPeak p;
    p.angle_deg = angles[i];
    p.value = v;
    p.value_db = to_db(v / peak_val);
    p.prominence_db = prom_db;
    peaks.push_back(p);
  }
  std::sort(peaks.begin(), peaks.end(),
            [](const SpectrumPeak& a, const SpectrumPeak& b) {
              return a.value > b.value;
            });
  std::vector<SpectrumPeak> out;
  for (const auto& p : peaks) {
    bool keep = true;
    for (const auto& q : out) {
      const double d = wraps ? angular_distance_deg(p.angle_deg, q.angle_deg)
                             : std::abs(p.angle_deg - q.angle_deg);
      if (d < min_separation_deg) {
        keep = false;
        break;
      }
    }
    if (keep) out.push_back(p);
  }
  return out;
}

double reference_refined_max(const Pseudospectrum& spec) {
  const std::vector<double>& values = spec.values();
  const auto it = std::max_element(values.begin(), values.end());
  const auto i = static_cast<std::size_t>(it - values.begin());
  const auto si = static_cast<std::ptrdiff_t>(i);
  const std::size_t n = values.size();
  auto at = [&](std::ptrdiff_t k) -> double {
    if (spec.wraps()) {
      const auto m = static_cast<std::ptrdiff_t>(n);
      return values[static_cast<std::size_t>(((k % m) + m) % m)];
    }
    if (k < 0 || k >= static_cast<std::ptrdiff_t>(n)) return values[i];
    return values[static_cast<std::size_t>(k)];
  };
  const double y0 = at(si - 1), y1 = at(si), y2 = at(si + 1);
  const double denom = y0 - 2.0 * y1 + y2;
  double offset = 0.0;
  if (std::abs(denom) > 1e-30) {
    offset = 0.5 * (y0 - y2) / denom;
    offset = std::clamp(offset, -1.0, 1.0);
  }
  double angle = spec.angles_deg()[i] + offset * spec.step_deg();
  if (spec.wraps()) angle = wrap_deg360(angle);
  return angle;
}

std::vector<Pseudospectrum> peak_cases() {
  std::vector<Pseudospectrum> out;
  Rng rng(77);
  for (bool wraps : {true, false}) {
    const double lo = wraps ? 0.0 : -90.0;
    const std::size_t n = wraps ? 360 : 181;
    std::vector<double> angles(n);
    for (std::size_t i = 0; i < n; ++i) angles[i] = lo + static_cast<double>(i);
    auto add = [&](std::vector<double> v) {
      out.emplace_back(angles, std::move(v), wraps);
    };
    std::vector<double> v(n);
    // Smooth random multi-peak spectra.
    for (int rep = 0; rep < 4; ++rep) {
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = 1.0 + 0.8 * std::sin(0.07 * static_cast<double>(i) * (rep + 1)) +
               0.3 * rng.uniform();
      }
      add(v);
    }
    // Plateaus and exact ties: coarse quantization of a random walk.
    for (int rep = 0; rep < 4; ++rep) {
      double level = 5.0;
      for (std::size_t i = 0; i < n; ++i) {
        level = std::max(0.0, level + rng.uniform(-1.0, 1.0));
        v[i] = std::floor(level);
      }
      add(v);
    }
    // Peaks at both ends (the wrap seam), two equal maxima, a flat
    // spectrum and an all-zero one.
    std::fill(v.begin(), v.end(), 1.0);
    v.front() = 9.0;
    v.back() = 8.0;
    v[n / 2] = 9.0;
    add(v);
    std::fill(v.begin(), v.end(), 1.0);
    v[1] = 4.0;
    v[n - 2] = 4.0;
    v[0] = 3.0;
    add(v);
    std::fill(v.begin(), v.end(), 2.0);
    add(v);
    std::fill(v.begin(), v.end(), 0.0);
    add(v);
  }
  return out;
}

TEST(PeakSearch, ConditionalWrapMatchesModuloWalk) {
  std::size_t peaks_seen = 0;
  for (const Pseudospectrum& spec : peak_cases()) {
    SCOPED_TRACE("wraps=" + std::to_string(spec.wraps()));
    for (double prom : {0.0, 1.0, 3.0}) {
      for (double sep : {0.0, 5.0, 20.0}) {
        const auto got = spec.find_peaks(prom, sep);
        const auto want = reference_find_peaks(spec, prom, sep);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].angle_deg, want[i].angle_deg);
          EXPECT_EQ(got[i].value, want[i].value);
          EXPECT_EQ(got[i].value_db, want[i].value_db);
          EXPECT_EQ(got[i].prominence_db, want[i].prominence_db);
        }
        peaks_seen += got.size();
      }
    }
    EXPECT_EQ(spec.refined_max_angle_deg(), reference_refined_max(spec));
  }
  EXPECT_GT(peaks_seen, 100u);
}

// --------------------------------------------------------- Schmidl-Cox

/// The per-position LTF search the detector ran before the transposed
/// kernel: one complex accumulation chain per candidate position.
LtfPeak reference_fine_search(const CVec& x, std::size_t begin,
                              std::size_t end, const CVec& ltf,
                              std::vector<double>& corr) {
  const double ltf_energy = energy(ltf);
  LtfPeak out;
  out.best_pos = begin;
  corr.assign(end - begin - kFftSize + 1, 0.0);
  for (std::size_t pos = begin; pos + kFftSize <= end; ++pos) {
    cd acc{0.0, 0.0};
    for (std::size_t i = 0; i < kFftSize; ++i) {
      acc += std::conj(ltf[i]) * x[pos + i];
    }
    double win_e = 0.0;
    for (std::size_t i = 0; i < kFftSize; ++i) win_e += std::norm(x[pos + i]);
    const double c =
        (win_e > 1e-30) ? std::norm(acc) / (ltf_energy * win_e) : 0.0;
    corr[pos - begin] = c;
    if (c > out.best_val) {
      out.best_val = c;
      out.best_pos = pos;
    }
  }
  out.period1 = out.best_pos;
  if (out.best_pos >= begin + kFftSize) {
    const double prev = corr[out.best_pos - begin - kFftSize];
    if (prev > 0.8 * out.best_val) out.period1 = out.best_pos - kFftSize;
  }
  return out;
}

/// Noise with two-period LTFs embedded at `at`; `first_noise` adds extra
/// noise to the first period only, so the second one correlates best.
CVec ltf_stream(std::size_t n, const std::vector<std::size_t>& at,
                double first_noise, Rng& rng) {
  CVec x(n);
  for (cd& v : x) v = rng.complex_normal(0.05);
  const CVec ltf = ltf_period();
  for (std::size_t p : at) {
    for (std::size_t i = 0; i < 2 * kFftSize && p + i < n; ++i) {
      x[p + i] += ltf[i % kFftSize];
      if (i < kFftSize) x[p + i] += rng.complex_normal(first_noise);
    }
  }
  return x;
}

TEST(LtfFineSearch, TransposedBitIdenticalToPerPositionLoop) {
  Rng rng(61);
  const CVec ltf = ltf_period();
  LtfFineSearch search(ltf);  // one instance: scratch reused, dirty
  std::vector<double> want_corr;
  std::size_t cases = 0, second_period_cases = 0;
  auto check = [&](const CVec& x, std::size_t begin, std::size_t end) {
    SCOPED_TRACE(testing::Message() << "span [" << begin << ", " << end
                                    << ") of " << x.size());
    const LtfPeak want = reference_fine_search(x, begin, end, ltf, want_corr);
    const LtfPeak got = search.run(x.data(), begin, end);
    EXPECT_EQ(search.corr(), want_corr);
    EXPECT_EQ(got.best_val, want.best_val);
    EXPECT_EQ(got.best_pos, want.best_pos);
    EXPECT_EQ(got.period1, want.period1);
    ++cases;
    if (want.period1 != want.best_pos) ++second_period_cases;
  };

  // Random spans over noise with embedded LTFs, full and short spans.
  const CVec x = ltf_stream(3000, {300, 1100, 2000}, 0.3, rng);
  for (std::size_t begin : {0u, 17u, 250u, 301u, 1050u, 1990u, 2400u}) {
    for (std::size_t span : {65u, 130u, 200u, 480u}) {
      check(x, begin, begin + span);
    }
  }
  // Spans clipped at the window end.
  for (std::size_t begin : {2600u, 2800u, 2900u, 2935u}) {
    check(x, begin, std::min<std::size_t>(x.size(), begin + 480));
  }
  // Exact ties: a perfectly 64-periodic signal correlates identically at
  // pos and pos + 64, so the first maximum must win.
  CVec periodic(600);
  for (std::size_t t = 0; t < periodic.size(); ++t) {
    periodic[t] = ltf[t % kFftSize];
  }
  for (std::size_t begin : {0u, 5u, 64u, 100u}) check(periodic, begin, begin + 480);
  // Zero-energy windows: every position correlates 0, the peak stays at
  // `begin`.
  const CVec zeros(700, cd{0.0, 0.0});
  check(zeros, 0, 480);
  check(zeros, 123, 700);
  // Zero energy in part of the span only.
  CVec half = ltf_stream(900, {600}, 0.0, rng);
  for (std::size_t t = 0; t < 400; ++t) half[t] = cd{0.0, 0.0};
  check(half, 200, 680);
  // Second-period disambiguation: the first period is noisier, so the
  // peak lands on the second one and the first is chosen from corr.
  const CVec second = ltf_stream(1200, {400}, 0.1, rng);
  check(second, 380, 860);

  EXPECT_EQ(cases, 40u);
  EXPECT_GT(second_period_cases, 0u);
}

/// The forward coarse chain the detector used before the anchors: direct
/// sums at window position 0, then the running update across the window.
void reference_coarse_chain(const cd* x, std::size_t n_out,
                            std::vector<cd>& p, std::vector<double>& r) {
  p.assign(n_out, cd{0.0, 0.0});
  r.assign(n_out, 0.0);
  cd pk{0.0, 0.0};
  for (std::size_t i = 0; i < kScWindow; ++i) {
    pk += std::conj(x[i]) * x[i + kScLag];
  }
  p[0] = pk;
  for (std::size_t k = 1; k < n_out; ++k) {
    pk -= std::conj(x[k - 1]) * x[k - 1 + kScLag];
    pk += std::conj(x[k + kScWindow - 1]) * x[k + kScWindow - 1 + kScLag];
    p[k] = pk;
  }
  double e = 0.0;
  for (std::size_t i = 0; i < kScWindow; ++i) e += std::norm(x[kScLag + i]);
  r[0] = e;
  for (std::size_t k = 1; k < n_out; ++k) {
    e -= std::norm(x[kScLag + k - 1]);
    e += std::norm(x[kScLag + k + kScWindow - 1]);
    r[k] = e;
  }
}

/// Anchored coarse terms of the window x[origin, x.size()), stored at
/// their absolute index (the ring is as large as the stream).
struct CoarseTerms {
  std::vector<cd> p;
  std::vector<double> r, m;
};
CoarseTerms anchored_terms(const CVec& x, std::size_t origin,
                           std::size_t split = 0) {
  const std::size_t end = x.size() - kScLag - kScWindow + 1;
  const std::size_t mask = std::bit_ceil(x.size()) - 1;
  CoarseTerms t{std::vector<cd>(mask + 1), std::vector<double>(mask + 1),
                std::vector<double>(mask + 1)};
  // `split` computes the window in two calls, the second continuing from
  // the first's last position — as the streaming cache does.
  const std::size_t mid = split == 0 ? end : origin + split;
  schmidl_cox_coarse(x.data() + origin, origin, origin, mid, mask, t.p.data(),
                     t.r.data(), t.m.data());
  schmidl_cox_coarse(x.data() + origin, origin, mid, end, mask, t.p.data(),
                     t.r.data(), t.m.data());
  return t;
}

TEST(SchmidlCoxCoarse, AnchoredTermsIndependentOfOrigin) {
  // Past the window's first anchor every term depends only on its
  // absolute position: windows with different origins agree exactly.
  Rng rng(62);
  const CVec x = ltf_stream(2100, {500, 1300}, 0.1, rng);
  const std::size_t end = x.size() - kScLag - kScWindow + 1;
  const CoarseTerms ref = anchored_terms(x, 0);
  std::size_t compared = 0;
  for (std::size_t origin : {1u, 37u, 255u, 256u, 300u, 700u, 1025u}) {
    SCOPED_TRACE(testing::Message() << "origin " << origin);
    const std::size_t first_anchor = (origin + kScAnchor - 1) / kScAnchor *
                                     kScAnchor;
    for (std::size_t split : {0u, 1u, 100u, 333u}) {
      const CoarseTerms t = anchored_terms(x, origin, split);
      for (std::size_t j = first_anchor; j < end; ++j) {
        ASSERT_EQ(t.p[j], ref.p[j]) << "position " << j;
        ASSERT_EQ(t.r[j], ref.r[j]) << "position " << j;
        ASSERT_EQ(t.m[j], ref.m[j]) << "position " << j;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 20000u);
}

TEST(SchmidlCoxCoarse, EveryPositionIsTheForwardChainFromItsAnchor) {
  // The head [origin, first anchor) chains from the origin; every later
  // position chains from the multiple of kScAnchor at or below it. Each
  // equals the pre-anchor forward chain started there, and M is
  // |P|^2 / R^2.
  Rng rng(63);
  const CVec x = ltf_stream(1800, {400}, 0.1, rng);
  const std::size_t end = x.size() - kScLag - kScWindow + 1;
  std::vector<cd> chain_p;
  std::vector<double> chain_r;
  for (std::size_t origin : {0u, 3u, 200u, 256u, 511u}) {
    SCOPED_TRACE(testing::Message() << "origin " << origin);
    const CoarseTerms t = anchored_terms(x, origin);
    std::size_t anchor = origin;
    while (anchor < end) {
      const std::size_t seg_end =
          std::min(end, anchor - anchor % kScAnchor + kScAnchor);
      reference_coarse_chain(x.data() + anchor, seg_end - anchor, chain_p,
                             chain_r);
      for (std::size_t j = anchor; j < seg_end; ++j) {
        ASSERT_EQ(t.p[j], chain_p[j - anchor]) << "position " << j;
        ASSERT_EQ(t.r[j], chain_r[j - anchor]) << "position " << j;
        const double r = chain_r[j - anchor];
        const double m = r > 1e-30 ? std::norm(chain_p[j - anchor]) / (r * r)
                                   : 0.0;
        ASSERT_EQ(t.m[j], m) << "position " << j;
      }
      anchor = seg_end;
    }
  }
}

// ------------------------------------------- vectorized AoA kernels
//
// The covariance, the whole-grid quadratic form and the Jacobi EVD run
// many independent accumulators side by side across SIMD lanes. The
// oracles below are verbatim copies of the loops they replaced, and the
// outputs are compared byte for byte (memcmp), NaN payloads included.

/// The covariance loop as it stood before the lane kernel.
void oracle_covariance_core(const CMat& samples, std::size_t col_begin,
                            std::size_t col_end, CMat& r) {
  SA_EXPECTS(samples.rows() >= 1);
  SA_EXPECTS(col_begin < col_end && col_end <= samples.cols());
  const std::size_t n = samples.rows();
  const std::size_t t_len = col_end - col_begin;
  const std::size_t stride = samples.cols();
  const cd* data = samples.raw();
  r.resize(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const cd* si = data + i * stride;
    for (std::size_t j = i; j < n; ++j) {
      const cd* sj = data + j * stride;
      cd acc{0.0, 0.0};
      for (std::size_t t = col_begin; t < col_end; ++t) {
        acc += si[t] * std::conj(sj[t]);
      }
      acc /= static_cast<double>(t_len);
      r(i, j) = acc;
      r(j, i) = std::conj(acc);
    }
  }
}

/// SteeringManifold::quadratic_form as it stood before the grid scan,
/// over a steering vector `a` (the per-point AoS row).
double oracle_quadratic_form(const cd* a, const CMat& m) {
  const std::size_t n = m.rows();
  const cd* p = m.raw();
  cd acc{0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    cd s{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) s += p[i * n + j] * a[j];
    acc += std::conj(a[i]) * s;
  }
  return acc.real();
}

/// jacobi_eigh_real as it stood before the transposed-V layout.
RealEigResult oracle_jacobi_eigh_real(const std::vector<double>& m,
                                      std::size_t n, int max_sweeps = 64,
                                      double tol = 1e-13) {
  SA_EXPECTS(m.size() == n * n);
  std::vector<double> a = m;
  std::vector<double> v(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) v[i * n + i] = 1.0;

  auto A = [&](std::size_t r, std::size_t c) -> double& { return a[r * n + c]; };
  auto V = [&](std::size_t r, std::size_t c) -> double& { return v[r * n + c]; };

  double fro = 0.0;
  for (double x : a) fro += x * x;
  const double thresh = tol * (1.0 + std::sqrt(fro));

  bool converged = (n <= 1);
  for (int sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        off = std::max(off, std::abs(A(p, q)));
      }
    }
    if (off <= thresh) {
      converged = true;
      break;
    }
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = A(p, q);
        if (std::abs(apq) <= thresh * 1e-3) continue;
        const double app = A(p, p);
        const double aqq = A(q, q);
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0.0)
                             ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                             : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = A(k, p);
          const double akq = A(k, q);
          A(k, p) = c * akp - s * akq;
          A(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = A(p, k);
          const double aqk = A(q, k);
          A(p, k) = c * apk - s * aqk;
          A(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = V(k, p);
          const double vkq = V(k, q);
          V(k, p) = c * vkp - s * vkq;
          V(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  if (!converged) {
    double off = 0.0;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        off = std::max(off, std::abs(A(p, q)));
      }
    }
    if (off > thresh * 100.0) {
      throw NumericalError("jacobi_eigh_real: did not converge");
    }
  }

  RealEigResult res;
  res.n = n;
  res.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) res.values[i] = A(i, i);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return res.values[x] < res.values[y];
  });
  std::vector<double> sorted_vals(n);
  std::vector<double> sorted_vecs(n * n);
  for (std::size_t k = 0; k < n; ++k) {
    sorted_vals[k] = res.values[order[k]];
    for (std::size_t r = 0; r < n; ++r) {
      sorted_vecs[k * n + r] = V(r, order[k]);
    }
  }
  res.values = std::move(sorted_vals);
  res.vectors = std::move(sorted_vecs);
  return res;
}

template <class T>
bool same_bytes(const T* a, const T* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(T)) == 0;
}

/// The first differing double, with its bits, for failure messages.
template <class T>
std::string first_difference(const T* a, const T* b, std::size_t n) {
  const auto* da = reinterpret_cast<const double*>(a);
  const auto* db = reinterpret_cast<const double*>(b);
  for (std::size_t k = 0; k < n * sizeof(T) / sizeof(double); ++k) {
    const auto ua = std::bit_cast<std::uint64_t>(da[k]);
    const auto ub = std::bit_cast<std::uint64_t>(db[k]);
    if (ua != ub) {
      std::ostringstream out;
      out << "double " << k << ": " << da[k] << " (0x" << std::hex << ua
          << ") vs " << db[k] << " (0x" << ub << ")";
      return out.str();
    }
  }
  return "none";
}

const double kPosInf = std::numeric_limits<double>::infinity();
const double kQuietNaN = std::numeric_limits<double>::quiet_NaN();
const double kSubnormal = std::numeric_limits<double>::denorm_min();

/// M x T samples, complex Gaussian, with the special values `specials`
/// scattered over (antenna, sample, re/im) positions drawn from `rng`.
CMat samples_with(std::size_t m, std::size_t t,
                  const std::vector<double>& specials, Rng& rng) {
  CMat x(m, t);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < t; ++k) x(i, k) = rng.complex_normal(1.0);
  }
  for (double v : specials) {
    const std::size_t i = rng.uniform_int(0, static_cast<int>(m) - 1);
    const std::size_t k = rng.uniform_int(0, static_cast<int>(t) - 1);
    cd& z = x(i, k);
    z = rng.uniform() < 0.5 ? cd{v, z.imag()} : cd{z.real(), v};
  }
  return x;
}

TEST(LaneKernels, CovarianceBitIdenticalToComplexChain) {
  Rng rng(2401);
  const std::vector<std::vector<double>> special_sets = {
      {},
      {0.0, -0.0, -0.0, 0.0, -0.0},
      {kSubnormal, -kSubnormal, 2.2e-310, -4.4e-320, 1e-300},
      {5.0e133, -2.8e186},                // finite, products overflow
      {kPosInf},
      {-kPosInf, 1.0},
      {kQuietNaN},
      {-kQuietNaN, kPosInf, 2.6e196},
  };
  for (std::size_t m : {1, 2, 3, 4, 5, 7, 8}) {
    // Spans that are not a multiple of any t-block, plus one sample.
    for (auto [t0, t1] : std::vector<std::pair<std::size_t, std::size_t>>{
             {0, 1}, {3, 20}, {1, 1000}, {0, 1471}}) {
      for (std::size_t s = 0; s < special_sets.size(); ++s) {
        SCOPED_TRACE(testing::Message() << "M=" << m << " span [" << t0 << ", "
                                        << t1 << ") specials #" << s);
        const CMat x = samples_with(m, 1500, special_sets[s], rng);
        CMat expected;
        oracle_covariance_core(x, t0, t1, expected);
        const CMat got = sample_covariance_cols(x, t0, t1);
        ASSERT_EQ(got.rows(), m);
        EXPECT_TRUE(same_bytes(got.raw(), expected.raw(), m * m))
            << first_difference(got.raw(), expected.raw(), m * m);
        if (t0 == 0 && t1 == x.cols()) {
          CMat scratch(3, 3);
          sample_covariance_into(x, scratch);
          EXPECT_TRUE(same_bytes(scratch.raw(), expected.raw(), m * m));
        }
      }
    }
  }
}

TEST(LaneKernels, CovarianceSumsStartFromPositiveZero) {
  // Every term of entry (0, 1) is -0.0 + -0.0: the old chain's first
  // step 0.0 + (-0.0) gives +0.0, and so must the lanes.
  CMat x(3, 5);
  for (std::size_t t = 0; t < x.cols(); ++t) {
    x(0, t) = cd{-0.0, -0.0};
    x(1, t) = cd{1.0, 1.0};
    x(2, t) = cd{-0.0, 0.0};
  }
  for (std::size_t t1 : {1, 2, 5}) {
    CMat expected;
    oracle_covariance_core(x, 0, t1, expected);
    const CMat got = sample_covariance_cols(x, 0, t1);
    EXPECT_FALSE(std::signbit(got(0, 1).real()));
    EXPECT_TRUE(same_bytes(got.raw(), expected.raw(), 9))
        << first_difference(got.raw(), expected.raw(), 9);
  }
}

TEST(LaneKernels, GridScanBitIdenticalToPerPointForm) {
  Rng rng(2402);
  const double lambda = kSpeedOfLight / 2.4e9;
  const ArrayGeometry geoms[] = {
      ArrayGeometry::uniform_linear(4, lambda / 2.0),
      ArrayGeometry::uniform_linear(7, lambda / 2.0),
      ArrayGeometry::uniform_circular(5, 0.05),
      ArrayGeometry::octagon(),
  };
  for (const ArrayGeometry& geom : geoms) {
    const std::size_t n = geom.size();
    // A Hermitian matrix with realistic structure, then copies laced
    // with signed zeros, subnormals, overflow-size entries, Inf and NaN.
    const CMat r = random_covariance(geom, lambda, rng);
    std::vector<CMat> mats = {r, CMat(n, n)};
    const std::vector<cd> specials = {
        {-0.0, 0.0},  {kSubnormal, -kSubnormal}, {1e300, -1e300},
        {kPosInf, 0.0}, {0.0, -kPosInf},          {kQuietNaN, 1.0},
        {-kQuietNaN, kQuietNaN}};
    for (const cd& v : specials) {
      CMat m = r;
      m(n - 1, 0) = v;
      m(0, n / 2) = std::conj(v);
      mats.push_back(m);
    }
    for (double step : {1.0, 0.7}) {
      // 0.7 degree grids (258 and 515 points) end mid scan block.
      const SteeringManifold manifold(geom, lambda, step);
      for (std::size_t k = 0; k < mats.size(); ++k) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " step " << step
                                        << " matrix #" << k);
        std::vector<double> expected(manifold.size());
        for (std::size_t g = 0; g < manifold.size(); ++g) {
          const CVec a = geom.steering_vector(manifold.grid()[g], lambda);
          expected[g] = oracle_quadratic_form(a.data(), mats[k]);
        }
        std::vector<double> got(manifold.size());
        manifold.quadratic_forms(mats[k], got.data());
        EXPECT_TRUE(same_bytes(got.data(), expected.data(), got.size()))
            << first_difference(got.data(), expected.data(), got.size());
      }
    }
  }
}

/// Row-major 2n x 2n real embedding [[B, -C], [C, B]] of A = B + iC.
std::vector<double> real_embedding(const CMat& a) {
  const std::size_t n = a.rows();
  const std::size_t n2 = 2 * n;
  std::vector<double> m(n2 * n2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      m[i * n2 + j] = a(i, j).real();
      m[i * n2 + j + n] = -a(i, j).imag();
      m[(i + n) * n2 + j] = a(i, j).imag();
      m[(i + n) * n2 + j + n] = a(i, j).real();
    }
  }
  return m;
}

void expect_same_eig(const std::vector<double>& m, std::size_t n,
                     int max_sweeps = 64) {
  std::optional<RealEigResult> expected;
  std::optional<RealEigResult> got;
  try {
    expected = oracle_jacobi_eigh_real(m, n, max_sweeps);
  } catch (const NumericalError&) {
  }
  try {
    got = jacobi_eigh_real(m, n, max_sweeps);
  } catch (const NumericalError&) {
  }
  ASSERT_EQ(got.has_value(), expected.has_value());
  if (!got) return;
  EXPECT_EQ(got->n, n);
  ASSERT_EQ(got->values.size(), n);
  ASSERT_EQ(got->vectors.size(), n * n);
  EXPECT_TRUE(same_bytes(got->values.data(), expected->values.data(), n))
      << first_difference(got->values.data(), expected->values.data(), n);
  EXPECT_TRUE(same_bytes(got->vectors.data(), expected->vectors.data(), n * n))
      << first_difference(got->vectors.data(), expected->vectors.data(),
                          n * n);
}

TEST(LaneKernels, JacobiBitIdenticalToRowMajorV) {
  Rng rng(2403);
  // Random symmetric, n = 2..16 (stack storage) and past it (heap).
  for (std::size_t n : {2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                        17, 24}) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    std::vector<double> m(n * n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        m[i * n + j] = m[j * n + i] = rng.normal(0.0, 1.0);
      }
    }
    expect_same_eig(m, n);
    expect_same_eig(m, n, /*max_sweeps=*/1);  // the non-convergence path
    // Already diagonal, with a repeated eigenvalue.
    std::vector<double> d(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) d[i * n + i] = (i % 3 == 0) ? 2.0 : -0.5 * i;
    expect_same_eig(d, n);
    // Repeated eigenvalues off the diagonal: Q diag(1, 1, ..., 3, 3) Q^T
    // via one Givens rotation mixing every adjacent pair.
    std::vector<double> rep = d;
    for (std::size_t i = 0; i < n; ++i) rep[i * n + i] = i < n / 2 ? 1.0 : 3.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      rep[i * n + i + 1] = rep[(i + 1) * n + i] = 1e-3 * static_cast<double>(i);
    }
    expect_same_eig(rep, n);
  }
  // The 2M x 2M embeddings of sample covariances (every eigenvalue
  // doubled), M = 1..8.
  for (std::size_t m = 1; m <= 8; ++m) {
    SCOPED_TRACE(testing::Message() << "embedding M=" << m);
    const CMat x = samples_with(m, 300, {}, rng);
    expect_same_eig(real_embedding(sample_covariance(x)), 2 * m);
  }
  const double half = kSpeedOfLight / 2.4e9 / 2.0;
  const ArrayGeometry octagon = ArrayGeometry::octagon();
  const CMat r = random_covariance(octagon, 2.0 * half, rng);
  expect_same_eig(real_embedding(r), 16);
  expect_same_eig(real_embedding(forward_backward_average(
                      random_covariance(ArrayGeometry::uniform_linear(8, half),
                                        2.0 * half, rng))),
                  16);
}

TEST(LaneKernels, HermitianCheckMatchesMaterializedDifference) {
  Rng rng(2404);
  for (std::size_t n : {1, 2, 5, 8}) {
    const CMat x = samples_with(n, 64, {}, rng);
    const CMat r = sample_covariance(x);
    for (double eps : {0.0, 1e-12, 1e-9, 1e-8, 3e-8, 1e-6}) {
      CMat a = r;
      if (n > 1) a(0, n - 1) += cd{eps, -eps};
      for (double tol : {1e-10, 1e-8}) {
        const bool expected =
            (a - a.hermitian()).frobenius_norm() <= tol * (1.0 + a.frobenius_norm());
        EXPECT_EQ(a.is_hermitian(tol), expected)
            << "n=" << n << " eps=" << eps << " tol=" << tol;
      }
    }
  }
}

TEST(LaneKernels, IqRangeCheckIsOneComparisonPerPart) {
  const double bound = 1e64;
  const double values[] = {0.0,       -0.0,          2.55,
                           -bound,    bound,         std::nextafter(bound, 1e300),
                           -1e200,    kPosInf,       -kPosInf,
                           kQuietNaN, -kQuietNaN,    kSubnormal};
  for (double v : values) {
    for (std::size_t at = 0; at < 6; ++at) {
      CVec x(3, cd{0.5, -0.25});
      x[at / 2] = at % 2 == 0 ? cd{v, 0.0} : cd{0.0, v};
      EXPECT_EQ(lanes::parts_within(x.data(), x.size(), bound),
                std::fabs(v) <= bound)
          << "value " << v << " at part " << at;
    }
  }
  EXPECT_TRUE(lanes::parts_within(nullptr, 0, bound));
}

// The bit-identity above needs every a*b + c to round twice. If a build
// ever fuses them (FMA: -march=native, -mfma, -ffast-math or an FMA
// target attribute), a = 1 + 2^-30, b = 1 - 2^-30 gives a*b + c =
// -2^-60 instead of 0 — and every corpus replay and perfbench digest
// moves with it.
TEST(LaneKernels, BuildDoesNotContractMultiplyAdd) {
  volatile double a = 1.0 + 0x1p-30;
  volatile double b = 1.0 - 0x1p-30;
  volatile double c = -1.0;
  const double fused_or_not = a * b + c;
  EXPECT_EQ(fused_or_not, 0.0)
      << "a*b + c was contracted into an FMA (result " << fused_or_not
      << "): the build must enable no FMA (-march, -mfma, -ffast-math, "
         "target attributes) — see the note beside add_compile_options in "
         "CMakeLists.txt";
}

}  // namespace
}  // namespace sa
