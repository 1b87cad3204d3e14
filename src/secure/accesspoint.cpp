#include "sa/secure/accesspoint.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "sa/aoa/covariance.hpp"
#include "sa/common/constants.hpp"
#include "sa/common/error.hpp"
#include "sa/dsp/fft.hpp"
#include "sa/dsp/noise.hpp"
#include "sa/phy/ofdm.hpp"

namespace sa {

std::string_view to_string(BandFusion fusion) {
  switch (fusion) {
    case BandFusion::kUniform: return "uniform";
    case BandFusion::kSnr: return "snr";
  }
  return "?";
}

std::optional<BandFusion> band_fusion_from_string(std::string_view name) {
  if (name == "uniform") return BandFusion::kUniform;
  if (name == "snr") return BandFusion::kSnr;
  return std::nullopt;
}

namespace {

/// Estimated SNR of one subband from the ascending eigenvalues of its
/// processed covariance: signal-subspace mean over noise-subspace mean,
/// minus the noise floor itself. `num_sources` comes from the band's
/// estimate when the backend computed one (MUSIC family); backends that
/// never split subspaces (Capon, Bartlett) report 0 and fall back to a
/// single presumed source.
double band_snr_weight(const SpectralContext& ctx, std::size_t num_sources) {
  const std::vector<double>& eigs = ctx.eig().values;  // ascending
  const std::size_t n = eigs.size();
  if (n < 2) return 1.0;
  std::size_t p = num_sources;
  if (p == 0 || p >= n) p = 1;
  double noise = 0.0;
  for (std::size_t i = 0; i < n - p; ++i) noise += eigs[i];
  noise /= static_cast<double>(n - p);
  double signal = 0.0;
  for (std::size_t i = n - p; i < n; ++i) signal += eigs[i];
  signal = signal / static_cast<double>(p) - noise;
  // The epsilon keeps an all-noise band's weight positive so the fused
  // weight vector always sums above zero.
  return std::max(signal, 0.0) / std::max(noise, 1e-30) + 1e-12;
}

}  // namespace

void decode_data(ReceivedPacket& pkt) {
  if (pkt.data_samples.empty()) return;
  SA_EXPECTS(pkt.header.has_value());
  pkt.phy = PacketReceiver().decode_data(pkt.data_samples, *pkt.header);
  if (pkt.phy) pkt.frame = Frame::parse(pkt.phy->psdu);
  pkt.data_samples = CVec();
}

AccessPoint::AccessPoint(AccessPointConfig config, Rng& rng)
    : config_(std::move(config)),
      impairments_(ArrayImpairments::random(config_.geometry.size(), rng,
                                            config_.chain_gain_sigma)),
      calibration_(CalibrationTable::identity(config_.geometry.size())),
      detector_([&] {
        DetectorConfig d = config_.detector;
        d.sample_rate_hz = config_.sample_rate_hz;
        return d;
      }()),
      estimator_(make_aoa_estimator(config_.estimator, [&] {
        AoaEstimatorConfig e;
        e.music = config_.music;
        e.capon_loading = config_.capon_loading;
        return e;
      }())) {
  SA_EXPECTS(is_pow2(config_.subbands) && config_.subbands <= 64);
  if (config_.apply_calibration) {
    const Calibrator cal(config_.calibrator);
    calibration_ = cal.run(impairments_, rng);
  }
  const ArrayGeometry scan =
      scan_geometry(config_.geometry, estimator_->spectral_options());
  manifolds_.reserve(config_.subbands);
  for (std::size_t b = 0; b < config_.subbands; ++b) {
    manifolds_.emplace_back(scan, band_wavelength_m(b),
                            config_.music.scan_step_deg);
  }
}

double AccessPoint::wavelength_m() const {
  return wavelength(config_.carrier_hz);
}

double AccessPoint::band_wavelength_m(std::size_t band) const {
  const std::size_t k = config_.subbands;
  if (k <= 1) return wavelength_m();
  const double offset_hz = (static_cast<double>(band) - k / 2.0) *
                           config_.sample_rate_hz / static_cast<double>(k);
  return wavelength(config_.carrier_hz + offset_hz);
}

ArrayPlacement AccessPoint::placement() const {
  return ArrayPlacement{config_.geometry, config_.position,
                        config_.orientation_deg};
}

CMat AccessPoint::condition(const CMat& channel_samples) const {
  CMat x = channel_samples;
  condition_inplace(x);
  return x;
}

void AccessPoint::condition_inplace(CMat& channel_samples) const {
  SA_EXPECTS(channel_samples.rows() == config_.geometry.size());
  impairments_.apply(channel_samples);
  calibration_.apply(channel_samples);
}

void AccessPoint::condition_cols(ColumnRing& window, std::size_t col_begin,
                                 std::size_t col_end) const {
  SA_EXPECTS(window.rows() == config_.geometry.size());
  SA_EXPECTS(col_begin <= col_end && col_end <= window.cols());
  // Two passes (impairments, then calibration) over each element
  // through the classes' own apply_row primitives — the same
  // per-element multiply sequence as condition_inplace, so a column
  // conditioned here is bit-identical to the same column conditioned
  // as part of a whole-buffer pass, and a future conditioning-stage
  // change lands in both paths.
  const std::size_t n = col_end - col_begin;
  for (std::size_t m = 0; m < window.rows(); ++m) {
    impairments_.apply_row(m, window.row_mut(m) + col_begin, n);
  }
  for (std::size_t m = 0; m < window.rows(); ++m) {
    calibration_.apply_row(m, window.row_mut(m) + col_begin, n);
  }
}

std::vector<PacketDetection> AccessPoint::detect(const CMat& conditioned) const {
  SA_EXPECTS(conditioned.rows() == config_.geometry.size());
  // Detection runs on the reference antenna (chain 0).
  return detector_.detect(conditioned.row(0));
}

MusicResult AccessPoint::music_from_samples(const CMat& packet_samples) const {
  SA_EXPECTS(packet_samples.rows() == config_.geometry.size());
  return estimator_->estimate(
      SpectralContext(sample_covariance(packet_samples), config_.geometry,
                      wavelength_m(), estimator_->spectral_options(),
                      &manifolds_[config_.subbands / 2]));
}

AoaSignature AccessPoint::signature_from_samples(
    const CMat& packet_samples) const {
  MusicResult res = music_from_samples(packet_samples);
  return AoaSignature::from_spectrum(std::move(res.spectrum),
                                     config_.signature);
}

std::vector<double> AccessPoint::to_world_bearings(
    double array_bearing_deg) const {
  return array_to_world_bearings(config_.geometry, array_bearing_deg,
                                 config_.orientation_deg);
}

std::optional<AccessPoint::FramePrep> AccessPoint::prepare(
    const CMat& conditioned, const PacketDetection& det,
    FrameScratch* scratch) const {
  SA_EXPECTS(conditioned.rows() == config_.geometry.size());
  FramePrep prep;
  prep.detection = det;

  // PHY header decode from the reference antenna with CFO corrected.
  // CMat is row-major, so row 0 is the contiguous prefix of data():
  // slice the tail directly rather than materializing the whole row per
  // candidate. The DATA symbols are decoded later, and only at the AP
  // whose frame a decision reads (decode_data), so the packet keeps its
  // own copy of the span they lie in.
  const CVec& flat = conditioned.data();
  CVec local_aligned;
  CVec& aligned = scratch ? scratch->aligned : local_aligned;
  aligned.assign(flat.begin() + static_cast<std::ptrdiff_t>(det.start),
                 flat.begin() + static_cast<std::ptrdiff_t>(conditioned.cols()));
  apply_cfo(aligned, -det.cfo_hz, config_.sample_rate_hz);
  prep.header = phy_rx_.decode_header(aligned);
  if (prep.header) {
    prep.data_samples.assign(
        aligned.begin(),
        aligned.begin() +
            static_cast<std::ptrdiff_t>(prep.header->samples_needed));
  }

  // Covariance over the whole packet (paper §3: mean phase differences
  // over each entire packet). A scalar per-snapshot CFO rotation leaves
  // x x^H unchanged, so no CFO correction is needed here.
  const std::size_t span = prep.header
                               ? prep.header->samples_needed
                               : kPreambleLen + kSymbolLen;  // fallback
  const std::size_t end = std::min(det.start + span, conditioned.cols());
  if (end <= det.start + kPreambleLen / 2) {
    return std::nullopt;  // truncated capture
  }

  const SpectralOptions opts = estimator_->spectral_options();
  const std::size_t num_bands = config_.subbands;
  const std::size_t n_win =
      (end - det.start) / std::max<std::size_t>(num_bands, 1);
  if (num_bands <= 1 || n_win < 1) {
    // Narrowband (or too-short-to-split) path: one full-band context,
    // accumulated straight off the shared conditioned window — no
    // per-frame block copy.
    prep.bands.emplace_back(sample_covariance_cols(conditioned, det.start, end),
                            config_.geometry, wavelength_m(), opts,
                            &manifolds_[num_bands / 2]);
    return prep;
  }

  // Wideband split: a length-K DFT (radix-2 FFT) over consecutive
  // K-sample windows turns the packet into n_win snapshots per subband;
  // each subband gets its own covariance and its own centre wavelength.
  // Bands are ordered by ascending frequency (fftshift order), so band
  // K/2 is the carrier: FFT bin j lands in band (j + K/2) % K. One pass
  // per antenna reads the conditioned row in place and writes each
  // window's bins straight into the subband snapshot matrices, which
  // come from the per-worker FrameScratch when one is provided.
  const std::size_t k = num_bands;
  std::vector<CMat> local_sub;
  std::vector<CMat>& sub = scratch ? scratch->sub : local_sub;
  if (sub.size() < k) sub.resize(k);
  for (std::size_t b = 0; b < k; ++b) sub[b].resize(conditioned.rows(), n_win);
  std::array<cd*, 64> bins{};  // K <= 64, checked at construction
  for (std::size_t m = 0; m < conditioned.rows(); ++m) {
    for (std::size_t j = 0; j < k; ++j) {
      bins[j] = sub[(j + k / 2) % k].raw() + m * n_win;
    }
    fft_windows(conditioned.raw() + m * conditioned.cols() + det.start, k,
                n_win, bins.data());
  }
  prep.bands.reserve(k);
  for (std::size_t b = 0; b < k; ++b) {
    prep.bands.emplace_back(sample_covariance(sub[b]), config_.geometry,
                            band_wavelength_m(b), opts, &manifolds_[b]);
  }
  return prep;
}

MusicResult AccessPoint::estimate_band(const FramePrep& prep,
                                       std::size_t band) const {
  SA_EXPECTS(band < prep.bands.size());
  return estimator_->estimate(prep.bands[band]);
}

ReceivedPacket AccessPoint::assemble(
    FramePrep prep, std::vector<MusicResult> band_results) const {
  SA_EXPECTS(!band_results.empty());
  SA_EXPECTS(band_results.size() == prep.bands.size());
  ReceivedPacket pkt;
  pkt.detection = prep.detection;
  pkt.header = std::move(prep.header);
  pkt.data_samples = std::move(prep.data_samples);

  std::vector<AoaSignature> band_sigs;
  band_sigs.reserve(band_results.size());
  for (const auto& res : band_results) {
    band_sigs.push_back(
        AoaSignature::from_spectrum(res.spectrum, config_.signature));
  }
  pkt.subband = SubbandSignature(std::move(band_sigs));
  if (pkt.subband.num_bands() == 1) {
    pkt.signature = pkt.subband.band(0);
  } else if (config_.band_fusion == BandFusion::kSnr) {
    std::vector<double> weights;
    weights.reserve(prep.bands.size());
    for (std::size_t b = 0; b < prep.bands.size(); ++b) {
      weights.push_back(
          band_snr_weight(prep.bands[b], band_results[b].num_sources));
    }
    pkt.signature = pkt.subband.fuse(config_.signature, weights);
  } else {
    pkt.signature = pkt.subband.fuse(config_.signature);
  }

  // The centre band (the full band when subbands == 1) supplies the
  // MusicResult, the bearing-selection covariance, and the search-free
  // bearings the grid estimate snaps to.
  const std::size_t centre = band_results.size() / 2;
  const SpectralContext& ctx = prep.bands[centre];
  pkt.music = std::move(band_results[centre]);

  if (config_.power_weighted_bearing) {
    pkt.bearing_array_deg = power_weighted_direct_bearing_with_inverse_deg(
        pkt.signature.spectrum(), pkt.signature.peaks(), ctx.inverse(1e-3),
        config_.geometry, ctx.lambda_m());
  } else {
    pkt.bearing_array_deg = pkt.signature.direct_bearing_deg();
  }
  // Root-MUSIC/ESPRIT backends: snap the chosen grid bearing to the
  // nearest search-free estimate — finer than any scan grid (linear
  // arrays only).
  if (!pkt.music.source_bearings_deg.empty()) {
    const double snap_radius = 2.0 * config_.music.scan_step_deg;
    double best = pkt.bearing_array_deg;
    double best_dist = snap_radius;
    for (double b : pkt.music.source_bearings_deg) {
      const double dist = std::abs(b - pkt.bearing_array_deg);
      if (dist < best_dist) {
        best_dist = dist;
        best = b;
      }
    }
    pkt.bearing_array_deg = best;
  }
  pkt.bearing_world_deg = to_world_bearings(pkt.bearing_array_deg);
  return pkt;
}

std::optional<ReceivedPacket> AccessPoint::demodulate(
    const CMat& conditioned, const PacketDetection& det,
    FrameScratch* scratch) const {
  auto prep = prepare(conditioned, det, scratch);
  if (!prep) return std::nullopt;
  std::vector<MusicResult> results;
  results.reserve(prep->bands.size());
  for (std::size_t b = 0; b < prep->bands.size(); ++b) {
    results.push_back(estimate_band(*prep, b));
  }
  return assemble(std::move(*prep), std::move(results));
}

std::vector<ReceivedPacket> AccessPoint::receive(const CMat& channel_samples) {
  const CMat x = condition(channel_samples);
  const auto detections = detect(x);

  std::vector<ReceivedPacket> out;
  out.reserve(detections.size());
  for (const auto& det : detections) {
    if (auto pkt = demodulate(x, det)) {
      decode_data(*pkt);
      out.push_back(std::move(*pkt));
    }
  }
  return out;
}

}  // namespace sa
