// The SecureAngle access point: the paper's full receive pipeline.
//
//   raw multi-antenna samples
//     -> per-chain impairments (unknown LO phases, §2.2)
//     -> calibration correction (USRP2-style table)
//     -> Schmidl-Cox packet detection (§3, on a reference antenna)
//     -> PHY header decode (LTF channel estimate + SIGNAL field: the
//        packet's span)
//     -> per-packet antenna correlation matrix (whole-packet averaging),
//        optionally split into K frequency subbands (wideband mode)
//     -> per-band MUSIC pseudospectrum (§2.1) over a shared
//        SpectralContext (one EVD/inverse per band, reused by every
//        consumer)
//     -> AoA + subband signatures
//     -> DATA decode into the 802.11 frame (decode_data): once per
//        transmission, at the strongest AP, when several APs hear it
//
// Applications (virtual fence, spoof detection) consume ReceivedPacket.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "sa/aoa/estimator.hpp"
#include "sa/aoa/estimators.hpp"
#include "sa/aoa/spectral.hpp"
#include "sa/array/calibration.hpp"
#include "sa/array/geometry.hpp"
#include "sa/array/impairments.hpp"
#include "sa/channel/simulator.hpp"
#include "sa/linalg/column_ring.hpp"
#include "sa/mac/frame.hpp"
#include "sa/phy/detector.hpp"
#include "sa/phy/packet.hpp"
#include "sa/signature/signature.hpp"
#include "sa/signature/subband.hpp"

namespace sa {

/// How a wideband packet's per-subband spectra collapse into the one
/// full-band signature (ReceivedPacket::signature).
enum class BandFusion {
  /// The uniform mean of the normalized per-band spectra — the original
  /// behavior, byte-identical, and the default.
  kUniform,
  /// Noise-eigenvalue-weighted combine: each band is weighted by its
  /// estimated SNR (signal- over noise-subspace eigenvalue means of the
  /// band's processed covariance), so a faded or interference-hit
  /// subband no longer dilutes the signature it votes into.
  kSnr,
};

std::string_view to_string(BandFusion fusion);
std::optional<BandFusion> band_fusion_from_string(std::string_view name);

struct AccessPointConfig {
  ArrayGeometry geometry = ArrayGeometry::octagon();
  Vec2 position{0.0, 0.0};
  double orientation_deg = 0.0;
  double carrier_hz = 2.4e9;
  double sample_rate_hz = 20e6;
  /// Which AoA estimator the receive pipeline runs per packet. kMusic is
  /// the paper's pipeline and the default; see sa/aoa/estimator.hpp for
  /// the alternatives.
  AoaBackend estimator = AoaBackend::kMusic;
  MusicConfig music;
  /// Diagonal loading when `estimator` is kCapon.
  double capon_loading = 1e-3;
  SignatureConfig signature;
  DetectorConfig detector;
  CalibratorConfig calibrator;
  /// Disable to reproduce the paper's point that uncalibrated chains
  /// break AoA (ablation bench).
  bool apply_calibration = true;
  /// Direct-path rule: true = power-weighted peak selection (robust to
  /// the paper's "false positive direct path AoA" problem), false = the
  /// paper's plain argmax of the pseudospectrum (ablation).
  bool power_weighted_bearing = true;
  /// Chain gain mismatch spread handed to ArrayImpairments::random.
  double chain_gain_sigma = 0.05;
  /// Wideband mode: the number of frequency subbands K each packet's
  /// samples are split into (length-K DFT over consecutive sample
  /// blocks; must be a power of two, <= 64). 1 — the default — is the
  /// paper's single full-band covariance, byte-identical to the
  /// pre-wideband pipeline. K > 1 estimates AoA per subband at that
  /// subband's centre wavelength and carries a K-band SubbandSignature
  /// the spoof machinery compares subband-wise.
  std::size_t subbands = 1;
  /// How the per-subband spectra fuse into the full-band signature when
  /// subbands > 1 (no effect at K = 1).
  BandFusion band_fusion = BandFusion::kUniform;
};

/// Everything the AP knows about one received packet.
struct ReceivedPacket {
  PacketDetection detection;
  /// The SIGNAL field's decode, which fixes the packet's span; nullopt:
  /// it failed its checks, or the capture ends inside the packet.
  std::optional<PhyHeader> header;
  /// What the DATA decode still needs: the first header->samples_needed
  /// CFO-corrected reference-antenna samples, owned by the packet. Empty
  /// once decode_data() has run or the samples were released, and when
  /// the header failed.
  CVec data_samples;
  /// The DATA decode; nullopt until decode_data() has run, or when it
  /// failed (no header, or a zero scrambler state).
  std::optional<DecodedPacket> phy;
  /// The MAC frame in `phy`'s PSDU; nullopt: no DATA decode, or the
  /// frame failed its FCS check.
  std::optional<Frame> frame;
  /// The centre band's estimate (the full band when subbands == 1).
  MusicResult music;
  /// Full-band signature: the single band's, or the fused mean of the
  /// normalized per-band spectra in wideband mode.
  AoaSignature signature;
  /// Per-subband signatures (one band when subbands == 1) — what the
  /// spoof trackers compare.
  SubbandSignature subband;
  /// Strongest-peak bearing in the array's own convention.
  double bearing_array_deg = 0.0;
  /// Candidate world azimuths of the direct path (two for a linear
  /// array's front/back ambiguity, one otherwise).
  std::vector<double> bearing_world_deg;
};

/// The DATA step: decode `pkt.data_samples` against `pkt.header`
/// (PacketReceiver::decode_data), parse the MAC frame from the PSDU,
/// fill `phy` and `frame`, and release the samples. A no-op on a packet
/// with nothing pending. group_frame_observations runs it once per
/// transmission, at the strongest AP; AccessPoint::receive and
/// StreamingReceiver::push/flush run it on every packet they return.
void decode_data(ReceivedPacket& pkt);

class AccessPoint {
 public:
  /// Constructs the AP with freshly drawn chain impairments and runs the
  /// calibration procedure (unless disabled in config).
  AccessPoint(AccessPointConfig config, Rng& rng);

  /// Process a block of *channel-ideal* per-antenna samples (rows =
  /// antennas): the AP first applies its own chain impairments, then its
  /// calibration table, then detection/decoding/AoA. Equivalent to
  /// condition() + detect() + demodulate() and decode_data() per
  /// detection.
  std::vector<ReceivedPacket> receive(const CMat& channel_samples);

  // The receive pipeline split into its three phases so callers (the
  // streaming receiver, the deployment engine) can schedule the per-frame
  // work themselves. All three are const and safe to call concurrently.

  /// Impairments + (optional) calibration applied to a copy.
  CMat condition(const CMat& channel_samples) const;
  /// Same conditioning applied in place (bit-identical to condition()).
  void condition_inplace(CMat& channel_samples) const;
  /// Condition only columns [col_begin, col_end) of a streaming window —
  /// the incremental hot path: a chunk's columns are conditioned exactly
  /// once, when appended. The per-chain factors are constant in time, so
  /// conditioning a column is independent of its neighbours and of its
  /// position in the stream; the result is bit-identical to conditioning
  /// the whole window fresh. (Any future time-indexed impairment must be
  /// anchored at the column's absolute stream index to preserve this.)
  void condition_cols(ColumnRing& window, std::size_t col_begin,
                      std::size_t col_end) const;
  /// Schmidl-Cox detection on the reference antenna (chain 0) of an
  /// already-conditioned buffer.
  std::vector<PacketDetection> detect(const CMat& conditioned) const;
  /// Reusable scratch for the per-frame decode hot path: the
  /// CFO-corrected reference-antenna slice and the wideband subband
  /// snapshot matrices. A worker thread keeps one FrameScratch and
  /// passes it to prepare()/demodulate() for every frame it processes;
  /// each use fully overwrites what it reads, so results are
  /// bit-identical to the allocating path (tested). Not thread-safe:
  /// one scratch per thread.
  struct FrameScratch {
    CVec aligned;
    std::vector<CMat> sub;
  };

  /// Header decode + covariance + AoA for one detection inside a
  /// conditioned buffer. nullopt when the capture is truncated too hard
  /// to process. The packet's DATA symbols are left pending
  /// (`data_samples`) for decode_data(). Equivalent to prepare() +
  /// estimate_band() per band + assemble(), run serially. `scratch`,
  /// when non-null, is reused for the frame's temporary buffers instead
  /// of allocating.
  std::optional<ReceivedPacket> demodulate(const CMat& conditioned,
                                           const PacketDetection& det,
                                           FrameScratch* scratch = nullptr) const;

  // The demodulate pipeline split into its three stages so callers can
  // time or schedule them separately (the trace-replay benchmark times
  // each stage). All three are const and safe to call concurrently for
  // different frames/bands; a single FramePrep's contexts each belong to
  // one band's estimate at a time.

  /// Everything demodulation derives before the AoA estimates: the PHY
  /// header, the DATA samples it leaves pending (as in ReceivedPacket),
  /// and one SpectralContext per subband (one for the whole band when
  /// subbands == 1, or when the capture is too short to split). The
  /// contexts borrow this AP's steering manifolds, so a FramePrep must
  /// not outlive the AccessPoint that prepared it.
  struct FramePrep {
    PacketDetection detection;
    std::optional<PhyHeader> header;
    CVec data_samples;
    /// Per-subband contexts in ascending subband-frequency order.
    std::vector<SpectralContext> bands;
  };

  /// Stage 1: PHY header decode + per-band covariance contexts over the
  /// span the header fixes (preamble + SIGNAL when it fails). nullopt
  /// when the capture is truncated too hard to process. The packet's
  /// covariance is accumulated straight off `conditioned` (no block
  /// copy); `scratch` additionally reuses the decode slice and subband
  /// matrices across frames, and the pending DATA samples are a copy,
  /// never a view into it.
  std::optional<FramePrep> prepare(const CMat& conditioned,
                                   const PacketDetection& det,
                                   FrameScratch* scratch = nullptr) const;
  /// Stage 2: this AP's estimator over one band's context.
  MusicResult estimate_band(const FramePrep& prep, std::size_t band) const;
  /// Stage 3: fuse the per-band results into a ReceivedPacket
  /// (signatures, bearing selection, world azimuths). `band_results[b]`
  /// must be estimate_band(prep, b).
  ReceivedPacket assemble(FramePrep prep,
                          std::vector<MusicResult> band_results) const;

  /// AoA-only path: covariance + MUSIC + signature over a sample block
  /// already known to span one packet (no detection/decode).
  AoaSignature signature_from_samples(const CMat& packet_samples) const;
  MusicResult music_from_samples(const CMat& packet_samples) const;

  /// World placement of this AP's array (for the channel simulator).
  ArrayPlacement placement() const;

  const AccessPointConfig& config() const { return config_; }
  const AoaEstimator& estimator() const { return *estimator_; }
  /// The detector this AP runs (its config carries the AP sample rate) —
  /// the streaming receiver's incremental detector mirrors it.
  const SchmidlCoxDetector& detector() const { return detector_; }
  const ArrayImpairments& impairments() const { return impairments_; }
  const CalibrationTable& calibration() const { return calibration_; }
  double wavelength_m() const;

  /// Convert an array-convention bearing to world azimuth candidates.
  std::vector<double> to_world_bearings(double array_bearing_deg) const;

 private:
  /// Centre wavelength of subband `band` (the carrier's when subbands
  /// == 1).
  double band_wavelength_m(std::size_t band) const;

  AccessPointConfig config_;
  ArrayImpairments impairments_;
  CalibrationTable calibration_;
  SchmidlCoxDetector detector_;
  std::unique_ptr<AoaEstimator> estimator_;
  PacketReceiver phy_rx_;
  /// One steering manifold per subband, over the geometry the estimator
  /// scans, at that band's centre wavelength — built once here and
  /// borrowed by every frame's per-band SpectralContext. Band
  /// subbands / 2 sits at the carrier, which the unsplit path uses.
  std::vector<SteeringManifold> manifolds_;
};

}  // namespace sa
