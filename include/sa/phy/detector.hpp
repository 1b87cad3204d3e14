// Schmidl-Cox OFDM packet detection [Schmidl & Cox, IEEE Trans. Comm.
// 1997] — the algorithm the SecureAngle prototype runs over its 0.4 ms
// WARP sample buffers (paper §3).
//
// Coarse stage: the 802.11 short training field repeats every 16 samples,
// so the normalized lag-16 autocorrelation metric
//     M(k) = |P(k)|^2 / R(k)^2
// plateaus near 1 during the STF. Fine stage: cross-correlate the known
// 64-sample LTF period to pin the symbol boundary, which also resolves
// the Schmidl-Cox plateau ambiguity. The lag autocorrelation additionally
// yields a coarse CFO estimate; the two LTF periods refine it.
//
// The coarse terms are anchored at absolute stream positions (see
// kScAnchor), so the streaming detector (incremental_detector.hpp) can
// compute each one once and still return exactly what detect() returns
// for the same window and origin. detect() is that detector's first scan
// of a fresh window: one implementation, on the two kernels below.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "sa/linalg/cvec.hpp"
#include "sa/phy/ofdm.hpp"

namespace sa {

/// STF repetition period and coarse correlation window of the
/// Schmidl-Cox metric.
inline constexpr std::size_t kScLag = 16;     // STF period
inline constexpr std::size_t kScWindow = 96;  // 6 STF periods
/// Anchor spacing of the coarse running sums. The terms of absolute
/// position j restart from direct kScWindow-term sums at
/// a(j) = max(j - j % kScAnchor, origin), where `origin` is the absolute
/// index of the window's first sample, and take the running update
/// (subtract the leaving term, add the entering one) from there up to j.
/// Every position from the window's first anchor on therefore depends
/// only on j and the samples; the at most kScAnchor - 1 "head" positions
/// before that anchor also depend on the origin.
inline constexpr std::size_t kScAnchor = 256;

struct DetectorConfig {
  double threshold = 0.5;       ///< M(k) level that opens a detection window
  std::size_t min_plateau = 48; ///< samples M must stay high (rejects spikes)
  double sample_rate_hz = 20e6;
  /// Search span for the LTF fine-timing correlation after the coarse hit.
  std::size_t fine_search_span = 480;
  /// Fine-timing peak must exceed this fraction of the LTF self-energy.
  double fine_threshold = 0.5;
};

struct PacketDetection {
  std::size_t start = 0;     ///< index of the packet's first STF sample
  double metric = 0.0;       ///< Schmidl-Cox plateau metric at detection
  double cfo_hz = 0.0;       ///< estimated carrier frequency offset
  double fine_peak = 0.0;    ///< normalized LTF correlation at the peak
};

/// Coarse kernel: the terms of absolute positions [from, to) of a window
/// whose first sample x[0] sits at absolute index `origin`,
///     P(j) = sum_{i<kScWindow} conj(x[j+i]) x[j+i+kScLag]
///     R(j) = sum_{i<kScWindow} |x[j+kScLag+i]|^2
///     M(j) = R(j) > 1e-30 ? |P(j)|^2 / R(j)^2 : 0
/// (x indexed by absolute position), anchored as kScAnchor describes.
/// Position j's terms are stored at slot j & mask of p, r and m, so the
/// arrays are rings keyed by absolute position (mask + 1 a power of two).
/// When `from` is not an anchor, the slots of from - 1 must already hold
/// that position's terms for this origin; the update continues from them.
/// Requires origin <= from <= to and the samples of position to - 1
/// present: x[to - 1 - origin + kScLag + kScWindow - 1].
void schmidl_cox_coarse(const cd* x, std::size_t origin, std::size_t from,
                        std::size_t to, std::size_t mask, cd* p, double* r,
                        double* m);

/// One LTF fine-timing search, positions in the caller's coordinates.
struct LtfPeak {
  double best_val = 0.0;     ///< normalized correlation at the peak
  std::size_t best_pos = 0;  ///< first position reaching best_val
  /// First LTF period: best_pos, or best_pos - kFftSize when the peak is
  /// the LTF's second period (the position before correlates > 0.8x).
  std::size_t period1 = 0;
};

/// Fine kernel: at every position pos of x[begin, end - kFftSize] the
/// normalized LTF cross-correlation
///     |sum_i conj(ltf[i]) x[pos+i]|^2 / (|ltf|^2 sum_i |x[pos+i]|^2)
/// (0 for a zero-energy window), left in corr()[pos - begin]; the peak is
/// the first maximum above 0 (begin when there is none). The search is
/// transposed — taps in the outer loop, positions in the inner one, over
/// de-interleaved samples — but each position still sums its taps in
/// order with std::complex's own term grouping, so every value is
/// bit-identical to a per-position complex loop (no FMA contraction: see
/// the note beside add_compile_options in CMakeLists.txt).
class LtfFineSearch {
 public:
  explicit LtfFineSearch(const CVec& ltf_ref);

  /// Requires end > begin + kFftSize.
  LtfPeak run(const cd* x, std::size_t begin, std::size_t end);

  /// corr()[pos - begin] of the last run().
  const std::vector<double>& corr() const { return corr_; }

 private:
  std::array<double, kFftSize> ref_re_{};
  std::array<double, kFftSize> ref_im_{};
  double ref_energy_ = 0.0;
  // Scratch reused across runs: the de-interleaved span with each
  // sample's norm, and the three per-position accumulators (correlation
  // re/im, window energy).
  std::vector<double> xr_, xi_, xn_, acc_re_, acc_im_, acc_e_;
  std::vector<double> corr_;
};

/// Detects every packet in a buffer of raw samples (single antenna).
class SchmidlCoxDetector {
 public:
  explicit SchmidlCoxDetector(DetectorConfig config = {});

  /// Scan a sample buffer and return all detections, in time order, with
  /// starts relative to the buffer: a fresh IncrementalScDetector's scan.
  /// `origin` is the absolute stream index of samples[0]; it places the
  /// coarse anchors (kScAnchor), which moves only the low bits of
  /// `metric`, and of `cfo_hz` when the second LTF period lies outside
  /// the buffer.
  std::vector<PacketDetection> detect(const CVec& samples,
                                      std::size_t origin = 0) const;

  /// First detection at/after `from`, if any.
  std::optional<PacketDetection> detect_first(const CVec& samples,
                                              std::size_t from = 0) const;

  const DetectorConfig& config() const { return config_; }

 private:
  DetectorConfig config_;
};

}  // namespace sa
