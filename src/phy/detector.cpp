// The one Schmidl-Cox implementation: the coarse kernel, the fine
// kernel and the decision loop in IncrementalScDetector::scan.
// SchmidlCoxDetector::detect is the first scan of a fresh incremental
// detector, which computes every coarse position and runs every search.
#include "sa/phy/detector.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sa/common/constants.hpp"
#include "sa/common/error.hpp"
#include "sa/phy/incremental_detector.hpp"

namespace sa {

namespace {

/// LTF taps added per pass over the fine-search accumulators.
constexpr std::size_t kTapsPerPass = 4;

/// Adds LTF taps [0, kTapsPerPass) to the accumulators of positions
/// [0, n): re/im += conj(ref[u]) * x[q + u] with std::complex's grouping
/// of each product's terms, e += norm(x[q + u]), tap by tap in order.
/// Four taps per pass load and store the accumulators a quarter as
/// often; the restrict parameters let the compiler vectorize across
/// positions without alias checks.
void add_ltf_taps(const double* ref_re, const double* ref_im,
                  const double* __restrict xr, const double* __restrict xi,
                  const double* __restrict xn, double* __restrict re,
                  double* __restrict im, double* __restrict e, std::size_t n) {
  double rr[kTapsPerPass], ri[kTapsPerPass];
  for (std::size_t u = 0; u < kTapsPerPass; ++u) {
    rr[u] = ref_re[u];
    ri[u] = ref_im[u];
  }
  for (std::size_t q = 0; q < n; ++q) {
    double acc_re = re[q], acc_im = im[q], acc_e = e[q];
    for (std::size_t u = 0; u < kTapsPerPass; ++u) {
      const double a = xr[q + u];
      const double b = xi[q + u];
      acc_re += (rr[u] * a + ri[u] * b);
      acc_im += (rr[u] * b - ri[u] * a);
      acc_e += xn[q + u];
    }
    re[q] = acc_re;
    im[q] = acc_im;
    e[q] = acc_e;
  }
}

void check_config(const DetectorConfig& config) {
  SA_EXPECTS(config.threshold > 0.0 && config.threshold < 1.0);
  SA_EXPECTS(config.sample_rate_hz > 0.0);
}

}  // namespace

void schmidl_cox_coarse(const cd* x, std::size_t origin, std::size_t from,
                        std::size_t to, std::size_t mask, cd* p, double* r,
                        double* m) {
  SA_EXPECTS(origin <= from && from <= to);
  std::size_t j = from;
  while (j < to) {
    // One anchored segment: [j, seg_end) chains from one restart.
    const std::size_t seg_end = std::min(to, j - j % kScAnchor + kScAnchor);
    const cd* w = x + (j - origin);  // w[i] is absolute sample j + i
    cd pk{0.0, 0.0};
    double rk = 0.0;
    if (j == origin || j % kScAnchor == 0) {
      for (std::size_t i = 0; i < kScWindow; ++i) {
        pk += std::conj(w[i]) * w[i + kScLag];
        rk += std::norm(w[kScLag + i]);
      }
    } else {
      pk = p[(j - 1) & mask];
      rk = r[(j - 1) & mask];
      pk -= std::conj(w[-1]) * w[kScLag - 1];
      pk += std::conj(w[kScWindow - 1]) * w[kScWindow - 1 + kScLag];
      rk -= std::norm(w[kScLag - 1]);
      rk += std::norm(w[kScLag + kScWindow - 1]);
    }
    // P and R update in one loop, so their two dependency chains overlap.
    for (;;) {
      p[j & mask] = pk;
      r[j & mask] = rk;
      m[j & mask] = rk > 1e-30 ? std::norm(pk) / (rk * rk) : 0.0;
      if (++j == seg_end) break;
      ++w;
      pk -= std::conj(w[-1]) * w[kScLag - 1];
      pk += std::conj(w[kScWindow - 1]) * w[kScWindow - 1 + kScLag];
      rk -= std::norm(w[kScLag - 1]);
      rk += std::norm(w[kScLag + kScWindow - 1]);
    }
  }
}

LtfFineSearch::LtfFineSearch(const CVec& ltf_ref)
    : ref_energy_(energy(ltf_ref)) {
  SA_EXPECTS(ltf_ref.size() == kFftSize);
  for (std::size_t i = 0; i < kFftSize; ++i) {
    ref_re_[i] = ltf_ref[i].real();
    ref_im_[i] = ltf_ref[i].imag();
  }
}

LtfPeak LtfFineSearch::run(const cd* x, std::size_t begin, std::size_t end) {
  SA_EXPECTS(end > begin + kFftSize);
  const std::size_t span = end - begin;
  const std::size_t n = span - kFftSize + 1;
  xr_.resize(span);
  xi_.resize(span);
  xn_.resize(span);
  for (std::size_t t = 0; t < span; ++t) {
    const double a = x[begin + t].real();
    const double b = x[begin + t].imag();
    xr_[t] = a;
    xi_[t] = b;
    xn_[t] = a * a + b * b;  // std::norm's grouping
  }
  acc_re_.assign(n, 0.0);
  acc_im_.assign(n, 0.0);
  acc_e_.assign(n, 0.0);
  for (std::size_t i = 0; i < kFftSize; i += kTapsPerPass) {
    add_ltf_taps(ref_re_.data() + i, ref_im_.data() + i, xr_.data() + i,
                 xi_.data() + i, xn_.data() + i, acc_re_.data(),
                 acc_im_.data(), acc_e_.data(), n);
  }
  const double* re = acc_re_.data();
  const double* im = acc_im_.data();
  const double* e = acc_e_.data();
  corr_.resize(n);
  LtfPeak peak;
  peak.best_pos = begin;
  for (std::size_t q = 0; q < n; ++q) {
    const double c = e[q] > 1e-30
                         ? (re[q] * re[q] + im[q] * im[q]) / (ref_energy_ * e[q])
                         : 0.0;
    corr_[q] = c;
    if (c > peak.best_val) {
      peak.best_val = c;
      peak.best_pos = begin + q;
    }
  }
  // The LTF has two identical periods 64 samples apart; if the peak is
  // the second one, the position 64 earlier correlates almost as well.
  peak.period1 = peak.best_pos;
  if (peak.best_pos >= begin + kFftSize) {
    const double prev = corr_[peak.best_pos - begin - kFftSize];
    if (prev > 0.8 * peak.best_val) peak.period1 = peak.best_pos - kFftSize;
  }
  return peak;
}

SchmidlCoxDetector::SchmidlCoxDetector(DetectorConfig config)
    : config_(config) {
  check_config(config_);
}

std::vector<PacketDetection> SchmidlCoxDetector::detect(
    const CVec& samples, std::size_t origin) const {
  return IncrementalScDetector(config_).scan(samples.data(), samples.size(),
                                             origin);
}

std::optional<PacketDetection> SchmidlCoxDetector::detect_first(
    const CVec& samples, std::size_t from) const {
  for (const auto& det : detect(samples)) {
    if (det.start >= from) return det;
  }
  return std::nullopt;
}

IncrementalScDetector::IncrementalScDetector(DetectorConfig config)
    : config_(config), fine_(ltf_period()) {
  check_config(config_);
}

void IncrementalScDetector::reset() {
  fine_cache_.clear();
  computed_ = 0;
}

std::vector<PacketDetection> IncrementalScDetector::scan(const cd* x,
                                                         std::size_t len,
                                                         std::size_t base) {
  // Drop memo entries for positions the window no longer covers.
  for (auto it = fine_cache_.begin(); it != fine_cache_.end();) {
    it = it->first < base ? fine_cache_.erase(it) : std::next(it);
  }
  std::vector<PacketDetection> out;
  if (len < kPreambleLen + kScLag + kScWindow) return out;

  // ---- Coarse terms: bring the rings up to date for [base, base + n_out).
  const std::size_t n_out = len - kScLag - kScWindow + 1;
  if (n_out > p_.size()) {
    // The window outgrew the rings (it is still filling): start over.
    const std::size_t cap = std::bit_ceil(n_out);
    p_.assign(cap, cd{0.0, 0.0});
    r_.assign(cap, 0.0);
    m_.assign(cap, 0.0);
    computed_ = 0;
  }
  const std::size_t mask = p_.size() - 1;
  if (base != origin_) {
    // Positions behind the window leave the cache (a base below the
    // cached origin means the coordinates were reused: start over).
    computed_ = base > origin_ && base - origin_ < computed_
                    ? computed_ - (base - origin_)
                    : 0;
    origin_ = base;
    computed_ = std::min(computed_, n_out);
    if (base % kScAnchor != 0) {
      // The head before the new first anchor chained from the old origin.
      const std::size_t head_end =
          std::min(base - base % kScAnchor + kScAnchor, base + computed_);
      schmidl_cox_coarse(x, base, base, head_end, mask, p_.data(), r_.data(),
                         m_.data());
      coarse_positions_ += head_end - base;
    }
  }
  if (computed_ < n_out) {
    schmidl_cox_coarse(x, base, base + computed_, base + n_out, mask,
                       p_.data(), r_.data(), m_.data());
    coarse_positions_ += n_out - computed_;
    computed_ = n_out;
  }

  // ---- Decision loop over window positions k (absolute base + k).
  const auto metric = [&](std::size_t k) { return m_[(base + k) & mask]; };
  std::size_t k = 0;
  while (k < n_out) {
    if (metric(k) < config_.threshold) {
      ++k;
      continue;
    }
    // Measure plateau length from k.
    std::size_t run = 0;
    while (k + run < n_out && metric(k + run) >= config_.threshold) ++run;
    if (run < config_.min_plateau) {
      k += run + 1;
      continue;
    }

    // Fine timing: search for the first LTF period after the coarse hit,
    // from the memo when this plateau's search has run before.
    const std::size_t search_end = std::min(len, k + config_.fine_search_span);
    if (search_end <= k + kFftSize) break;
    LtfPeak peak;
    const auto hit = fine_cache_.find(base + k);
    if (hit != fine_cache_.end()) {
      // The memoized span [k, k + fine_search_span) is still inside the
      // window: trims only move `base` forward and appends only extend
      // the right edge.
      ++fine_cache_hits_;
      peak = hit->second;
      peak.best_pos -= base;
      peak.period1 -= base;
    } else {
      ++fine_searches_;
      peak = fine_.run(x, k, search_end);
      if (k + config_.fine_search_span <= len) {
        fine_cache_.emplace(base + k, LtfPeak{peak.best_val,
                                              base + peak.best_pos,
                                              base + peak.period1});
      }
    }
    if (peak.best_val < config_.fine_threshold) {
      k += run + 1;  // plateau without an LTF: interference, skip it
      continue;
    }
    const std::size_t period1 = peak.period1;
    if (period1 < kStfLen + 32) {
      k += run + 1;
      continue;  // would place the packet start before the buffer
    }
    const std::size_t start = period1 - (kStfLen + 32);

    // CFO: coarse from the STF plateau, refined with the lag-64
    // correlation across the two LTF periods (unwrap fine with coarse).
    const std::size_t mid = k + run / 2 < n_out ? k + run / 2 : k;
    const double coarse = std::arg(p_[(base + mid) & mask]) /
                          (kTwoPi * static_cast<double>(kScLag)) *
                          config_.sample_rate_hz;
    double cfo = coarse;
    if (period1 + 2 * kFftSize <= len) {
      cd acc{0.0, 0.0};
      for (std::size_t i = 0; i < kFftSize; ++i) {
        acc += std::conj(x[period1 + i]) * x[period1 + kFftSize + i];
      }
      const double fine =
          std::arg(acc) / (kTwoPi * static_cast<double>(kFftSize)) *
          config_.sample_rate_hz;
      const double ambiguity =
          config_.sample_rate_hz / static_cast<double>(kFftSize);
      cfo = fine + std::round((coarse - fine) / ambiguity) * ambiguity;
    }

    PacketDetection det;
    det.start = start;
    det.metric = metric(mid);
    det.cfo_hz = cfo;
    det.fine_peak = peak.best_val;
    out.push_back(det);

    // Skip past this preamble before searching again.
    k = start + kPreambleLen;
  }
  return out;
}

}  // namespace sa
