#include "sa/dsp/fft.hpp"

#include <array>
#include <cmath>
#include <memory>
#include <mutex>

#include "sa/common/constants.hpp"
#include "sa/common/error.hpp"

namespace sa {

namespace {

/// The size-only part of a length-n transform.
struct FftPlan {
  explicit FftPlan(std::size_t size) : n(size), bitrev(size) {
    // The permutation the in-place swap loop applies: element i of the
    // permuted buffer is element bitrev[i] of the input.
    std::size_t j = 0;
    for (std::size_t i = 1; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      bitrev[i] = j;
    }
    // Stage len's len/2 twiddles start at offset len/2 - 1.
    for (int inverse = 0; inverse < 2; ++inverse) {
      CVec& tw = twiddles[inverse];
      tw.reserve(n - 1);
      for (std::size_t len = 2; len <= n; len <<= 1) {
        const double angle =
            (inverse ? kTwoPi : -kTwoPi) / static_cast<double>(len);
        const cd wlen{std::cos(angle), std::sin(angle)};
        cd w{1.0, 0.0};
        for (std::size_t k = 0; k < len / 2; ++k) {
          tw.push_back(w);
          w *= wlen;
        }
      }
    }
  }

  std::size_t n;
  std::vector<std::size_t> bitrev;
  std::array<CVec, 2> twiddles;  ///< [0] forward, [1] inverse
};

const FftPlan& plan_for(std::size_t n) {
  SA_EXPECTS(is_pow2(n));
  constexpr std::size_t kSizes = 8 * sizeof(std::size_t);
  static std::array<std::once_flag, kSizes> once;
  static std::array<std::unique_ptr<const FftPlan>, kSizes> plans;
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  std::call_once(once[log2n],
                 [&] { plans[log2n] = std::make_unique<const FftPlan>(n); });
  return *plans[log2n];
}

/// The butterfly stages over a buffer already in bit-reversed order.
inline void butterflies(cd* x, const FftPlan& plan, bool inverse) {
  const std::size_t n = plan.n;
  const cd* tw = plan.twiddles[inverse ? 1 : 0].data();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const cd* w = tw + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const cd u = x[i + k];
        const cd v = x[i + k + half] * w[k];
        x[i + k] = u + v;
        x[i + k + half] = u - v;
      }
    }
  }
}

void fft_core(CVec& x, bool inverse) {
  const FftPlan& plan = plan_for(x.size());
  for (std::size_t i = 1; i < plan.n; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) std::swap(x[i], x[j]);
  }
  butterflies(x.data(), plan, inverse);
}

}  // namespace

void fft_inplace(CVec& x) { fft_core(x, /*inverse=*/false); }

void ifft_inplace(CVec& x) {
  fft_core(x, /*inverse=*/true);
  const double inv_n = 1.0 / static_cast<double>(x.size());
  for (cd& v : x) v *= inv_n;
}

void fft_windows(const cd* in, std::size_t n, std::size_t count,
                 cd* const* out) {
  const FftPlan& plan = plan_for(n);
  CVec buf(n);
  for (std::size_t t = 0; t < count; ++t) {
    const cd* window = in + t * n;
    for (std::size_t i = 0; i < n; ++i) buf[i] = window[plan.bitrev[i]];
    butterflies(buf.data(), plan, /*inverse=*/false);
    for (std::size_t j = 0; j < n; ++j) out[j][t] = buf[j];
  }
}

CVec fft(CVec x) {
  fft_inplace(x);
  return x;
}

CVec ifft(CVec x) {
  ifft_inplace(x);
  return x;
}

CVec fftshift(const CVec& x) {
  const std::size_t n = x.size();
  CVec out(n);
  const std::size_t half = n / 2;
  for (std::size_t i = 0; i < n; ++i) out[i] = x[(i + half) % n];
  return out;
}

std::vector<double> power_spectrum(const CVec& x) {
  CVec f = fft(x);
  std::vector<double> p(f.size());
  const double inv_n = 1.0 / static_cast<double>(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) p[i] = std::norm(f[i]) * inv_n;
  return p;
}

}  // namespace sa
