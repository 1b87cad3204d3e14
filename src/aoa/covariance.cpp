#include "sa/aoa/covariance.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sa/common/error.hpp"
#include "sa/linalg/lanes.hpp"

namespace sa {

namespace {

using lanes::v2d;

/// One covariance entry's sum, sum_t s_i[t] * conj(s_j[t]) over
/// [t0, t1), as one dependent std::complex chain: the loop the lane
/// kernel below replaces, kept as its non-finite fallback.
cd covariance_entry(const cd* si, const cd* sj, std::size_t t0,
                    std::size_t t1) {
  cd acc{0.0, 0.0};
  for (std::size_t t = t0; t < t1; ++t) {
    acc += si[t] * std::conj(sj[t]);
  }
  return acc;
}

/// Lane pairs accumulated together per pass over a block. Two pairs (4
/// accumulator vectors) measured fastest at M = 4 and 8: larger groups
/// spill registers, and every group re-reads the block from L1 anyway.
constexpr std::size_t kGroup = 2;
/// Doubles per de-interleaved block (16 KiB: the block stays in L1
/// while every group re-reads it).
constexpr std::size_t kBlockDoubles = 2048;

/// Entries (i, j) and (i, j + 1) of the upper triangle, one per lane.
struct LanePair {
  std::uint32_t i;
  std::uint32_t j;  ///< even
};

/// Adds one block's terms to a group of kGroup lane pairs. `row` points
/// at the block's first sample; each sample is 2 * np doubles: re of
/// antennas [0, np), then im of antennas [0, np).
void accumulate_group(const LanePair* pairs, v2d* acc, const double* row,
                      std::size_t np, std::size_t len) {
  v2d re[kGroup];
  v2d im[kGroup];
  for (std::size_t k = 0; k < kGroup; ++k) {
    re[k] = acc[2 * k];
    im[k] = acc[2 * k + 1];
  }
  for (std::size_t t = 0; t < len; ++t, row += 2 * np) {
    for (std::size_t k = 0; k < kGroup; ++k) {
      const v2d xr = lanes::splat(row[pairs[k].i]);
      const v2d xi = lanes::splat(row[np + pairs[k].i]);
      const v2d yr = lanes::load(row + pairs[k].j);
      const v2d yi = lanes::load(row + np + pairs[k].j);
      re[k] += xr * yr + xi * yi;
      im[k] += xi * yr - xr * yi;
    }
  }
  for (std::size_t k = 0; k < kGroup; ++k) {
    acc[2 * k] = re[k];
    acc[2 * k + 1] = im[k];
  }
}

/// Shared accumulation core: identical term order for every entry point,
/// so the allocating, range, and scratch variants are all bit-identical.
///
/// Each upper-triangle entry is its own accumulator pair (re, im),
/// summed from +0.0 in t order exactly as covariance_entry() sums it;
/// the entries only run side by side. The span is copied in t-blocks
/// into a de-interleaved, sample-major buffer (antennas padded to an
/// even count), and entries (i, j), (i, j + 1) share the two lanes of
/// one vector, kGroup such pairs per pass over a block. Each term is
///     re: x_re * y_re + x_im * y_im,   im: x_im * y_re - x_re * y_im
/// which is std::complex's inline product x * conj(y) (re = ac - b(-d),
/// im = a(-d) + bc) rewritten by exact IEEE identities (conj is a sign
/// flip, u - (-v) == u + v, addition commutes). That product only
/// differs when both of its parts come out NaN and gcc hands it to
/// __muldc3 — and then the entry is not finite, so any non-finite entry
/// is recomputed by covariance_entry() and returns the old bits.
void covariance_core(const CMat& samples, std::size_t col_begin,
                     std::size_t col_end, CMat& r) {
  SA_EXPECTS(samples.rows() >= 1);
  SA_EXPECTS(col_begin < col_end && col_end <= samples.cols());
  const std::size_t n = samples.rows();
  const std::size_t t_len = col_end - col_begin;
  const std::size_t stride = samples.cols();
  const cd* data = samples.raw();
  r.resize(n, n);

  const std::size_t np = n + (n & 1);
  std::vector<LanePair> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i & ~std::size_t{1}; j < n; j += 2) {
      pairs.push_back({static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(j)});
    }
  }
  const std::size_t n_pairs = pairs.size();
  // Pad to whole groups with repeats of the last pair: a repeat sums
  // the same terms into its own slot and is never read back.
  while (pairs.size() % kGroup != 0) pairs.push_back(pairs.back());
  std::vector<v2d> acc(2 * pairs.size(), v2d{0.0, 0.0});

  const std::size_t block =
      std::min(t_len, std::max<std::size_t>(1, kBlockDoubles / (2 * np)));
  std::vector<double> buf(block * 2 * np, 0.0);  // odd n: pad lane stays 0
  for (std::size_t t0 = col_begin; t0 < col_end; t0 += block) {
    const std::size_t len = std::min(block, col_end - t0);
    for (std::size_t m = 0; m < n; ++m) {
      const cd* s = data + m * stride + t0;
      double* out = buf.data() + m;
      for (std::size_t t = 0; t < len; ++t, out += 2 * np) {
        out[0] = s[t].real();
        out[np] = s[t].imag();
      }
    }
    for (std::size_t g = 0; g < pairs.size(); g += kGroup) {
      accumulate_group(pairs.data() + g, acc.data() + 2 * g, buf.data(), np,
                       len);
    }
  }

  for (std::size_t p = 0; p < n_pairs; ++p) {
    const std::size_t i = pairs[p].i;
    for (std::size_t lane = 0; lane < 2; ++lane) {
      const std::size_t j = pairs[p].j + lane;
      if (j < i || j >= n) continue;
      cd e{acc[2 * p][lane], acc[2 * p + 1][lane]};
      if (!std::isfinite(e.real()) || !std::isfinite(e.imag())) {
        e = covariance_entry(data + i * stride, data + j * stride, col_begin,
                             col_end);
      }
      e /= static_cast<double>(t_len);
      r(i, j) = e;
      r(j, i) = std::conj(e);
    }
  }
}

}  // namespace

CMat sample_covariance(const CMat& samples) {
  SA_EXPECTS(samples.cols() >= 1);
  CMat r;
  covariance_core(samples, 0, samples.cols(), r);
  return r;
}

CMat sample_covariance_cols(const CMat& samples, std::size_t col_begin,
                            std::size_t col_end) {
  CMat r;
  covariance_core(samples, col_begin, col_end, r);
  return r;
}

void sample_covariance_into(const CMat& samples, CMat& r) {
  SA_EXPECTS(samples.cols() >= 1);
  covariance_core(samples, 0, samples.cols(), r);
}

CMat forward_backward_average(const CMat& r) {
  SA_EXPECTS(r.rows() == r.cols());
  const std::size_t n = r.rows();
  CMat out(n, n);
  // Out-of-place on purpose: reads never alias the writes, so this
  // pipelines/vectorizes where the in-place variant's read-modify-write
  // pairs cannot.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      // (J conj(R) J)(i, j) = conj(R(n-1-i, n-1-j)).
      out(i, j) = (r(i, j) + std::conj(r(n - 1 - i, n - 1 - j))) * 0.5;
    }
  }
  return out;
}

void forward_backward_average_inplace(CMat& r) {
  SA_EXPECTS(r.rows() == r.cols());
  const std::size_t n = r.rows();
  // (J conj(R) J)(i, j) = conj(R(n-1-i, n-1-j)): entries pair up with
  // their point reflection through the matrix centre, so both members of
  // a pair are rewritten together from their saved originals. Rows in
  // the top half pair with distinct bottom-half rows; odd n leaves a
  // middle row whose left half pairs with its right half around the
  // self-paired centre element.
  auto average_pair = [&](std::size_t i, std::size_t j) {
    const std::size_t pi = n - 1 - i;
    const std::size_t pj = n - 1 - j;
    const cd a = r(i, j);
    const cd b = r(pi, pj);
    r(i, j) = (a + std::conj(b)) * 0.5;
    r(pi, pj) = (b + std::conj(a)) * 0.5;
  };
  for (std::size_t i = 0; i < n / 2; ++i) {
    for (std::size_t j = 0; j < n; ++j) average_pair(i, j);
  }
  if (n % 2 != 0) {
    const std::size_t mid = n / 2;
    for (std::size_t j = 0; j < n / 2; ++j) average_pair(mid, j);
    const cd c = r(mid, mid);
    r(mid, mid) = (c + std::conj(c)) * 0.5;
  }
}

CMat spatial_smooth(const CMat& r, std::size_t subarray_size) {
  SA_EXPECTS(r.rows() == r.cols());
  const std::size_t n = r.rows();
  SA_EXPECTS(subarray_size >= 2 && subarray_size <= n);
  const std::size_t n_sub = n - subarray_size + 1;
  CMat out(subarray_size, subarray_size);
  for (std::size_t s = 0; s < n_sub; ++s) {
    for (std::size_t i = 0; i < subarray_size; ++i) {
      for (std::size_t j = 0; j < subarray_size; ++j) {
        out(i, j) += r(s + i, s + j);
      }
    }
  }
  out *= cd{1.0 / static_cast<double>(n_sub), 0.0};
  return out;
}

CMat diagonal_load(const CMat& r, double eps) {
  CMat out = r;
  diagonal_load_inplace(out, eps);
  return out;
}

void diagonal_load_inplace(CMat& r, double eps) {
  SA_EXPECTS(r.rows() == r.cols());
  SA_EXPECTS(eps >= 0.0);
  const std::size_t n = r.rows();
  const double load = eps * r.trace().real() / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) r(i, i) += cd{load, 0.0};
}

}  // namespace sa
