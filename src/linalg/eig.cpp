#include "sa/linalg/eig.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "sa/common/error.hpp"

namespace sa {

namespace {

/// Matrices up to this order (the 16 x 16 embedding of an 8-antenna
/// covariance) are worked on in fixed stack storage.
constexpr std::size_t kStackOrder = 16;

/// Stack storage for n x n doubles when n <= kStackOrder, heap beyond.
class Square {
 public:
  explicit Square(std::size_t n) {
    if (n > kStackOrder) {
      heap_.resize(n * n);
      data_ = heap_.data();
    }
  }
  Square(const Square&) = delete;
  Square& operator=(const Square&) = delete;
  double* data() { return data_; }

 private:
  std::array<double, kStackOrder * kStackOrder> stack_;
  std::vector<double> heap_;
  double* data_ = stack_.data();
};

/// (x, y) <- (c x - s y, s x + c y) over two distinct rows of n
/// contiguous doubles — the rotation's update of A's rows p, q and of
/// V^T's rows p, q. The rows never alias, so this vectorizes across k;
/// each element keeps its own two products and one add.
void rotate_rows(double* __restrict x, double* __restrict y, std::size_t n,
                 double c, double s) {
  for (std::size_t k = 0; k < n; ++k) {
    const double xk = x[k];
    const double yk = y[k];
    x[k] = c * xk - s * yk;
    y[k] = s * xk + c * yk;
  }
}

/// Cyclic Jacobi on the row-major n x n symmetric `m`. A is updated in
/// both triangles, columns first, then rows, exactly as the textbook
/// sweep does (the 2 x 2 block of rows/columns p, q is rounded twice, so
/// A is not kept bitwise symmetric and neither update may be skipped).
/// The accumulated rotations are stored transposed, vt = V^T, so the
/// rotation's update of V's columns p, q is a contiguous update of vt's
/// rows; every rotation's arithmetic is unchanged.
RealEigResult jacobi_core(const double* m, std::size_t n, int max_sweeps,
                          double tol) {
  Square a_store(n);
  Square vt_store(n);
  double* a = a_store.data();
  double* vt = vt_store.data();
  std::copy(m, m + n * n, a);
  std::fill(vt, vt + n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) vt[i * n + i] = 1.0;

  auto A = [&](std::size_t r, std::size_t c) -> double& { return a[r * n + c]; };

  // Scale-aware convergence threshold.
  double fro = 0.0;
  for (std::size_t k = 0; k < n * n; ++k) fro += a[k] * a[k];
  const double thresh = tol * (1.0 + std::sqrt(fro));

  auto max_off_upper = [&] {
    double off = 0.0;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        off = std::max(off, std::abs(A(p, q)));
      }
    }
    return off;
  };

  bool converged = (n <= 1);
  for (int sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
    if (max_off_upper() <= thresh) {
      converged = true;
      break;
    }
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = A(p, q);
        if (std::abs(apq) <= thresh * 1e-3) continue;
        const double app = A(p, p);
        const double aqq = A(q, q);
        // Classic Jacobi rotation: choose t = tan(theta) that zeros apq.
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0.0)
                             ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                             : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;

        // Update columns p and q of A, then rows p and q.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = A(k, p);
          const double akq = A(k, q);
          A(k, p) = c * akp - s * akq;
          A(k, q) = s * akp + c * akq;
        }
        rotate_rows(a + p * n, a + q * n, n, c, s);
        // Accumulate the rotation into V's columns p, q (vt's rows).
        rotate_rows(vt + p * n, vt + q * n, n, c, s);
      }
    }
  }
  if (!converged) {
    // Final check: Jacobi reduces off-diagonal monotonically, so a miss
    // here means genuinely pathological input.
    if (max_off_upper() > thresh * 100.0) {
      throw NumericalError("jacobi_eigh_real: did not converge");
    }
  }

  // Sort ascending, permuting eigenvector columns along.
  std::array<std::size_t, kStackOrder> order_stack;
  std::vector<std::size_t> order_heap(n > kStackOrder ? n : 0);
  std::size_t* order = n > kStackOrder ? order_heap.data() : order_stack.data();
  std::iota(order, order + n, std::size_t{0});
  std::sort(order, order + n, [&](std::size_t x, std::size_t y) {
    return A(x, x) < A(y, y);
  });
  RealEigResult res;
  res.n = n;
  res.values.resize(n);
  res.vectors.resize(n * n);
  for (std::size_t k = 0; k < n; ++k) {
    res.values[k] = A(order[k], order[k]);
    // Column-major output: column k is V's column order[k], vt's row.
    std::copy(vt + order[k] * n, vt + (order[k] + 1) * n,
              res.vectors.begin() + static_cast<std::ptrdiff_t>(k * n));
  }
  return res;
}

}  // namespace

RealEigResult jacobi_eigh_real(const std::vector<double>& m, std::size_t n,
                               int max_sweeps, double tol) {
  SA_EXPECTS(m.size() == n * n);
  return jacobi_core(m.data(), n, max_sweeps, tol);
}

EigResult eigh(const CMat& a) {
  SA_EXPECTS(a.rows() == a.cols());
  SA_EXPECTS(a.is_hermitian(1e-8));
  const std::size_t n = a.rows();

  // Embed A = B + iC into M = [[B, -C], [C, B]] (2n x 2n, symmetric).
  const std::size_t n2 = 2 * n;
  Square embed(n2);
  double* m = embed.data();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double b = a(i, j).real();
      const double c = a(i, j).imag();
      m[i * n2 + j] = b;
      m[i * n2 + (j + n)] = -c;
      m[(i + n) * n2 + j] = c;
      m[(i + n) * n2 + (j + n)] = b;
    }
  }

  const RealEigResult real = jacobi_core(m, n2, 64, 1e-13);

  // Each complex eigenvalue appears twice; the real eigenvector pair
  // (x; y) and (-y; x) both map to the complex direction x + iy (up to a
  // factor of i). Recover one orthonormal complex vector per pair with
  // modified Gram-Schmidt in eigenvalue order.
  EigResult out;
  out.values.reserve(n);
  out.vectors = CMat(n, n);
  std::vector<CVec> accepted;
  accepted.reserve(n);
  for (std::size_t k = 0; k < n2 && accepted.size() < n; ++k) {
    CVec cand(n);
    for (std::size_t r = 0; r < n; ++r) {
      cand[r] = cd{real.vectors[k * n2 + r], real.vectors[k * n2 + r + n]};
    }
    // Project out everything accepted so far (complex inner products kill
    // the i-rotated duplicate that real orthogonality cannot see).
    for (const CVec& u : accepted) {
      const cd proj = inner(u, cand);
      axpy(cand, -proj, u);
    }
    const double residual = norm(cand);
    if (residual > 0.5) {
      scale(cand, cd{1.0 / residual, 0.0});
      out.vectors.set_col(accepted.size(), cand);
      out.values.push_back(real.values[k]);
      accepted.push_back(std::move(cand));
    }
  }
  if (accepted.size() != n) {
    throw NumericalError("eigh: failed to extract a full complex eigenbasis");
  }
  return out;
}

}  // namespace sa
