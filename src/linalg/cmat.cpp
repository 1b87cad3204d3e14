#include "sa/linalg/cmat.hpp"

#include <algorithm>
#include <cmath>

namespace sa {

CMat::CMat(std::size_t rows, std::size_t cols, const CVec& data)
    : rows_(rows), cols_(cols), data_(data) {
  SA_EXPECTS(data_.size() == rows * cols);
}

CMat CMat::identity(std::size_t n) {
  CMat m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = cd{1.0, 0.0};
  return m;
}

CMat CMat::outer(const CVec& a) { return outer(a, a); }

CMat CMat::outer(const CVec& a, const CVec& b) {
  CMat m(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      m(i, j) = a[i] * std::conj(b[j]);
    }
  }
  return m;
}

CMat CMat::operator+(const CMat& o) const {
  SA_EXPECTS(rows_ == o.rows_ && cols_ == o.cols_);
  CMat out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] + o.data_[i];
  return out;
}

CMat CMat::operator-(const CMat& o) const {
  SA_EXPECTS(rows_ == o.rows_ && cols_ == o.cols_);
  CMat out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] - o.data_[i];
  return out;
}

CMat CMat::operator*(const CMat& o) const {
  SA_EXPECTS(cols_ == o.rows_);
  CMat out(rows_, o.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const cd aik = data_[i * cols_ + k];
      if (aik == cd{0.0, 0.0}) continue;
      for (std::size_t j = 0; j < o.cols_; ++j) {
        out(i, j) += aik * o(k, j);
      }
    }
  }
  return out;
}

CMat CMat::operator*(cd s) const {
  CMat out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] * s;
  return out;
}

CMat& CMat::operator+=(const CMat& o) {
  SA_EXPECTS(rows_ == o.rows_ && cols_ == o.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

CMat& CMat::operator*=(cd s) {
  for (cd& x : data_) x *= s;
  return *this;
}

CVec CMat::operator*(const CVec& v) const {
  SA_EXPECTS(cols_ == v.size());
  CVec out(rows_, cd{0.0, 0.0});
  for (std::size_t i = 0; i < rows_; ++i) {
    cd s{0.0, 0.0};
    for (std::size_t j = 0; j < cols_; ++j) s += data_[i * cols_ + j] * v[j];
    out[i] = s;
  }
  return out;
}

CMat CMat::hermitian() const {
  CMat out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      out(j, i) = std::conj((*this)(i, j));
    }
  }
  return out;
}

CMat CMat::transpose() const {
  CMat out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      out(j, i) = (*this)(i, j);
    }
  }
  return out;
}

cd CMat::trace() const {
  SA_EXPECTS(rows_ == cols_);
  cd t{0.0, 0.0};
  for (std::size_t i = 0; i < rows_; ++i) t += (*this)(i, i);
  return t;
}

double CMat::frobenius_norm() const {
  double s = 0.0;
  for (const cd& x : data_) s += std::norm(x);
  return std::sqrt(s);
}

double CMat::max_off_diagonal() const {
  double m = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      if (i != j) m = std::max(m, std::abs((*this)(i, j)));
    }
  }
  return m;
}

bool CMat::is_hermitian(double tol) const {
  if (rows_ != cols_) return false;
  // ||A - A^H||_F summed entry by entry in row-major order: the same
  // terms, in the same order, as materializing A - A^H and taking its
  // frobenius_norm(), without the two temporary matrices.
  double diff = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      diff += std::norm((*this)(i, j) - std::conj((*this)(j, i)));
    }
  }
  return std::sqrt(diff) <= tol * (1.0 + frobenius_norm());
}

CVec CMat::row(std::size_t r) const {
  SA_EXPECTS(r < rows_);
  return CVec(data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
              data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_));
}

CVec CMat::col(std::size_t c) const {
  SA_EXPECTS(c < cols_);
  CVec out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) out[i] = (*this)(i, c);
  return out;
}

void CMat::set_row(std::size_t r, const CVec& v) {
  SA_EXPECTS(r < rows_ && v.size() == cols_);
  for (std::size_t j = 0; j < cols_; ++j) (*this)(r, j) = v[j];
}

void CMat::set_col(std::size_t c, const CVec& v) {
  SA_EXPECTS(c < cols_ && v.size() == rows_);
  for (std::size_t i = 0; i < rows_; ++i) (*this)(i, c) = v[i];
}

}  // namespace sa
