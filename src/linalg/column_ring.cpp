#include "sa/linalg/column_ring.hpp"

#include <algorithm>

#include "sa/common/error.hpp"

namespace sa {

void ColumnRing::relayout(std::size_t new_cap) {
  SA_EXPECTS(new_cap >= size_);
  std::vector<cd> grown(rows_ * new_cap);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::copy_n(data_.data() + r * cap_ + off_, size_,
                grown.data() + r * new_cap);
  }
  data_ = std::move(grown);
  cap_ = new_cap;
  off_ = 0;
}

void ColumnRing::append(const CMat& chunk) {
  SA_EXPECTS(rows_ > 0);
  SA_EXPECTS(chunk.rows() == rows_);
  const std::size_t add = chunk.cols();
  if (add == 0) return;
  const std::size_t required = size_ + add;
  if (required * 2 > cap_) {
    // Keep the slab at least twice the window so front-compactions
    // amortize to O(1) per appended column.
    relayout(std::max<std::size_t>(required * 2, 64));
  } else if (off_ + required > cap_) {
    // Enough total room, but the window would run off the slab end:
    // compact it back to offset 0 in place.
    for (std::size_t r = 0; r < rows_; ++r) {
      cd* base = data_.data() + r * cap_;
      std::copy_n(base + off_, size_, base);
    }
    off_ = 0;
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    std::copy_n(chunk.raw() + r * add, add,
                data_.data() + r * cap_ + off_ + size_);
  }
  size_ += add;
}

void ColumnRing::drop_front(std::size_t n) {
  SA_EXPECTS(n <= size_);
  off_ += n;
  size_ -= n;
}

void ColumnRing::clear() {
  off_ = 0;
  size_ = 0;
}

void ColumnRing::materialize(CMat& out, std::size_t first_col) const {
  SA_EXPECTS(first_col <= size_);
  const std::size_t n = size_ - first_col;
  out.resize(rows_, n);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::copy_n(data_.data() + r * cap_ + off_ + first_col, n,
                out.raw() + r * n);
  }
}

}  // namespace sa
