// Sliding column window over a multi-antenna sample stream.
//
// StreamingReceiver's history buffer is append-at-the-back /
// drop-at-the-front: every ingest round appends one chunk of columns and
// every commit trims the window back to `history_samples`. Growing and
// trimming a plain CMat costs a full-matrix copy each time — O(history)
// per round. A ColumnRing keeps the live window contiguous inside a
// larger row-major slab instead: append writes only the new columns,
// drop_front just advances the window offset, and the slab is compacted
// (or geometrically regrown) only when the window would run off its end,
// so the amortized cost per appended column is O(1).
//
// Rows stay contiguous (row-major, stride = slab capacity), which is
// what the consumers need: the packet detector streams row 0 left to
// right, and materialize() is a straight per-row copy of a column range.
#pragma once

#include <cstddef>
#include <vector>

#include "sa/linalg/cmat.hpp"

namespace sa {

class ColumnRing {
 public:
  ColumnRing() = default;
  explicit ColumnRing(std::size_t rows) : rows_(rows) {}

  std::size_t rows() const { return rows_; }
  /// Live window length in columns.
  std::size_t cols() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slab capacity in columns (observability for tests/benches).
  std::size_t capacity() const { return cap_; }

  /// Append `chunk.cols()` columns at the back of the window. The chunk's
  /// rows must match; only the new columns are written (the live window
  /// is moved only when the slab must be compacted or regrown).
  void append(const CMat& chunk);

  /// Drop the oldest `n` columns — O(1), no copy.
  void drop_front(std::size_t n);

  /// Empty the window, keeping the slab allocation.
  void clear();

  /// Pointer to window column 0 of row `r`; columns are contiguous, so
  /// row(r)[c] is the element at window column c.
  const cd* row(std::size_t r) const {
    SA_EXPECTS(r < rows_);
    return data_.data() + r * cap_ + off_;
  }
  cd* row_mut(std::size_t r) {
    SA_EXPECTS(r < rows_);
    return data_.data() + r * cap_ + off_;
  }

  /// Element access (window coordinates) for tests.
  const cd& at(std::size_t r, std::size_t c) const {
    SA_EXPECTS(r < rows_ && c < size_);
    return data_[r * cap_ + off_ + c];
  }

  /// Copy window columns [first_col, cols()) into `out` (resized to
  /// rows x (cols() - first_col)) — the per-scan snapshot
  /// materialization: a straight per-row copy with no per-element math.
  void materialize(CMat& out, std::size_t first_col = 0) const;

 private:
  /// Move the window to a slab of `new_cap` columns at offset 0.
  void relayout(std::size_t new_cap);

  std::size_t rows_ = 0;
  std::size_t cap_ = 0;   // slab columns
  std::size_t off_ = 0;   // physical column of window column 0
  std::size_t size_ = 0;  // live window columns
  std::vector<cd> data_;  // rows_ * cap_, row-major with stride cap_
};

}  // namespace sa
