// Dense row-major matrix container used throughout E.T.
//
// Kept deliberately small: owning storage, checked element access in
// debug builds, row spans and a row-block copy. A "head" in the paper is
// a contiguous block of columns of width d_model / H (the ‖ operator in
// Fig. 3 concatenates heads along columns); kernels index it in place.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace et::tensor {

template <typename T>
class Matrix {
 public:
  using value_type = T;

  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<T> row(std::size_t r) noexcept {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const T> row(std::size_t r) const noexcept {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] T* data() noexcept { return data_.data(); }
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::span<T> flat() noexcept { return {data_}; }
  [[nodiscard]] std::span<const T> flat() const noexcept { return {data_}; }

  void fill(T v) { data_.assign(data_.size(), v); }

  /// Bytes this matrix would occupy in (simulated) device global memory.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return data_.size() * sizeof(T);
  }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

/// Copy the row block [row0, row0+height).
template <typename T>
[[nodiscard]] Matrix<T> slice_rows(const Matrix<T>& a, std::size_t row0,
                                   std::size_t height) {
  assert(row0 + height <= a.rows());
  Matrix<T> s(height, a.cols());
  for (std::size_t r = 0; r < height; ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      s(r, c) = a(row0 + r, c);
    }
  }
  return s;
}

using MatrixF = Matrix<float>;
using MatrixD = Matrix<double>;

}  // namespace et::tensor
