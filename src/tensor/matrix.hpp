// Dense row-major matrix container used throughout E.T.
//
// Kept deliberately small: owning storage, checked element access in
// debug builds, row spans and a row-block copy. A "head" in the paper is
// a contiguous block of columns of width d_model / H (the ‖ operator in
// Fig. 3 concatenates heads along columns); kernels index it in place.
//
// Construction fills every element (zero by default), except through
// Matrix::uninitialized, whose element values are unspecified until
// written. Kernels build an output that way when their math writes every
// element, and on a traffic-only device, which runs no math and whose
// outputs nothing reads (docs/simulator.md, "Host cost of a traffic-only
// forward"). Under ET_SANITIZE the uninitialized storage is poisoned, so
// a read of an element nothing wrote shows up as NaN or a wrong value.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <utility>

namespace et::tensor {

template <typename T>
class Matrix {
 public:
  using value_type = T;

  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, T init = T{})
      : Matrix(rows, cols, Unfilled{}) {
    std::fill_n(data_.get(), size_, init);
  }

  /// rows × cols with unspecified element values (see the file comment).
  [[nodiscard]] static Matrix uninitialized(std::size_t rows,
                                            std::size_t cols) {
    return Matrix(rows, cols, Unfilled{});
  }

  Matrix(const Matrix& other) : Matrix(other.rows_, other.cols_, Unfilled{}) {
    std::copy_n(other.data_.get(), size_, data_.get());
  }
  Matrix(Matrix&& other) noexcept
      : rows_(std::exchange(other.rows_, 0)),
        cols_(std::exchange(other.cols_, 0)),
        size_(std::exchange(other.size_, 0)),
        data_(std::move(other.data_)) {}
  Matrix& operator=(const Matrix& other) {
    if (this != &other) {
      if (size_ != other.size_) *this = uninitialized(other.rows_, other.cols_);
      rows_ = other.rows_;
      cols_ = other.cols_;
      std::copy_n(other.data_.get(), size_, data_.get());
    }
    return *this;
  }
  Matrix& operator=(Matrix&& other) noexcept {
    rows_ = std::exchange(other.rows_, 0);
    cols_ = std::exchange(other.cols_, 0);
    size_ = std::exchange(other.size_, 0);
    data_ = std::move(other.data_);
    return *this;
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

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
    return {data_.get() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const T> row(std::size_t r) const noexcept {
    assert(r < rows_);
    return {data_.get() + r * cols_, cols_};
  }

  [[nodiscard]] T* data() noexcept { return data_.get(); }
  [[nodiscard]] const T* data() const noexcept { return data_.get(); }
  [[nodiscard]] std::span<T> flat() noexcept { return {data_.get(), size_}; }
  [[nodiscard]] std::span<const T> flat() const noexcept {
    return {data_.get(), size_};
  }

  void fill(T v) { std::fill_n(data_.get(), size_, v); }

  /// Bytes this matrix would occupy in (simulated) device global memory.
  [[nodiscard]] std::size_t bytes() const noexcept { return size_ * sizeof(T); }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ &&
           std::equal(a.data_.get(), a.data_.get() + a.size_, b.data_.get());
  }

 private:
  struct Unfilled {};

  /// The one allocation: default-initialized, so nothing is written
  /// unless ET_SANITIZE poisons it.
  Matrix(std::size_t rows, std::size_t cols, Unfilled)
      : rows_(rows),
        cols_(cols),
        size_(rows * cols),
        data_(size_ == 0 ? nullptr : new T[size_]) {
#ifdef ET_SANITIZE
    if constexpr (std::numeric_limits<T>::has_quiet_NaN) {
      std::fill_n(data_.get(), size_, std::numeric_limits<T>::quiet_NaN());
    } else if (size_ != 0) {
      std::memset(data_.get(), 0xA5, size_ * sizeof(T));
    }
#endif
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t size_ = 0;
  std::unique_ptr<T[]> data_;
};

/// Copy the row block [row0, row0+height).
template <typename T>
[[nodiscard]] Matrix<T> slice_rows(const Matrix<T>& a, std::size_t row0,
                                   std::size_t height) {
  assert(row0 + height <= a.rows());
  Matrix<T> s = Matrix<T>::uninitialized(height, a.cols());
  std::copy_n(a.data() + row0 * a.cols(), s.size(), s.data());
  return s;
}

using MatrixF = Matrix<float>;
using MatrixD = Matrix<double>;

}  // namespace et::tensor
