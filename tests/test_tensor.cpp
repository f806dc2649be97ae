// Matrix container, views, comparisons, reference GEMM.
#include <gtest/gtest.h>

#include "tensor/compare.hpp"
#include "tensor/matrix.hpp"
#include "tensor/random.hpp"
#include "tensor/reference_gemm.hpp"

namespace {

using et::tensor::Matrix;
using et::tensor::MatrixF;

TEST(Matrix, BasicAccessAndFill) {
  MatrixF m(3, 4, 1.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_EQ(m(2, 3), 1.5f);
  m(1, 2) = 7.0f;
  EXPECT_EQ(m.row(1)[2], 7.0f);
  m.fill(0.0f);
  EXPECT_EQ(m(1, 2), 0.0f);
}

TEST(Matrix, TransposeInvolution) {
  MatrixF m(5, 3);
  et::tensor::fill_uniform(m, 1);
  const MatrixF tt = transpose(transpose(m));
  EXPECT_TRUE(allclose(m, tt, 0.0, 0.0));
}

TEST(Matrix, SliceAndConcatRoundTrip) {
  MatrixF m(4, 8);
  et::tensor::fill_uniform(m, 2);
  const MatrixF left = slice_cols(m, 0, 4);
  const MatrixF right = slice_cols(m, 4, 4);
  ASSERT_EQ(left.cols(), 4u);
  ASSERT_EQ(right.cols(), 4u);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(left(r, c), m(r, c));
      EXPECT_EQ(right(r, c), m(r, c + 4));
    }
  }
}

TEST(Matrix, SliceRows) {
  MatrixF m(6, 2);
  et::tensor::fill_uniform(m, 3);
  const MatrixF mid = slice_rows(m, 2, 3);
  EXPECT_EQ(mid.rows(), 3u);
  EXPECT_EQ(mid(0, 0), m(2, 0));
  EXPECT_EQ(mid(2, 1), m(4, 1));
}

TEST(Compare, MaxAbsDiffAndAllclose) {
  MatrixF a(2, 2, 1.0f), b(2, 2, 1.0f);
  EXPECT_EQ(max_abs_diff(a, b), 0.0);
  b(1, 1) = 1.01f;
  EXPECT_NEAR(max_abs_diff(a, b), 0.01, 1e-6);
  EXPECT_FALSE(allclose(a, b));
  EXPECT_TRUE(allclose(a, b, 0.02));
}

TEST(Compare, ShapeMismatchNeverClose) {
  MatrixF a(2, 2), b(2, 3);
  EXPECT_FALSE(allclose(a, b));
}

TEST(Compare, TileL2Norm) {
  MatrixF m(4, 4, 0.0f);
  m(2, 2) = 3.0f;
  m(3, 3) = 4.0f;
  EXPECT_NEAR(et::tensor::tile_l2_norm(m, 2, 2, 1, 1), 5.0, 1e-9);
  EXPECT_NEAR(et::tensor::tile_l2_norm(m, 2, 2, 0, 0), 0.0, 1e-9);
}

TEST(ReferenceGemm, KnownProduct) {
  MatrixF a(2, 3);
  MatrixF b(3, 2);
  float va = 1.0f;
  for (auto& v : a.flat()) v = va++;
  float vb = 1.0f;
  for (auto& v : b.flat()) v = vb++;
  const MatrixF c = et::tensor::reference_gemm(a, b);
  // [[1,2,3],[4,5,6]] · [[1,2],[3,4],[5,6]] = [[22,28],[49,64]]
  EXPECT_EQ(c(0, 0), 22.0f);
  EXPECT_EQ(c(0, 1), 28.0f);
  EXPECT_EQ(c(1, 0), 49.0f);
  EXPECT_EQ(c(1, 1), 64.0f);
}

TEST(ReferenceGemm, NtMatchesNnWithTranspose) {
  MatrixF a(5, 7), b(4, 7);
  et::tensor::fill_normal(a, 10);
  et::tensor::fill_normal(b, 11);
  const MatrixF nt = et::tensor::reference_gemm_nt(a, b);
  const MatrixF nn = et::tensor::reference_gemm(a, transpose(b));
  EXPECT_TRUE(allclose(nt, nn, 1e-6, 1e-6));
}

TEST(Random, Deterministic) {
  MatrixF a(3, 3), b(3, 3);
  et::tensor::fill_normal(a, 42);
  et::tensor::fill_normal(b, 42);
  EXPECT_TRUE(allclose(a, b, 0.0, 0.0));
  et::tensor::fill_normal(b, 43);
  EXPECT_FALSE(allclose(a, b, 0.0, 0.0));
}

TEST(Random, XavierBounds) {
  MatrixF m(64, 64);
  et::tensor::fill_xavier(m, 5);
  const float bound = std::sqrt(6.0f / 128.0f);
  for (float v : m.flat()) {
    EXPECT_LE(std::abs(v), bound);
  }
}

}  // namespace
