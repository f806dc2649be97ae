// Matrix container, views, comparisons, reference GEMM.
#include <gtest/gtest.h>

#include <utility>

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

TEST(Matrix, CopyAndMoveKeepShapeAndValues) {
  MatrixF a(2, 3);
  et::tensor::fill_uniform(a, 5);
  MatrixF b(4, 1, 2.0f);
  b = a;  // a different size: new storage
  EXPECT_EQ(b, a);
  MatrixF c(3, 2);
  c = a;  // the same size in another shape: storage reused
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c, a);
  MatrixF d(std::move(c));
  EXPECT_EQ(d, a);
  EXPECT_TRUE(c.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.rows(), 0u);
  c = std::move(d);
  EXPECT_EQ(c, a);
  EXPECT_TRUE(d.empty());  // NOLINT(bugprone-use-after-move)
  // Writes to a copy leave the original alone.
  MatrixF e = a;
  e(1, 2) = 9.0f;
  EXPECT_NE(e, a);
}

TEST(Matrix, UninitializedHasItsShapeAndTakesWrites) {
  MatrixF m = MatrixF::uninitialized(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  m.fill(1.5f);
  EXPECT_EQ(m, MatrixF(3, 4, 1.5f));
  EXPECT_TRUE(MatrixF::uninitialized(0, 4).empty());
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
  MatrixF bt(2, 3);
  float va = 1.0f;
  for (auto& v : a.flat()) v = va++;
  // B = [[1,2],[3,4],[5,6]], stored as its transpose.
  const float b[3][2] = {{1, 2}, {3, 4}, {5, 6}};
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t j = 0; j < 2; ++j) bt(j, k) = b[k][j];
  }
  const MatrixF c = et::tensor::reference_gemm_nt(a, bt);
  // [[1,2,3],[4,5,6]] · [[1,2],[3,4],[5,6]] = [[22,28],[49,64]]
  EXPECT_EQ(c(0, 0), 22.0f);
  EXPECT_EQ(c(0, 1), 28.0f);
  EXPECT_EQ(c(1, 0), 49.0f);
  EXPECT_EQ(c(1, 1), 64.0f);
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
