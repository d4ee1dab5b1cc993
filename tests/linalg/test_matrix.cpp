#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/exec_policy.hpp"
#include "common/rng.hpp"
#include "reference/multiply_naive.hpp"

namespace oclp {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 0), -2.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), CheckError);
}

TEST(Matrix, IdentityAndDiagonal) {
  const Matrix i = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i.trace(), 3.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
  const Matrix d = Matrix::diagonal({2.0, 5.0});
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(Matrix, MultiplyKnownResult) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplyShapeMismatchThrows) {
  EXPECT_THROW(Matrix(2, 3) * Matrix(2, 3), CheckError);
}

TEST(Matrix, MultiplyByIdentityIsNoop) {
  Rng rng(5);
  Matrix a(4, 4);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) a(r, c) = rng.normal();
  const Matrix b = a * Matrix::identity(4);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(b(r, c), a(r, c));
}

TEST(Matrix, TransposeInvolution) {
  const Matrix a{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  const Matrix tt = t.transposed();
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(tt(r, c), a(r, c));
}

TEST(Matrix, TransposeProductRule) {
  // (AB)ᵀ = BᵀAᵀ — a property test over random matrices.
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    Matrix a(3, 4), b(4, 2);
    for (std::size_t r = 0; r < 3; ++r)
      for (std::size_t c = 0; c < 4; ++c) a(r, c) = rng.normal();
    for (std::size_t r = 0; r < 4; ++r)
      for (std::size_t c = 0; c < 2; ++c) b(r, c) = rng.normal();
    const Matrix lhs = (a * b).transposed();
    const Matrix rhs = b.transposed() * a.transposed();
    for (std::size_t r = 0; r < lhs.rows(); ++r)
      for (std::size_t c = 0; c < lhs.cols(); ++c)
        EXPECT_NEAR(lhs(r, c), rhs(r, c), 1e-12);
  }
}

TEST(Matrix, AddSubScale) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{4, 3}, {2, 1}};
  const Matrix s = a + b;
  EXPECT_DOUBLE_EQ(s(0, 0), 5.0);
  const Matrix d = a - b;
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
  const Matrix m = a * 2.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 6.0);
  const Matrix m2 = 2.0 * a;
  EXPECT_DOUBLE_EQ(m2(1, 0), 6.0);
}

TEST(Matrix, RowColAccessors) {
  const Matrix a{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(a.row(1), (std::vector<double>{4, 5, 6}));
  EXPECT_EQ(a.col(2), (std::vector<double>{3, 6}));
  Matrix b = a;
  b.set_row(0, {7, 8, 9});
  EXPECT_DOUBLE_EQ(b(0, 2), 9.0);
  b.set_col(0, {0, 1});
  EXPECT_DOUBLE_EQ(b(1, 0), 1.0);
}

TEST(Matrix, NormsAndTrace) {
  const Matrix a{{3, 0}, {0, 4}};
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.trace(), 7.0);
  EXPECT_DOUBLE_EQ(a.mean_square(), 25.0 / 4.0);
}

TEST(VectorOps, DotNormNormalize) {
  EXPECT_DOUBLE_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(norm({3, 4}), 5.0);
  const auto u = normalized({3, 4});
  EXPECT_NEAR(u[0], 0.6, 1e-15);
  EXPECT_NEAR(u[1], 0.8, 1e-15);
  EXPECT_THROW(normalized({0, 0}), CheckError);
}

TEST(VectorOps, AddSubScaled) {
  EXPECT_EQ(add({1, 2}, {3, 4}), (std::vector<double>{4, 6}));
  EXPECT_EQ(sub({1, 2}, {3, 4}), (std::vector<double>{-2, -2}));
  EXPECT_EQ(scaled({1, 2}, 3.0), (std::vector<double>{3, 6}));
}

TEST(DataOps, CenterRowsRemovesMeans) {
  Matrix x{{1, 2, 3}, {10, 20, 30}};
  const auto mu = center_rows(x);
  EXPECT_DOUBLE_EQ(mu[0], 2.0);
  EXPECT_DOUBLE_EQ(mu[1], 20.0);
  for (std::size_t r = 0; r < 2; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < 3; ++c) s += x(r, c);
    EXPECT_NEAR(s, 0.0, 1e-12);
  }
}

TEST(DataOps, CovarianceOfKnownData) {
  // Two perfectly correlated rows.
  Matrix x{{1, 2, 3, 4}, {2, 4, 6, 8}};
  const Matrix c = covariance(x);
  EXPECT_NEAR(c(0, 0), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(c(1, 1), 20.0 / 3.0, 1e-12);
  EXPECT_NEAR(c(0, 1), 10.0 / 3.0, 1e-12);
  EXPECT_NEAR(c(0, 1), c(1, 0), 1e-15);
}

TEST(DataOps, CovarianceIsPositiveSemidefiniteDiagonal) {
  Rng rng(11);
  Matrix x(4, 50);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 50; ++c) x(r, c) = rng.normal();
  const Matrix cov = covariance(x);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_GE(cov(i, i), 0.0);
}

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal();
  return m;
}

TEST(Multiply, PooledMatchesSerialBitwise) {
  // Row-parallel GEMM writes each output row with the same i-k-j
  // accumulation as operator*, so the result is bitwise identical
  // regardless of the pool.
  const Matrix a = random_matrix(17, 9, 13);
  const Matrix b = random_matrix(9, 23, 15);
  const Matrix serial = a * b;
  ThreadPool pool(4);
  const Matrix pooled = multiply(a, b, ExecPolicy::pooled(&pool));
  const Matrix no_pool = multiply(a, b, ExecPolicy::serial());
  ASSERT_TRUE(pooled.same_shape(serial));
  for (std::size_t i = 0; i < serial.rows(); ++i)
    for (std::size_t j = 0; j < serial.cols(); ++j) {
      EXPECT_EQ(pooled(i, j), serial(i, j));
      EXPECT_EQ(no_pool(i, j), serial(i, j));
    }
}

TEST(Multiply, NaiveGoldenReferenceAgrees) {
  const Matrix a = random_matrix(8, 12, 17);
  const Matrix b = random_matrix(12, 6, 19);
  const Matrix fast = a * b;
  const Matrix naive = ref::multiply_naive(a, b);
  for (std::size_t i = 0; i < fast.rows(); ++i)
    for (std::size_t j = 0; j < fast.cols(); ++j)
      EXPECT_NEAR(fast(i, j), naive(i, j), 1e-12 * std::abs(naive(i, j)) + 1e-14);
}

TEST(Multiply, ShapeMismatchThrows) {
  ThreadPool pool(2);
  EXPECT_THROW(multiply(Matrix(2, 3), Matrix(2, 3), ExecPolicy::pooled(&pool)),
               CheckError);
  EXPECT_THROW(ref::multiply_naive(Matrix(2, 3), Matrix(2, 3)), CheckError);
}

TEST(ReconstructionMse, MatchesExpressionBitwise) {
  const Matrix x = random_matrix(6, 40, 21);
  const Matrix basis = random_matrix(6, 3, 23);
  const Matrix f = random_matrix(3, 40, 25);
  const double fused = reconstruction_mse(x, basis, f);
  const double expression = (x - basis * f).mean_square();
  EXPECT_DOUBLE_EQ(fused, expression);
}

TEST(ReconstructionMse, ShapeMismatchThrows) {
  EXPECT_THROW(reconstruction_mse(Matrix(6, 40), Matrix(6, 3), Matrix(2, 40)),
               CheckError);
  EXPECT_THROW(reconstruction_mse(Matrix(6, 40), Matrix(5, 3), Matrix(3, 40)),
               CheckError);
  EXPECT_THROW(reconstruction_mse(Matrix(6, 40), Matrix(6, 3), Matrix(3, 39)),
               CheckError);
}

TEST(ReconstructionMse, EmptyDataIsZero) {
  EXPECT_DOUBLE_EQ(reconstruction_mse(Matrix(0, 0), Matrix(0, 0), Matrix(0, 0)),
                   0.0);
}

}  // namespace
}  // namespace oclp
