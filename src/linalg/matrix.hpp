// Dense row-major double matrix with the small set of operations the
// Bayesian Linear Projection framework needs. Dimensions in this library
// follow the paper's convention: the data matrix X is P×N (one case per
// column), the basis Λ is P×K, the factors F are K×N.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace oclp {

class ExecPolicy;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Row-major nested initializer: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  static Matrix diagonal(const std::vector<double>& d);
  /// Column vector from values.
  static Matrix column(const std::vector<double>& v);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    OCLP_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    OCLP_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  std::vector<double> row(std::size_t r) const;
  std::vector<double> col(std::size_t c) const;
  void set_row(std::size_t r, const std::vector<double>& v);
  void set_col(std::size_t c, const std::vector<double>& v);

  Matrix transposed() const;
  Matrix operator*(const Matrix& rhs) const;
  Matrix operator+(const Matrix& rhs) const;
  Matrix operator-(const Matrix& rhs) const;
  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix operator*(double s) const;
  Matrix& operator*=(double s);

  /// Frobenius norm.
  double frobenius_norm() const;
  /// Sum of squared entries divided by the number of entries.
  double mean_square() const;
  /// Trace (square matrices only).
  double trace() const;

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  std::string to_string(int precision = 4) const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

Matrix operator*(double s, const Matrix& m);

/// a·b with the row blocks of the output distributed per `exec`. Rows are
/// independent and each is computed with exactly the arithmetic of
/// `operator*`, so the product is bitwise identical to the serial one at
/// any policy/chunking; worthwhile when the output has many rows (e.g. the
/// P×N residual reconstructions over thousands of training cases). Safe to
/// call from inside a pool task — nested pooled policies run inline.
Matrix multiply(const Matrix& a, const Matrix& b, const ExecPolicy& exec);

/// mean_square of (x − basis·f) fused into one pass: reconstructs one row
/// at a time and accumulates the squared residual without materialising
/// either P×N temporary. Bitwise identical to
/// (x - basis * f).mean_square().
double reconstruction_mse(const Matrix& x, const Matrix& basis, const Matrix& f);

/// Euclidean dot product.
double dot(const std::vector<double>& a, const std::vector<double>& b);
/// Euclidean norm.
double norm(const std::vector<double>& v);
/// v / ||v|| (throws on zero vector).
std::vector<double> normalized(const std::vector<double>& v);
/// a·s.
std::vector<double> scaled(const std::vector<double>& a, double s);
/// a - b.
std::vector<double> sub(const std::vector<double>& a, const std::vector<double>& b);
/// a + b.
std::vector<double> add(const std::vector<double>& a, const std::vector<double>& b);

/// Column-wise mean of a P×N data matrix (length-P vector).
std::vector<double> row_means(const Matrix& x);
/// Subtract the per-row mean from every column; returns the means.
std::vector<double> center_rows(Matrix& x);
/// Sample covariance of a P×N data matrix (rows are variables): (X Xᵀ)/(N-1)
/// after centering. Set centered=true if the rows already have zero mean.
Matrix covariance(const Matrix& x, bool centered = false);

}  // namespace oclp
