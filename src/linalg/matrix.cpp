#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/exec_policy.hpp"
#include "common/thread_pool.hpp"

namespace oclp {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    OCLP_CHECK_MSG(r.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(const std::vector<double>& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::column(const std::vector<double>& v) {
  Matrix m(v.size(), 1);
  for (std::size_t i = 0; i < v.size(); ++i) m(i, 0) = v[i];
  return m;
}

std::vector<double> Matrix::row(std::size_t r) const {
  OCLP_CHECK(r < rows_);
  return {data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
          data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_)};
}

std::vector<double> Matrix::col(std::size_t c) const {
  OCLP_CHECK(c < cols_);
  std::vector<double> v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void Matrix::set_row(std::size_t r, const std::vector<double>& v) {
  OCLP_CHECK(r < rows_ && v.size() == cols_);
  for (std::size_t c = 0; c < cols_; ++c) (*this)(r, c) = v[c];
}

void Matrix::set_col(std::size_t c, const std::vector<double>& v) {
  OCLP_CHECK(c < cols_ && v.size() == rows_);
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  OCLP_CHECK_MSG(cols_ == rhs.rows_, "matmul shape mismatch: " << rows_ << "x"
                                     << cols_ << " * " << rhs.rows_ << "x"
                                     << rhs.cols_);
  Matrix out(rows_, rhs.cols_);
  // ikj loop order keeps the inner loop contiguous in both operands.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      const double* brow = rhs.data_.data() + k * rhs.cols_;
      double* orow = out.data_.data() + i * rhs.cols_;
      for (std::size_t j = 0; j < rhs.cols_; ++j) orow[j] += a * brow[j];
    }
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  Matrix out = *this;
  out += rhs;
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  Matrix out = *this;
  out -= rhs;
  return out;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  OCLP_CHECK(same_shape(rhs));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  OCLP_CHECK(same_shape(rhs));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix Matrix::operator*(double s) const {
  Matrix out = *this;
  out *= s;
  return out;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

double Matrix::mean_square() const {
  if (data_.empty()) return 0.0;
  double s = 0.0;
  for (double x : data_) s += x * x;
  return s / static_cast<double>(data_.size());
}

double Matrix::trace() const {
  OCLP_CHECK(rows_ == cols_);
  double s = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) s += (*this)(i, i);
  return s;
}

std::string Matrix::to_string(int precision) const {
  std::ostringstream os;
  os << std::setprecision(precision);
  for (std::size_t r = 0; r < rows_; ++r) {
    os << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < cols_; ++c) os << (*this)(r, c) << (c + 1 < cols_ ? ", " : "");
    os << (r + 1 < rows_ ? ";\n" : "]");
  }
  return os.str();
}

Matrix operator*(double s, const Matrix& m) { return m * s; }

namespace {

// One output row of a·b in the i-k-j order of operator*: zero-initialised
// accumulation with the same zero-skip, so each row is bitwise identical
// to the serial product's row.
void multiply_row(const Matrix& a, const Matrix& b, Matrix& out, std::size_t i) {
  const std::size_t inner = a.cols(), width = b.cols();
  const double* arow = a.data() + i * inner;
  double* orow = out.data() + i * width;
  for (std::size_t k = 0; k < inner; ++k) {
    const double av = arow[k];
    if (av == 0.0) continue;
    const double* brow = b.data() + k * width;
    for (std::size_t j = 0; j < width; ++j) orow[j] += av * brow[j];
  }
}

}  // namespace

Matrix multiply(const Matrix& a, const Matrix& b, const ExecPolicy& exec) {
  OCLP_CHECK_MSG(a.cols() == b.rows(), "matmul shape mismatch: " << a.rows()
                                       << "x" << a.cols() << " * " << b.rows()
                                       << "x" << b.cols());
  Matrix out(a.rows(), b.cols());
  if (a.rows() < 2) {
    for (std::size_t i = 0; i < a.rows(); ++i) multiply_row(a, b, out, i);
    return out;
  }
  // Distinct output rows per worker: any policy matches the serial product.
  exec.for_each(0, a.rows(),
                [&](std::size_t i) { multiply_row(a, b, out, i); });
  return out;
}

Matrix multiply(const Matrix& a, const Matrix& b, ThreadPool* pool) {
  return multiply(a, b,
                  pool == nullptr ? ExecPolicy::serial()
                                  : ExecPolicy::pooled(pool));
}

double reconstruction_mse(const Matrix& x, const Matrix& basis, const Matrix& f) {
  OCLP_CHECK_MSG(basis.rows() == x.rows() && f.cols() == x.cols() &&
                     basis.cols() == f.rows(),
                 "reconstruction shape mismatch: x " << x.rows() << "x"
                 << x.cols() << ", basis " << basis.rows() << "x" << basis.cols()
                 << ", f " << f.rows() << "x" << f.cols());
  if (x.empty()) return 0.0;
  const std::size_t n = x.cols(), k_dims = basis.cols();
  std::vector<double> recon(n);
  double s = 0.0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    std::fill(recon.begin(), recon.end(), 0.0);
    const double* brow = basis.data() + i * k_dims;
    for (std::size_t k = 0; k < k_dims; ++k) {
      const double bv = brow[k];
      if (bv == 0.0) continue;
      const double* frow = f.data() + k * n;
      for (std::size_t j = 0; j < n; ++j) recon[j] += bv * frow[j];
    }
    const double* xrow = x.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const double d = xrow[j] - recon[j];
      s += d * d;
    }
  }
  return s / static_cast<double>(x.size());
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  OCLP_CHECK(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm(const std::vector<double>& v) { return std::sqrt(dot(v, v)); }

std::vector<double> normalized(const std::vector<double>& v) {
  const double n = norm(v);
  OCLP_CHECK_MSG(n > 0.0, "cannot normalise the zero vector");
  return scaled(v, 1.0 / n);
}

std::vector<double> scaled(const std::vector<double>& a, double s) {
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

std::vector<double> sub(const std::vector<double>& a, const std::vector<double>& b) {
  OCLP_CHECK(a.size() == b.size());
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

std::vector<double> add(const std::vector<double>& a, const std::vector<double>& b) {
  OCLP_CHECK(a.size() == b.size());
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

std::vector<double> row_means(const Matrix& x) {
  std::vector<double> mu(x.rows(), 0.0);
  if (x.cols() == 0) return mu;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < x.cols(); ++c) s += x(r, c);
    mu[r] = s / static_cast<double>(x.cols());
  }
  return mu;
}

std::vector<double> center_rows(Matrix& x) {
  auto mu = row_means(x);
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (std::size_t c = 0; c < x.cols(); ++c) x(r, c) -= mu[r];
  return mu;
}

Matrix covariance(const Matrix& x, bool centered) {
  OCLP_CHECK(x.cols() >= 2);
  Matrix xc = x;
  if (!centered) center_rows(xc);
  Matrix cov = xc * xc.transposed();
  cov *= 1.0 / static_cast<double>(x.cols() - 1);
  return cov;
}

}  // namespace oclp
