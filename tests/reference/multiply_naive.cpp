#include "reference/multiply_naive.hpp"

namespace oclp::ref {

Matrix multiply_naive(const Matrix& a, const Matrix& b) {
  OCLP_CHECK_MSG(a.cols() == b.rows(), "matmul shape mismatch: " << a.rows()
                                       << "x" << a.cols() << " * " << b.rows()
                                       << "x" << b.cols());
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      out(i, j) = s;
    }
  return out;
}

}  // namespace oclp::ref
