// Textbook matrix multiplication, the golden reference of linalg's
// multiply paths.
#pragma once

#include "linalg/matrix.hpp"

namespace oclp::ref {

/// i-j-k (dot-product order) multiplication. Slower and with a different
/// rounding order than `operator*`; the cache-friendly and pooled paths are
/// tested against it.
Matrix multiply_naive(const Matrix& a, const Matrix& b);

}  // namespace oclp::ref
