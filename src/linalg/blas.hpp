// Host reference BLAS-1/2/3 kernels.
//
// These are the numerical bodies behind the device-priced wrappers in
// device_blas.hpp; they are also used directly wherever the computation is
// attributed to the CPU (hybrid strategy, sparse setup stages).
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace gpumip::linalg {

// ----- BLAS-1 -----
double dot(std::span<const double> x, std::span<const double> y);

// ----- BLAS-2 -----
/// y = alpha * A x + beta * y
void gemv(double alpha, const Matrix& a, std::span<const double> x, double beta,
          std::span<double> y);
/// y = alpha * Aᵀ x + beta * y
void gemv_t(double alpha, const Matrix& a, std::span<const double> x, double beta,
            std::span<double> y);
/// A += alpha * x yᵀ  (rank-1 update, the paper's core reuse primitive)
void ger(double alpha, std::span<const double> x, std::span<const double> y, Matrix& a);

// ----- BLAS-3 -----
/// C = alpha * A B + beta * C
void gemm(double alpha, const Matrix& a, const Matrix& b, double beta, Matrix& c);

// ----- triangular solves -----
/// Solve L x = b (unit or non-unit lower triangular), in place on b.
void trsv_lower(const Matrix& l, std::span<double> b, bool unit_diagonal);
/// Solve U x = b (upper triangular), in place on b.
void trsv_upper(const Matrix& u, std::span<double> b);
/// Solve Lᵀ x = b, in place.
void trsv_lower_t(const Matrix& l, std::span<double> b, bool unit_diagonal);
/// Solve Uᵀ x = b, in place.
void trsv_upper_t(const Matrix& u, std::span<double> b);

}  // namespace gpumip::linalg
