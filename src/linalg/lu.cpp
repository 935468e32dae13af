#include "linalg/lu.hpp"

#include <cmath>
#include <utility>

#include "linalg/blas.hpp"

namespace gpumip::linalg {

DenseLU::DenseLU(const Matrix& a, double pivot_tol) : lu_(a) {
  check_arg(a.rows() == a.cols(), "DenseLU requires a square matrix");
  const int n = a.rows();
  pivots_.resize(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    // Partial pivot: largest |value| in column k at or below the diagonal.
    int pivot_row = k;
    double pivot_abs = std::fabs(lu_(k, k));
    for (int i = k + 1; i < n; ++i) {
      const double v = std::fabs(lu_(i, k));
      if (v > pivot_abs) {
        pivot_abs = v;
        pivot_row = i;
      }
    }
    if (pivot_abs < pivot_tol) {
      lu_ = Matrix();
      throw NumericalError("LU factorization: matrix is numerically singular at column " +
                           std::to_string(k));
    }
    pivots_[static_cast<std::size_t>(k)] = pivot_row;
    if (pivot_row != k) {
      for (int c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(pivot_row, c));
    }
    const double inv_pivot = 1.0 / lu_(k, k);
    for (int i = k + 1; i < n; ++i) {
      const double mult = lu_(i, k) * inv_pivot;
      lu_(i, k) = mult;
      if (mult == 0.0) continue;
      for (int c = k + 1; c < n; ++c) lu_(i, c) -= mult * lu_(k, c);
    }
  }
}

Vector DenseLU::solve(std::span<const double> b) const {
  check_arg(valid(), "DenseLU::solve on empty factorization");
  const int n = order();
  check_arg(static_cast<int>(b.size()) == n, "DenseLU::solve: size mismatch");
  Vector x(b.begin(), b.end());
  for (int k = 0; k < n; ++k) {
    const int p = pivots_[static_cast<std::size_t>(k)];
    if (p != k) std::swap(x[static_cast<std::size_t>(k)], x[static_cast<std::size_t>(p)]);
  }
  trsv_lower(lu_, x, /*unit_diagonal=*/true);
  trsv_upper(lu_, x);
  return x;
}

Vector DenseLU::solve_transpose(std::span<const double> b) const {
  check_arg(valid(), "DenseLU::solve_transpose on empty factorization");
  const int n = order();
  check_arg(static_cast<int>(b.size()) == n, "DenseLU::solve_transpose: size mismatch");
  // Aᵀ x = b  with PA = LU  =>  Aᵀ = Uᵀ Lᵀ P, so solve Uᵀ y = b, Lᵀ z = y,
  // then x = Pᵀ z (undo the row swaps in reverse).
  Vector x(b.begin(), b.end());
  trsv_upper_t(lu_, x);
  trsv_lower_t(lu_, x, /*unit_diagonal=*/true);
  for (int k = n - 1; k >= 0; --k) {
    const int p = pivots_[static_cast<std::size_t>(k)];
    if (p != k) std::swap(x[static_cast<std::size_t>(k)], x[static_cast<std::size_t>(p)]);
  }
  return x;
}

Matrix DenseLU::inverse() const {
  check_arg(valid(), "DenseLU::inverse on empty factorization");
  const int n = order();
  Matrix inv(n, n);
  Vector e(static_cast<std::size_t>(n), 0.0);
  for (int c = 0; c < n; ++c) {
    e[static_cast<std::size_t>(c)] = 1.0;
    Vector x = solve(e);
    inv.set_col(c, x);
    e[static_cast<std::size_t>(c)] = 0.0;
  }
  return inv;
}

}  // namespace gpumip::linalg
