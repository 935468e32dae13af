#include "sparse/ops.hpp"

namespace gpumip::sparse {

void spmv(double alpha, const Csr& a, std::span<const double> x, double beta,
          std::span<double> y) {
  check_arg(static_cast<int>(x.size()) == a.cols, "spmv: x size mismatch");
  check_arg(static_cast<int>(y.size()) == a.rows, "spmv: y size mismatch");
  for (int r = 0; r < a.rows; ++r) {
    double sum = 0.0;
    for (int k = a.row_start[static_cast<std::size_t>(r)];
         k < a.row_start[static_cast<std::size_t>(r) + 1]; ++k) {
      sum += a.values[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(a.col_index[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(r)] = alpha * sum + beta * y[static_cast<std::size_t>(r)];
  }
}

void spmv_t(double alpha, const Csr& a, std::span<const double> x, double beta,
            std::span<double> y) {
  check_arg(static_cast<int>(x.size()) == a.rows, "spmv_t: x size mismatch");
  check_arg(static_cast<int>(y.size()) == a.cols, "spmv_t: y size mismatch");
  for (double& v : y) v *= beta;
  for (int r = 0; r < a.rows; ++r) {
    const double xr = alpha * x[static_cast<std::size_t>(r)];
    if (xr == 0.0) continue;
    for (int k = a.row_start[static_cast<std::size_t>(r)];
         k < a.row_start[static_cast<std::size_t>(r) + 1]; ++k) {
      y[static_cast<std::size_t>(a.col_index[static_cast<std::size_t>(k)])] +=
          xr * a.values[static_cast<std::size_t>(k)];
    }
  }
}

double column_dot(const Csc& a, int j, std::span<const double> x) {
  check_arg(j >= 0 && j < a.cols, "column_dot: bad column");
  check_arg(static_cast<int>(x.size()) == a.rows, "column_dot: size mismatch");
  double sum = 0.0;
  for (int k = a.col_start[static_cast<std::size_t>(j)];
       k < a.col_start[static_cast<std::size_t>(j) + 1]; ++k) {
    sum += a.values[static_cast<std::size_t>(k)] *
           x[static_cast<std::size_t>(a.row_index[static_cast<std::size_t>(k)])];
  }
  return sum;
}

}  // namespace gpumip::sparse
