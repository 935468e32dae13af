// Sparse BLAS kernels (host reference implementations).
#pragma once

#include <span>

#include "sparse/formats.hpp"

namespace gpumip::sparse {

/// y = alpha A x + beta y (CSR).
void spmv(double alpha, const Csr& a, std::span<const double> x, double beta,
          std::span<double> y);

/// y = alpha Aᵀ x + beta y (CSR input).
void spmv_t(double alpha, const Csr& a, std::span<const double> x, double beta,
            std::span<double> y);

/// Dot of sparse column j of A (CSC) with a dense vector.
double column_dot(const Csc& a, int j, std::span<const double> x);

}  // namespace gpumip::sparse
