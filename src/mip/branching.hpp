// Branching-variable selection: the engine's one rule, most-fractional.
#pragma once

#include <span>
#include <vector>

namespace gpumip::mip {

/// The integer variable whose value is farthest from an integer, or -1 if
/// none is more than `int_tol` away. Distance is min(frac, 1 - frac) with
/// frac = x_j - floor(x_j); ties go to the lowest index. Scans the first
/// min(x.size(), integer_cols.size()) entries and allocates nothing.
[[nodiscard]] int most_fractional(std::span<const double> x, const std::vector<bool>& integer_cols,
                                  double int_tol);

}  // namespace gpumip::mip
