// Answer checks. A MIP answer must be feasible for the *original* model,
// carry an objective equal to cᵀx, and match the set-up reference solve; a
// relaxation must match its simplex reference within the method's
// agreement tolerance. Each returns an empty string when the answer passes,
// otherwise the first reason it fails.
#pragma once

#include <string>

#include "core/gpumip.hpp"

namespace perfbench {

std::string check_mip(const gpumip::mip::MipModel& model, const gpumip::SolveReport& report,
                      double reference_objective);

std::string check_relaxation(const gpumip::lp::LpResult& result, double reference_objective,
                             gpumip::lp::LpMethod method);

}  // namespace perfbench
