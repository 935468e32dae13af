#include "checker.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

namespace perfbench {

using namespace gpumip;

namespace {

constexpr double kFeasTol = 1e-6;  ///< rows, bounds, integrality (scaled)
constexpr double kObjTol = 1e-6;   ///< objective vs cᵀx and vs reference

/// Relative agreement each method must reach against the simplex objective:
/// exact-vertex simplex 1e-6, interior point 1e-4, PDHG at tol 1e-4 1e-3.
double relaxation_tol(lp::LpMethod method) {
  switch (method) {
    case lp::LpMethod::Simplex: return 1e-6;
    case lp::LpMethod::InteriorPoint: return 1e-4;
    case lp::LpMethod::Pdhg: return 1e-3;
  }
  return 0.0;
}

std::string fmt(const char* format, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, a, b);
  return buf;
}

}  // namespace

std::string check_mip(const mip::MipModel& model, const SolveReport& report,
                      double reference_objective) {
  if (report.status != mip::MipStatus::Optimal) {
    return std::string("status ") + mip::mip_status_name(report.status);
  }
  if (!report.has_solution) return "no solution";
  const lp::LpModel& lp = model.lp();
  const int n = lp.num_cols();
  if (static_cast<int>(report.x.size()) != n) return "x has the wrong length";
  for (int j = 0; j < n; ++j) {
    const double v = report.x[static_cast<std::size_t>(j)];
    if (!std::isfinite(v)) return "x is not finite";
    const lp::ColumnDef& c = lp.col(j);
    const double tol = kFeasTol * std::max(1.0, std::abs(v));
    if (v < c.lb - tol || v > c.ub + tol) return fmt("column bound violated: x=%g (col %g)", v, j);
    if (model.is_integer(j) && std::abs(v - std::round(v)) > tol) {
      return fmt("integrality violated: x=%g (col %g)", v, j);
    }
  }
  // Row activities, each scaled by its largest term and its bound.
  std::vector<double> activity(static_cast<std::size_t>(lp.num_rows()), 0.0);
  std::vector<double> scale(static_cast<std::size_t>(lp.num_rows()), 1.0);
  for (const auto& t : lp.entries()) {
    const double term = t.value * report.x[static_cast<std::size_t>(t.col)];
    activity[static_cast<std::size_t>(t.row)] += term;
    scale[static_cast<std::size_t>(t.row)] =
        std::max(scale[static_cast<std::size_t>(t.row)], std::abs(term));
  }
  for (int i = 0; i < lp.num_rows(); ++i) {
    const lp::RowDef& r = lp.row(i);
    double s = scale[static_cast<std::size_t>(i)];
    if (std::isfinite(r.lb)) s = std::max(s, std::abs(r.lb));
    if (std::isfinite(r.ub)) s = std::max(s, std::abs(r.ub));
    const double a = activity[static_cast<std::size_t>(i)];
    if (a < r.lb - kFeasTol * s || a > r.ub + kFeasTol * s) {
      return fmt("row violated: activity %g (row %g)", a, i);
    }
  }
  if (std::abs(report.objective - reference_objective) >
      kObjTol * (1.0 + std::abs(reference_objective))) {
    return fmt("objective %.9g != reference %.9g", report.objective, reference_objective);
  }
  // After postsolve the facade sets the objective to c'x, so with presolve
  // on (every workload) this holds by construction; it guards the rest.
  const double cx = lp.objective_value(report.x);
  if (std::abs(report.objective - cx) > kObjTol * (1.0 + std::abs(cx))) {
    return fmt("objective %.9g != c'x %.9g", report.objective, cx);
  }
  return {};
}

std::string check_relaxation(const lp::LpResult& result, double reference_objective,
                             lp::LpMethod method) {
  if (result.status != lp::LpStatus::Optimal) {
    return std::string("relaxation status ") + lp::lp_status_name(result.status);
  }
  if (!std::isfinite(result.objective)) return "relaxation objective is not finite";
  if (std::abs(result.objective - reference_objective) >
      relaxation_tol(method) * (1.0 + std::abs(reference_objective))) {
    return fmt("relaxation objective %.9g != reference %.9g", result.objective,
               reference_objective);
  }
  return {};
}

}  // namespace perfbench
