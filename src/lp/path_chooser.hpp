// Runtime LP-method decision (paper sections 2.3, 5.4 and claims C6/C7):
// the "super-MIP-solver" inspects the instance at solve time and
// choose_method() picks WHICH LP algorithm solves it (dual simplex,
// interior point, or restarted PDHG). The decision table lives in
// docs/METHODS.md; it keys on warm-start availability, batch occupancy,
// matrix density, and size.
//
// The method also fixes WHERE its linear algebra runs, so this is the one
// dense-vs-sparse decision (claim C6): PDHG runs on matrix-free sparse
// kernels (SpMV over the CSR), while simplex (B⁻¹) and IPM (Cholesky of
// A D Aᵀ) run on the dense backend and lp::charge_to_device prices them as
// dense kernels. The density gate of steps 3-4 (kPdhgDensityMax) is
// therefore where a sparse matrix is routed to sparse kernels.
//
// The thresholds the decision keys on are named constants in
// path_chooser.cpp, each next to the measurement that set it.
//
// Every choose_method() decision is exported as gpumip.lp.method.* counters
// and a gpumip.lp.method.choice trace instant so bench_e9_methods can show
// the crossover surface rather than assert it.
#pragma once

#include <optional>

#include "sparse/formats.hpp"

namespace gpumip::lp {

enum class LpMethod {
  Simplex,        ///< (dual) simplex: exact vertex + basis, warm-start king
  InteriorPoint,  ///< Mehrotra predictor-corrector: few heavy iterations
  Pdhg,           ///< restarted PDHG: matrix-free, batches into lockstep waves
};

/// Stable lowercase names ("simplex", "interior_point", "pdhg") — the
/// vocabulary of docs/METHODS.md (check.sh's methods-doc gate asserts every
/// name below appears there).
const char* lp_method_name(LpMethod method) noexcept;

/// Per-solve facts the decision keys on, beyond the matrix itself.
struct MethodContext {
  bool warm_basis = false;     ///< a parent basis is available (dual simplex)
  bool warm_iterates = false;  ///< parent primal/dual iterates (PDHG warm start)
  int batch_size = 1;          ///< instances solved together in lockstep
  double tol = 1e-6;           ///< accuracy the caller needs
  /// Programmatic pin (e.g. mip::MipOptions::lp_method). Routing it through
  /// choose_method instead of branching at the caller keeps the
  /// every-decision-is-recorded contract: the pin still emits the
  /// gpumip.lp.method.* counters (as forced) and the choice trace instant.
  std::optional<LpMethod> forced;
};

/// Decides which LP method solves an instance of matrix `a` under `ctx`.
/// Decision table (docs/METHODS.md, "Choosing a method"):
///   1. a ctx.forced pin wins; it is counted as forced.
///   2. warm basis -> Simplex (dual simplex reuse beats everything).
///   3. batched (>= 16 instances), density <= 0.05 and >= 48 rows -> Pdhg.
///   4. density <= 0.05 and >= 4096 rows -> Pdhg (warm iterates lower the
///      size bar to 48 rows).
///   5. >= 48 rows -> InteriorPoint.
///   6. otherwise -> Simplex.
/// Tolerances below 1e-8 disqualify Pdhg at steps 3-4.
LpMethod choose_method(const sparse::Csr& a, const MethodContext& ctx);

}  // namespace gpumip::lp
