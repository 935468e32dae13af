// Shared helpers for the experiment benches. Every bench binary prints its
// experiment's series (the paper-shaped table) deterministically from the
// simulated clocks, then runs google-benchmark wall-time measurements of
// the underlying operations.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "gpu/device.hpp"
#include "lp/op_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gpumip::bench {

inline void title(const std::string& id, const std::string& text) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), text.c_str());
  std::printf("================================================================\n");
}

inline void row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

inline void note(const std::string& text) { std::printf("  %s\n", text.c_str()); }

/// A representative simplex recipe for an m x n problem at `density`: ~2m
/// iterations, one FTRAN/BTRAN/pricing/eta per iteration, refactor every 64.
inline lp::LpOpStats simplex_recipe(int m, int n, double density) {
  lp::LpOpStats ops;
  ops.m = m;
  ops.n = n;
  ops.nnz = static_cast<long>(density * m * n);
  ops.iterations = 2L * m;
  ops.ftran = ops.btran = ops.price_full = ops.eta_updates = ops.iterations;
  ops.refactor = ops.iterations / 64 + 1;
  return ops;
}

/// Simulated seconds of one recipe with its pricing passes charged dense
/// and sparse (the cost-model ablation of lp::charge_to_device).
struct PricedPaths {
  double dense = 0.0;
  double sparse = 0.0;
};

inline PricedPaths price_paths(const lp::LpOpStats& ops,
                               const gpu::CostModelConfig& device = {}) {
  gpu::Device dense(device), sparse(device);
  lp::charge_to_device(dense, 0, ops, /*sparse_pricing=*/false);
  lp::charge_to_device(sparse, 0, ops, /*sparse_pricing=*/true);
  return {dense.synchronize(), sparse.synchronize()};
}

/// The cost model's dense/sparse crossover for an m x n simplex recipe:
/// scanning density up in steps of 0.01, the last density at which the
/// sparse charge is the argmin (0 if it never is, 1 if it always is).
inline double dense_sparse_crossover(const gpu::CostModelConfig& device, int m, int n) {
  double prev = 0.0;
  for (double density = 0.01; density <= 1.0; density += 0.01) {
    const PricedPaths t = price_paths(simplex_recipe(m, n, density), device);
    if (t.sparse >= t.dense) return prev;
    prev = density;
  }
  return 1.0;
}

/// Prints the table then hands over to google-benchmark. On exit, dumps the
/// process-wide metrics registry to $GPUMIP_METRICS_OUT if set (this is how
/// scripts/bench.sh harvests the observability counters; the simulated
/// tables above are deterministic, so the export is too) and the event
/// trace to $GPUMIP_TRACE_OUT if set (obs/trace.hpp).
inline int run_benchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const std::string exported = obs::export_if_requested();
  if (!exported.empty()) std::printf("metrics written to %s\n", exported.c_str());
  const std::string traced = obs::trace::export_if_requested();
  if (!traced.empty()) std::printf("trace written to %s\n", traced.c_str());
  return 0;
}

}  // namespace gpumip::bench
