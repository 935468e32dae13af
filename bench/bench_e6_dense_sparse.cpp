// E6 — dense vs sparse code paths and the crossover (paper section 5.4,
// claim C6).
//
// The same LP relaxation is priced through both code paths: dense kernels
// (bandwidth-bound, uniform warps) and sparse kernels (per-nonzero work at
// the sparse efficiency with divergence). Sweeping matrix density locates
// the crossover as the argmin of the two charges. The solver itself makes
// this decision through the LP method (lp/path_chooser.hpp): PDHG's
// matrix-free sparse kernels take large sparse LPs, simplex and IPM run on
// the dense backend.
#include "bench/common.hpp"
#include "lp/simplex.hpp"
#include "problems/generators.hpp"
#include "support/strings.hpp"

namespace {

using namespace gpumip;

void print_experiment() {
  bench::title("E6", "dense vs sparse LP code path across matrix density");
  // Production-scale shapes (the regime the paper talks about): kernels
  // leave the launch-latency floor and the per-nonzero asymmetry shows.
  const int rows = 512, cols = 768;
  bench::row("  problem shape %d x %d, simplex recipe of %ld iterations", rows, cols,
             bench::simplex_recipe(rows, cols, 1.0).iterations);
  bench::row("  %-9s %-10s %-13s %-13s %-8s", "density", "nnz", "dense-path", "sparse-path",
             "winner");
  for (double density : {0.02, 0.05, 0.10, 0.20, 0.30, 0.40, 0.60, 0.80, 1.00}) {
    const lp::LpOpStats ops = bench::simplex_recipe(rows, cols, density);
    const bench::PricedPaths t = bench::price_paths(ops);
    bench::row("  %-9.2f %-10ld %-13s %-13s %-8s", density, ops.nnz,
               human_seconds(t.dense).c_str(), human_seconds(t.sparse).c_str(),
               t.sparse < t.dense ? "sparse" : "dense");
  }
  bench::row("  measured crossover: sparse is the argmin up to density %.2f",
             bench::dense_sparse_crossover(gpu::CostModelConfig{}, rows, cols));
  bench::note("expected shape: sparse path wins at low density, dense at high.");

  // Cross-check on a real (small) solve: at this scale both paths sit on
  // the kernel-launch latency floor, so they nearly tie — the paper's
  // latency argument for small problems (section 5.5).
  Rng rng(301);
  lp::LpModel small = problems::sparse_lp(100, 150, 0.05, rng);
  const lp::StandardForm form = lp::build_standard_form(small);
  lp::SimplexSolver solver(form);
  lp::LpResult r = solver.solve_default();
  if (r.status == lp::LpStatus::Optimal) {
    const bench::PricedPaths t = bench::price_paths(r.ops);
    bench::row("  real 100x150 solve at density 0.05: dense %s vs sparse %s (latency floor)",
               human_seconds(t.dense).c_str(), human_seconds(t.sparse).c_str());
  }
}

void memory_comparison() {
  bench::title("E6-b", "device memory: dense image vs CSR at each density");
  const int rows = 512, cols = 1024;
  bench::row("  %-9s %-14s %-14s %-8s", "density", "dense-bytes", "csr-bytes", "ratio");
  Rng rng(302);
  for (double density : {0.02, 0.10, 0.30, 1.00}) {
    lp::LpModel model = problems::sparse_lp(rows, cols, density, rng);
    const sparse::Csr a = model.matrix();
    const std::uint64_t dense_bytes = static_cast<std::uint64_t>(rows) * cols * sizeof(double);
    const std::uint64_t csr_bytes = a.values.size() * sizeof(double) +
                                    a.col_index.size() * sizeof(int) +
                                    a.row_start.size() * sizeof(int);
    bench::row("  %-9.2f %-14s %-14s %.2f", density, human_bytes(dense_bytes).c_str(),
               human_bytes(csr_bytes).c_str(),
               static_cast<double>(csr_bytes) / static_cast<double>(dense_bytes));
  }
}

void BM_price_paths(benchmark::State& state) {
  const lp::LpOpStats ops =
      bench::simplex_recipe(256, 384, static_cast<double>(state.range(0)) / 100.0);
  double dense = 0, sparse = 0;
  for (auto _ : state) {
    const bench::PricedPaths t = bench::price_paths(ops);
    dense = t.dense;
    sparse = t.sparse;
    benchmark::DoNotOptimize(t);
  }
  state.counters["sim_dense_us"] = dense * 1e6;
  state.counters["sim_sparse_us"] = sparse * 1e6;
}
BENCHMARK(BM_price_paths)->Arg(5)->Arg(30)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  memory_comparison();
  return gpumip::bench::run_benchmarks(argc, argv);
}
