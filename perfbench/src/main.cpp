// perfbench: set-up, the timed closed loop, and the report.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--drill]
//
// Untraced runs print the end-to-end metrics; traced runs print the
// per-layer metrics. The last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics. --drill perturbs two answers
// (chosen from the seed): one op's solution, the next op's objective, so
// the checker's count can be seen to trip twice.
// A traced run writes its spans next to the binary, as
// spans-<workload>-<seed>.json.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using namespace perfbench;

constexpr int kSetupShards = 3;
constexpr double kOpCapS = 60.0;  ///< an op slower than this counts as failed
constexpr int kSetupProbes = 3;    ///< speed probes before each shard and after the last
constexpr double kProbeEveryS = 0.5;  ///< a speed probe per this much loop time

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool drill = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\nusage: perfbench --workload <", why);
  const auto names = workload_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::fprintf(stderr, "%s%s", i ? "|" : "", names[i].c_str());
  }
  std::fprintf(stderr, "> --seed <n> --seconds <s> --trace <0|1> [--drill]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(value().c_str());
    else if (k == "--trace") a.trace = value() == "1";
    else if (k == "--drill") a.drill = true;
    else usage(("unknown argument " + k).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[96];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           ms[i].unit + "\"}";
  }
  return out + "}";
}

/// Per-layer metrics from summed registry deltas (`d`), the workload's own
/// additions (`w`) and the span totals, each divided per op where it is a
/// count or a busy time.
std::vector<Metric> layer_metrics(const std::map<std::string, double>& d,
                                  const std::map<std::string, double>& w,
                                  const std::map<std::string, std::pair<double, double>>& spans,
                                  double generate_s, long ops) {
  auto get = [](const std::map<std::string, double>& m, const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  auto c = [&](const std::string& k) { return get(d, k); };
  auto hsum = [&](const std::string& k) { return get(d, k + "#sum"); };
  auto hcount = [&](const std::string& k) { return get(d, k + "#count"); };
  auto span = [&](const std::string& k) {
    const auto it = spans.find(k);
    return it == spans.end() ? 0.0 : it->second.first;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double n = static_cast<double>(std::max(1L, ops));

  const double spx_busy = hsum("gpumip.lp.solve.seconds{method=simplex}");
  const double ipm_busy = hsum("gpumip.lp.solve.seconds{method=interior_point}");
  const double pdhg_busy = hsum("gpumip.lp.solve.seconds{method=pdhg}");
  const double mip_busy = hsum("gpumip.mip.solve");
  const double published_iters = c("gpumip.lp.ops.iterations");
  const double pdhg_iters = c("gpumip.lp.pdhg.iterations");
  // Interior-point iterations are not published to the registry, so they
  // count only the IPM calls the benchmark makes itself (relax-batch).
  const double ipm_iters = get(w, "lp.ipm.iterations");
  // Node-LP iterations: the facade's total on the sequential path (every
  // method); on the supervised path, where that total stays 0, the
  // published simplex/PDHG iterations.
  const double mip_iters =
      w.count("mip.lp_iterations") ? get(w, "mip.lp_iterations") : published_iters;
  const double nodes = c("gpumip.mip.nodes.evaluated");
  const double occ_sum = hsum("gpumip.lp.batch.occupancy{method=simplex}") +
                         hsum("gpumip.lp.batch.occupancy{method=pdhg}");
  const double occ_count = hcount("gpumip.lp.batch.occupancy{method=simplex}") +
                           hcount("gpumip.lp.batch.occupancy{method=pdhg}");
  const double batched_busy = span("lp.solve_batched") + span("lp.solve_batched_pdhg");
  const double solve_span = span("gpumip.solve");
  const double presolve_span = span("trace.lp.presolve");
  double trace_only = 0.0;
  for (const auto& [name, t] : spans) {
    if (name.rfind("trace.", 0) == 0) trace_only += t.first;
  }
  const double op_span = span("op");

  return {
      {"problems.generate_s", generate_s, "s"},
      {"lp.presolve.busy_s", presolve_span / n, "s/op"},
      {"lp.presolve.cols_removed", get(w, "lp.presolve.cols_removed") / n, "count/op"},
      {"lp.chooser.simplex", c("gpumip.lp.method.chosen{method=simplex}") / n, "count/op"},
      {"lp.chooser.ipm", c("gpumip.lp.method.chosen{method=interior_point}") / n, "count/op"},
      {"lp.chooser.pdhg", c("gpumip.lp.method.chosen{method=pdhg}") / n, "count/op"},
      {"lp.simplex.busy_s", spx_busy / n, "s/op"},
      {"lp.simplex.solves", c("gpumip.lp.solves{method=simplex}") / n, "count/op"},
      {"lp.simplex.pivots", std::max(0.0, published_iters - pdhg_iters) / n, "count/op"},
      {"lp.simplex.refactors", c("gpumip.lp.ops.refactor") / n, "count/op"},
      {"lp.ipm.busy_s", ipm_busy / n, "s/op"},
      {"lp.ipm.solves", c("gpumip.lp.solves{method=interior_point}") / n, "count/op"},
      {"lp.ipm.iterations", ipm_iters / n, "count/op"},
      {"lp.pdhg.busy_s", pdhg_busy / n, "s/op"},
      {"lp.pdhg.iterations", pdhg_iters / n, "count/op"},
      {"lp.pdhg.restarts", c("gpumip.lp.pdhg.restarts") / n, "count/op"},
      {"lp.batched.busy_s", batched_busy / n, "s/op"},
      {"lp.batched.waves",
       (c("gpumip.lp.batch.waves{method=simplex}") + c("gpumip.lp.batch.waves{method=pdhg}")) / n,
       "count/op"},
      {"lp.batched.occupancy_mean", ratio(occ_sum, occ_count), "ratio"},
      {"mip.busy_s", mip_busy / n, "s/op"},
      {"mip.self_s", std::max(0.0, mip_busy - (mip_busy > 0 ? spx_busy + ipm_busy + pdhg_busy : 0.0)) / n,
       "s/op"},
      {"mip.nodes", nodes / n, "count/op"},
      {"mip.lp_iters_per_node", ratio(mip_iters, nodes), "ratio"},
      {"mip.cuts", c("gpumip.mip.cuts.generated") / n, "count/op"},
      {"mip.reuse_ratio", ratio(c("gpumip.mip.nodes.reuse_hits"), nodes), "ratio"},
      {"mip.prune_ratio", ratio(c("gpumip.mip.tree.pruned"), c("gpumip.mip.tree.pushed")), "ratio"},
      {"gpu.kernel_launches", c("gpumip.gpu.kernel.launches") / n, "count/op"},
      {"gpu.h2d_bytes", c("gpumip.gpu.xfer.h2d.bytes") / n, "B/op"},
      {"gpu.d2h_bytes", c("gpumip.gpu.xfer.d2h.bytes") / n, "B/op"},
      {"gpu.alloc_calls", c("gpumip.gpu.alloc.calls") / n, "count/op"},
      {"gpu.occupancy_mean",
       ratio(hsum("gpumip.gpu.kernel.occupancy"), hcount("gpumip.gpu.kernel.occupancy")), "ratio"},
      {"gpu.device_s", get(w, "gpu.device_s") / n, "sim_s/op"},
      {"strategies.replay_s",
       (c("gpumip.supervisor.dispatched") > 0 || solve_span == 0.0)
           ? 0.0
           : std::max(0.0, solve_span - presolve_span - mip_busy) / n,
       "s/op"},
      {"supervisor.dispatched", c("gpumip.supervisor.dispatched") / n, "count/op"},
      {"supervisor.worker_busy_s", hsum("gpumip.supervisor.worker_busy_seconds") / n, "sim_s/op"},
      {"supervisor.imbalance", get(w, "supervisor.imbalance") / n, "ratio"},
      {"supervisor.checkpoint_s", get(w, "supervisor.checkpoint_s") / n, "s/op"},
      {"supervisor.checkpoint_bytes", get(w, "supervisor.checkpoint_bytes") / n, "B/op"},
      {"simmpi.msgs", c("gpumip.simmpi.msgs") / n, "count/op"},
      {"simmpi.bytes", c("gpumip.simmpi.bytes") / n, "B/op"},
      {"simmpi.recv_wait_s", hsum("gpumip.simmpi.recv.block_seconds") / n, "s/op"},
      {"obs.trace_overhead", ratio(trace_only, op_span - trace_only), "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::unique_ptr<Workload> workload = make_workload(args.workload);
  if (!workload) usage(("unknown workload " + args.workload).c_str());

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::printf(
      "run-record: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"drill\": %d, \"commit\": \"%s\", \"build_type\": \"%s\", \"GPUMIP_OBS\": \"ON\", "
      "\"GPUMIP_CHECKED\": \"OFF\", \"GPUMIP_SANITIZE\": \"\", \"nproc\": %ld}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, args.drill ? 1 : 0, commit ? commit : "unknown", PERFBENCH_BUILD_TYPE,
      nproc);

  // ---- set-up, several times: setup_s is the median shard ----
  SpeedProbe probe;
  std::vector<double> setup_probes, loop_probes;
  auto probe_setup = [&] {
    for (int i = 0; i < kSetupProbes; ++i) setup_probes.push_back(probe.run());
  };
  std::vector<double> setup_times, generate_times;
  try {
    for (int shard = 0; shard < kSetupShards; ++shard) {
      probe_setup();
      double generate_s = 0.0;
      const double t0 = now_s();
      workload->setup_shard(args.seed, shard, generate_s);
      setup_times.push_back(now_s() - t0);
      generate_times.push_back(generate_s);
    }
    probe_setup();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 1;
  }
  const std::size_t pool = workload->pool_size();

  // ---- the timed closed loop: one client, the next op after the last ----
  // The first pass over the pool always completes (sim_s is its geometric
  // mean per op); the loop then keeps cycling the pool until --seconds pass.
  SpanLog log;
  SpanLog* tlog = args.trace ? &log : nullptr;
  const long drill_op = static_cast<long>(args.seed % (pool - 1));  // and drill_op + 1
  std::vector<std::vector<double>> item_times(pool);  // host s of each pool item's ops
  std::map<std::string, double> deltas, additions;
  double sim_log_sum = 0.0;  // first pass: Σ log(sim_s), for the geometric mean
  long attempted = 0, failed = 0;
  std::vector<std::string> failures;  // the first few, for the report
  const double loop_start = now_s();
  double last_probe = -kProbeEveryS;
  while (static_cast<std::size_t>(attempted) < pool || now_s() - loop_start < args.seconds) {
    if (now_s() - loop_start - last_probe >= kProbeEveryS) {
      last_probe = now_s() - loop_start;
      loop_probes.push_back(probe.run());
    }
    const long op = attempted++;
    const std::size_t item = static_cast<std::size_t>(op) % pool;
    Perturb perturb = Perturb::kNone;
    if (args.drill && op == drill_op) perturb = Perturb::kSolution;
    if (args.drill && op == drill_op + 1) perturb = Perturb::kObjective;
    Scope op_span(tlog, "op", op);
    RegistryReading before;
    if (tlog) {
      Scope s(tlog, "trace.registry", op);
      before = RegistryReading::take();
    }
    OpOutcome out;
    const double t0 = now_s();
    try {
      out = workload->run(item, op, tlog, perturb);
    } catch (const std::exception& e) {
      out.ok = false;
      out.failure = std::string("threw: ") + e.what();
    }
    const double dt = now_s() - t0;
    if (out.ok && dt > kOpCapS) {
      out.ok = false;
      out.failure = "exceeded the per-op time cap";
    }
    if (!out.ok) {
      ++failed;
      if (failures.size() < 10) failures.push_back("op " + std::to_string(op) + ": " + out.failure);
    }
    item_times[item].push_back(dt);
    if (static_cast<std::size_t>(op) < pool) sim_log_sum += std::log(std::max(out.sim_s, 1e-12));
    if (tlog) {
      Scope s(tlog, "trace.registry", op);
      for (const auto& [k, v] : RegistryReading::take().minus(before)) deltas[k] += v;
      for (const auto& [k, v] : out.layer) additions[k] += v;
    }
  }
  const double loop_s = now_s() - loop_start;

  // ---- report ----
  // Host time of a pool item is the median over its repeats, so a burst
  // of load from another process on the host moves one repeat, not the
  // item; the timing metrics are taken over these per-item medians, and
  // scaled to the reference machine speed by the probes taken alongside.
  const double setup_probe = quantile(setup_probes, 0.5), loop_probe = quantile(loop_probes, 0.5);
  const double setup_scale = kProbeRefS / setup_probe, loop_scale = kProbeRefS / loop_probe;
  std::vector<double> item_s;
  double item_sum = 0.0;
  for (const auto& times : item_times) {
    item_s.push_back(quantile(times, 0.5));
    item_sum += item_s.back();
  }
  const double repeats = static_cast<double>(attempted) / static_cast<double>(pool);
  const double p50 = quantile(item_s, 0.5), p90 = quantile(item_s, 0.9);
  const long beyond_p90 = std::count_if(item_s.begin(), item_s.end(), [&](double t) { return t > p90; });
  std::printf("pool: %zu items, %d set-up shards; ops attempted %ld (%.2f per item) in %.3f s, failed %ld, wrong_ratio %.6g (%ld/%ld)\n",
              pool, kSetupShards, attempted, repeats, loop_s, failed,
              static_cast<double>(failed) / static_cast<double>(attempted), failed, attempted);
  for (const std::string& f : failures) std::printf("failure: %s\n", f.c_str());
  std::printf("speed probe: median %.6g s over %zu in set-up, %.6g s over %zu in the loop "
              "(reference %g s); unscaled: setup_s %.6g s, solves_per_s %.6g ops/s, "
              "solve_s.p50 %.6g s\n",
              setup_probe, setup_probes.size(), loop_probe, loop_probes.size(), kProbeRefS,
              quantile(setup_times, 0.5), static_cast<double>(pool) / item_sum, p50);
  std::printf("solve_s (per-item medians, scaled): p50 %.6g s over %zu items; ", p50 * loop_scale,
              item_s.size());
  if (beyond_p90 >= 10) {
    std::printf("p90 %.6g s (%ld items beyond it)\n", p90 * loop_scale, beyond_p90);
  } else {
    std::printf("p90 not reported (%ld items beyond it, fewer than 10)\n", beyond_p90);
  }
  std::vector<Metric> metrics;
  if (args.trace) {
    const auto spans = log.totals();
    for (const auto& [name, t] : spans) {
      std::printf("span %-26s total %.6f s  self %.6f s\n", name.c_str(), t.first, t.second);
    }
    metrics = layer_metrics(deltas, additions, spans, quantile(generate_times, 0.5), attempted);
    const std::string spans_name =
        "spans-" + args.workload + "-" + std::to_string(args.seed) + ".json";
    log.write_json((std::filesystem::path(argv[0]).parent_path() / spans_name).string());
  } else {
    metrics = {
        {"setup_s", quantile(setup_times, 0.5) * setup_scale, "s"},
        {"solves_per_s", static_cast<double>(pool) / (item_sum * loop_scale), "ops/s"},
        {"solve_s.p50", p50 * loop_scale, "s"},
        {"sim_s", std::exp(sim_log_sum / static_cast<double>(pool)), "sim_s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
  }
  for (const Metric& m : metrics) std::printf("metric %-28s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed, json_metrics(metrics).c_str());
  return 0;
}
