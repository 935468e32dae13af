// perfbench: the repository benchmark (see perfbench/README.md).
//
// One closed-loop client drives a workload's seeded instance pool through
// the public solver API, checks every answer, and reports end-to-end
// metrics (untraced run) or per-layer metrics (traced run). This header
// holds the pieces the main loop, the workloads and the tracer share.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- machine speed -----------------------------------------------------------

/// A fixed kernel of the benchmark's own (a sparse power iteration and a
/// sort, no solver code), timed alongside the ops. Host times are scaled by
/// kProbeRefS over its median time, so a change in the speed the machine
/// gives the process (other tenants, clock) cancels out of the metrics.
class SpeedProbe {
 public:
  SpeedProbe();
  /// Runs the kernel once; returns its host seconds.
  double run();

 private:
  double pass(int index);

  std::vector<int> col_;
  std::vector<double> val_, x_, y_, keys_, sorted_;
  volatile double sink_ = 0.0;
};

/// The probe's host time at the reference machine speed.
constexpr double kProbeRefS = 0.010;

// ---- tracing: spans kept in memory, written when the run ends ------------

struct Span {
  std::string name;
  long op = -1;      ///< op id shared by an op's spans (-1: set-up)
  int parent = -1;   ///< index of the enclosing span, -1 for a root
  double start = 0.0, end = 0.0;
};

class SpanLog {
 public:
  /// Opens a span; returns its index. Nesting follows open/close order.
  int open(const std::string& name, long op);
  void close(int index);
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Per-name total and self time (a span minus the time its children cover).
  std::map<std::string, std::pair<double, double>> totals() const;
  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null log makes it free (untraced runs).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, long op) : log_(log) {
    if (log_) index_ = log_->open(name, op);
  }
  ~Scope() {
    if (log_) log_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int index_ = -1;
};

// ---- registry deltas (the obs registry is process-global) -----------------

/// A read of every counter and histogram (count + sum) of obs::Registry.
struct RegistryReading {
  std::map<std::string, double> values;  ///< counters; histograms as name#count, name#sum
  static RegistryReading take();
  /// this - before, over every name either side has.
  std::map<std::string, double> minus(const RegistryReading& before) const;
};

// ---- workloads --------------------------------------------------------------

/// What one op produced: its answer check, its simulated time, and the
/// per-layer quantities only the benchmark itself can see.
struct OpOutcome {
  bool ok = false;
  std::string failure;                 ///< why the check failed
  double sim_s = 0.0;                  ///< simulated time to solution
  std::map<std::string, double> layer; ///< per-layer additions (traced runs)
};

/// How the checker drill corrupts an op's answer before the check.
enum class Perturb {
  kNone,
  kSolution,  ///< MIP: x[0] += 0.5; relaxation: status set to IterationLimit
  kObjective, ///< the reported objective moves; x and status are left alone
};

/// A workload owns its instance pool. Set-up happens in shards, so the
/// main loop can time several set-ups per run; ops then cycle the pool.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates and reference-solves shard `shard` of the pool; adds its
  /// instance-generation seconds to `generate_s`.
  virtual void setup_shard(std::uint64_t seed, int shard, double& generate_s) = 0;
  virtual std::size_t pool_size() const = 0;
  /// Runs pool item `item` as op `op`. `log` is null on untraced runs.
  /// `perturb` corrupts the answer before the check (the checker drill).
  virtual OpOutcome run(std::size_t item, long op, SpanLog* log, Perturb perturb) = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name);
std::vector<std::string> workload_names();

}  // namespace perfbench
