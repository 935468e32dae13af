// Sim-clock time-series sampler over the obs metrics registry.
//
// A Sampler turns the registry's end-of-run totals into a time series:
// each tick that crosses a period boundary appends one row of per-column
// *deltas* since the previous row, so benches can show occupancy ramp-up,
// tree growth, and wave-size curves over time instead of a single total.
//
// Clock. Ticks come from a simulated clock (`tick_sim` with a simmpi rank
// clock or a gpu::Device stream clock), so every row is stamped with sim
// time; because both the tick times and the sampled instruments derive
// from the deterministic simulation, rows are bit-identical under
// schedule replay — provided the sampled instruments are mutated only by
// the sampling thread's deterministic path (the ownership contract; see
// docs/METRICS.md "Time series").
//
// Threading. A Sampler is owned by one sampling thread at a time: ticks
// and export are not internally synchronized (registry reads are relaxed
// atomics, so concurrent *recording* elsewhere is always safe). The
// thread-local `Bind` guard routes `GPUMIP_OBS_SAMPLE_TICK` hook sites in
// the solver to the bound sampler and costs nothing when none is bound.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace gpumip::obs {

struct SamplerOptions {
  /// Simulated seconds between rows. Ticks arriving
  /// faster than this are coalesced; a tick that crosses several
  /// boundaries at once emits one row stamped at the last boundary.
  double period = 1e-3;
  /// Explicit flattened instrument names to sample. Empty: every
  /// registered counter, gauge, and histogram whose name starts with
  /// "gpumip." at construction time becomes a column.
  std::vector<std::string> columns;
  /// Rows beyond this are dropped (and counted in dropped()) so a
  /// misconfigured period cannot grow without bound.
  std::size_t max_samples = 65536;
};

/// What a column samples. Counters sample the delta of their value,
/// gauges their current level, histograms the delta of count and sum as
/// two columns (so per-interval means are recoverable).
enum class ColumnKind { Counter, Gauge, HistCount, HistSum };

struct SamplerColumn {
  std::string name;  ///< flattened instrument name (labels included)
  ColumnKind kind = ColumnKind::Counter;
};

struct SampleRow {
  double ts = 0.0;  ///< sim seconds
  std::vector<double> values;  ///< one entry per column (delta or level)
};

class Sampler {
 public:
  explicit Sampler(SamplerOptions options = {});

  /// Appends a row if `sim_now` crossed a period boundary since the last
  /// row (coalescing multiple crossed boundaries into one row).
  void tick_sim(double sim_now);
  /// Unconditional sample stamped `ts` (used by tick_sim and by tests).
  void sample_now(double ts);

  const std::vector<SamplerColumn>& columns() const noexcept { return columns_; }
  const std::vector<SampleRow>& rows() const noexcept { return rows_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  double period() const noexcept { return options_.period; }

  /// The series as a JSON document (schema gpumip.timeseries.v1; layout
  /// in docs/METRICS.md).
  std::string to_json() const;
  /// Writes to_json() to `path`; throws Error(kIoError) on failure.
  void export_json(const std::string& path) const;
  /// Exports to the path named by GPUMIP_TIMESERIES_OUT, if set. Returns
  /// the path written to ("" when unset).
  std::string export_if_requested() const;

  /// Thread-local RAII binding: while alive, GPUMIP_OBS_SAMPLE_TICK hook
  /// sites on this thread forward to the sampler. Nestable (restores the
  /// previous binding on destruction).
  class Bind {
   public:
    explicit Bind(Sampler& sampler) noexcept;
    ~Bind();
    Bind(const Bind&) = delete;
    Bind& operator=(const Bind&) = delete;

   private:
    Sampler* previous_;
  };

  /// The sampler bound to this thread, if any.
  static Sampler* bound() noexcept;
  /// Forwards to bound()->tick_sim(sim_now); no-op when nothing is bound.
  static void tick_bound(double sim_now);

 private:
  void snapshot_baseline();
  double read_column(std::size_t i) const;

  SamplerOptions options_;
  std::vector<SamplerColumn> columns_;
  std::vector<double> baseline_;  ///< instrument values at the last row
  std::vector<SampleRow> rows_;
  std::uint64_t dropped_ = 0;
  double next_due_ = 0.0;   ///< first uncrossed sim boundary
  bool sim_started_ = false;
};

}  // namespace gpumip::obs

// Hook macro for solver-side tick sites. Zero-cost in GPUMIP_OBS=OFF
// builds (parsed, never evaluated), one thread-local read when ON and no
// sampler is bound.
#ifdef GPUMIP_OBS_ENABLED
#define GPUMIP_OBS_SAMPLE_TICK(sim_now) ::gpumip::obs::Sampler::tick_bound(sim_now)
#else
#define GPUMIP_OBS_SAMPLE_TICK(sim_now)                 \
  do {                                                  \
    if (false) static_cast<void>(sim_now);              \
  } while (false)
#endif
