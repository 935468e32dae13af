// Tests for the sim-clock time-series sampler (src/obs/sampler.hpp):
// period-boundary semantics, delta/level column kinds, explicit-column
// resolution, drop accounting, JSON layout, thread-local binding, and —
// the load-bearing property — bit-identical sim-stamped rows under
// schedule replay of a supervised solve.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "parallel/supervisor.hpp"
#include "problems/generators.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace gpumip {
namespace {

using obs::ColumnKind;
using obs::Sampler;
using obs::SamplerOptions;

SamplerOptions explicit_columns(std::vector<std::string> names, double period = 1.0) {
  SamplerOptions options;
  options.period = period;
  options.columns = std::move(names);
  return options;
}

TEST(SamplerTicks, RowsAppearOnlyAtPeriodBoundaries) {
  obs::counter("test.sampler.ticks.c").reset();
  Sampler sampler(explicit_columns({"test.sampler.ticks.c"}, 1.0));
  ASSERT_EQ(sampler.columns().size(), 1u);

  sampler.tick_sim(0.0);  // anchors the grid, no row
  EXPECT_TRUE(sampler.rows().empty());
  sampler.tick_sim(0.5);  // boundary at 1.0 not crossed yet
  EXPECT_TRUE(sampler.rows().empty());
  obs::counter("test.sampler.ticks.c").add(3);
  sampler.tick_sim(1.25);
  ASSERT_EQ(sampler.rows().size(), 1u);
  EXPECT_DOUBLE_EQ(sampler.rows()[0].ts, 1.0);  // stamped at the boundary
  EXPECT_DOUBLE_EQ(sampler.rows()[0].values[0], 3.0);

  // A tick that crosses several boundaries coalesces into ONE row stamped
  // at the last crossed boundary.
  obs::counter("test.sampler.ticks.c").add(2);
  sampler.tick_sim(5.75);
  ASSERT_EQ(sampler.rows().size(), 2u);
  EXPECT_DOUBLE_EQ(sampler.rows()[1].ts, 5.0);
  EXPECT_DOUBLE_EQ(sampler.rows()[1].values[0], 2.0);
}

TEST(SamplerColumns, KindsResolveAndDeltasVsLevels) {
  obs::counter("test.sampler.kinds.c").reset();
  obs::gauge("test.sampler.kinds.g").set(0.0);
  obs::histogram("test.sampler.kinds.h").reset();
  obs::counter("test.sampler.kinds.c").add(10);
  obs::gauge("test.sampler.kinds.g").set(4.0);
  obs::histogram("test.sampler.kinds.h").record(2.0);

  Sampler sampler(explicit_columns(
      {"test.sampler.kinds.c", "test.sampler.kinds.g", "test.sampler.kinds.h"}));
  // The histogram expands into count+sum columns.
  ASSERT_EQ(sampler.columns().size(), 4u);
  EXPECT_EQ(sampler.columns()[0].kind, ColumnKind::Counter);
  EXPECT_EQ(sampler.columns()[1].kind, ColumnKind::Gauge);
  EXPECT_EQ(sampler.columns()[2].kind, ColumnKind::HistCount);
  EXPECT_EQ(sampler.columns()[3].kind, ColumnKind::HistSum);

  obs::counter("test.sampler.kinds.c").add(5);
  obs::gauge("test.sampler.kinds.g").set(7.5);
  obs::histogram("test.sampler.kinds.h").record(3.0);
  obs::histogram("test.sampler.kinds.h").record(5.0);
  sampler.sample_now(1.0);

  const auto& row = sampler.rows().at(0);
  EXPECT_DOUBLE_EQ(row.values[0], 5.0);  // counter: delta since baseline
  EXPECT_DOUBLE_EQ(row.values[1], 7.5);  // gauge: level, not delta
  EXPECT_DOUBLE_EQ(row.values[2], 2.0);  // hist count delta
  EXPECT_DOUBLE_EQ(row.values[3], 8.0);  // hist sum delta

  // Nothing changed: the next row is all zeros except the gauge level.
  sampler.sample_now(2.0);
  const auto& row2 = sampler.rows().at(1);
  EXPECT_DOUBLE_EQ(row2.values[0], 0.0);
  EXPECT_DOUBLE_EQ(row2.values[1], 7.5);
  EXPECT_DOUBLE_EQ(row2.values[2], 0.0);
}

TEST(SamplerColumns, MissingInstrumentsReadZeroAndAreNotCreated) {
  Sampler sampler(explicit_columns({"test.sampler.phantom.never"}));
  sampler.sample_now(1.0);
  EXPECT_DOUBLE_EQ(sampler.rows().at(0).values.at(0), 0.0);
  // Probing must not have registered a phantom instrument.
  EXPECT_EQ(obs::Registry::instance().find_counter("test.sampler.phantom.never"), nullptr);
}

TEST(SamplerLimits, RowsBeyondMaxSamplesAreDroppedAndCounted) {
  SamplerOptions options = explicit_columns({"test.sampler.limit.c"});
  options.max_samples = 2;
  Sampler sampler(options);
  for (int i = 0; i < 5; ++i) sampler.sample_now(static_cast<double>(i));
  EXPECT_EQ(sampler.rows().size(), 2u);
  EXPECT_EQ(sampler.dropped(), 3u);
}

TEST(SamplerLimits, BadPeriodIsRejected) {
  SamplerOptions options;
  options.period = 0.0;
  EXPECT_THROW(Sampler{options}, Error);
}

TEST(SamplerJson, SchemaColumnsAndRows) {
  obs::counter("test.sampler.json.c").reset();
  Sampler sampler(explicit_columns({"test.sampler.json.c"}));
  obs::counter("test.sampler.json.c").add(2);
  sampler.sample_now(0.5);

  const std::string json = sampler.to_json();
  EXPECT_NE(json.find("\"schema\": \"gpumip.timeseries.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"period\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"test.sampler.json.c\", \"kind\": \"counter\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ts\": 0.5, \"sim\": true, \"values\": [2]"), std::string::npos);
}

TEST(SamplerBind, TickBoundRoutesToTheBoundSamplerOnly) {
  obs::counter("test.sampler.bind.c").reset();
  Sampler::tick_bound(100.0);  // unbound: must be a harmless no-op
  EXPECT_EQ(Sampler::bound(), nullptr);

  Sampler outer(explicit_columns({"test.sampler.bind.c"}));
  {
    Sampler::Bind bind_outer(outer);
    EXPECT_EQ(Sampler::bound(), &outer);
    Sampler inner(explicit_columns({"test.sampler.bind.c"}));
    {
      Sampler::Bind bind_inner(inner);
      EXPECT_EQ(Sampler::bound(), &inner);
      inner.tick_sim(0.0);
      Sampler::tick_bound(2.5);
      EXPECT_EQ(inner.rows().size(), 1u);
      EXPECT_TRUE(outer.rows().empty());
    }
    EXPECT_EQ(Sampler::bound(), &outer);  // nesting restores the previous
  }
  EXPECT_EQ(Sampler::bound(), nullptr);
}

TEST(SamplerDefaults, RegistryWideColumnsCoverSolverInstrumentsOnly) {
  obs::counter("gpumip.test_sampler.default.c").add(1);
  obs::counter("test.sampler.default.other").add(1);
  Sampler sampler{SamplerOptions{}};
  bool saw_solver = false;
  for (const auto& col : sampler.columns()) {
    EXPECT_EQ(col.name.rfind("gpumip.", 0), 0u) << col.name;
    if (col.name == "gpumip.test_sampler.default.c") saw_solver = true;
  }
  EXPECT_TRUE(saw_solver);
}

// The tentpole determinism property: a supervised solve under a recorded
// schedule, replayed, produces bit-identical sim-stamped rows. The sampled
// columns are the supervisor rank's own progress counters — mutated only
// on the sampling thread's deterministic path (the ownership contract in
// docs/METRICS.md).
TEST(SamplerReplay, SupervisedRowsAreBitIdenticalUnderScheduleReplay) {
  Rng rng(77);
  problems::RandomMipConfig cfg;
  cfg.rows = 14;
  cfg.cols = 26;
  cfg.bound = 4.0;
  const mip::MipModel m = problems::random_mip(cfg, rng);

  const std::vector<std::string> columns = {
      "gpumip.supervisor.dispatched",
      "gpumip.supervisor.completed",
      "gpumip.supervisor.checkpoints",
  };
  const double period = 1e-4;

  auto run_with = [&](parallel::DeliveryTrace* record, const parallel::DeliveryTrace* replay,
                      std::uint64_t seed) {
    Sampler sampler(explicit_columns(columns, period));
    parallel::SupervisorOptions opts;
    opts.workers = 3;
    opts.worker_node_budget = 8;
    opts.ramp_up_nodes = 12;
    opts.mip.enable_cuts = false;
    opts.sampler = &sampler;
    opts.schedule.fuzz = replay == nullptr;
    opts.schedule.seed = replay == nullptr ? seed : 0;
    opts.schedule.record = record;
    opts.schedule.replay = replay;
    parallel::SupervisorResult r = parallel::solve_supervised(m, opts);
    EXPECT_EQ(r.result.status, mip::MipStatus::Optimal);
    return sampler;
  };

  for (std::uint64_t seed : {3u, 1017u}) {
    parallel::DeliveryTrace recorded;
    const Sampler first = run_with(&recorded, nullptr, seed);
    ASSERT_FALSE(recorded.empty());
    const Sampler second = run_with(nullptr, &recorded, seed);

    if (!obs::kObsEnabled) continue;  // counters never move in OFF builds
    ASSERT_FALSE(first.rows().empty()) << "seed " << seed;
    ASSERT_EQ(first.rows().size(), second.rows().size()) << "seed " << seed;
    for (std::size_t i = 0; i < first.rows().size(); ++i) {
      const auto& a = first.rows()[i];
      const auto& b = second.rows()[i];
      // Bit-identical, not approximately equal: memcmp on the doubles.
      EXPECT_EQ(std::memcmp(&a.ts, &b.ts, sizeof(double)), 0)
          << "seed " << seed << " row " << i << ": " << a.ts << " vs " << b.ts;
      ASSERT_EQ(a.values.size(), b.values.size());
      for (std::size_t j = 0; j < a.values.size(); ++j) {
        EXPECT_EQ(std::memcmp(&a.values[j], &b.values[j], sizeof(double)), 0)
            << "seed " << seed << " row " << i << " col " << j;
      }
    }
  }
}

}  // namespace
}  // namespace gpumip
